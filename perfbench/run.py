#!/usr/bin/env python3
"""Benchmark of the hierpart command line, run in-process by one closed-loop client.

    python3 perfbench/run.py --workload partition-mesh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload many-ranks --seed 0 --seconds 1   # one cycle

Set-up writes the workload's inputs (made from --seed) into a temporary
directory under ``.perfbench_tmp/`` at the repository root, five times, and
keeps the last copy. The timed loop then calls ``hierpart.cli.main`` on the
workload's op cycle, one op after another, until --seconds have passed and
every case has run once, and checks every output file. With ``--trace 1`` the loop runs for half the time
untraced, then the same ops run again under the outside-in tracer of
``spans.py``; the per-layer metrics come from that traced pass and the spans
are written to ``.perfbench_out/``. Every run compares the SHA-256 of each
case's output with the corpus in ``golden/<workload>.json``;
``--record-golden`` records them there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for the
metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
IMPORT_REPS = 5
# Median calibrate() time on the 2-vCPU host the benchmark was sized on: at
# that host speed ref_elems_per_s equals elems_per_s.
CALIBRATION_REF_S = 0.016


def import_hierpart():
    """Import hierpart from this checkout's ``src``; exit nonzero when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import hierpart
        import hierpart.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hierpart from {SRC}: {exc}")
    if not os.path.abspath(hierpart.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hierpart from {hierpart.__file__}, not from {SRC}")
    return hierpart


def time_import() -> float:
    """Seconds a fresh interpreter takes to import hierpart (and numpy with it)."""
    code = "import time; t = time.perf_counter(); import hierpart.cli; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


@dataclass
class Result:
    op: workloads.Op
    seconds: float
    failure: str | None
    digest: str | None
    calibration_s: float = 0.0


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    It calls no hierpart code, so it measures only how fast the host runs
    right now. Medians of it scale ``ref_elems_per_s`` and ``setup_s`` to
    the reference host speed ``CALIBRATION_REF_S``.
    """
    values = np.arange(4096, dtype=np.int64) * 7919 % 4093
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(600):
        picked = np.flatnonzero(values > 2 * i)
        table[int(picked[np.argmax(values[picked])])] = i
        for j in range(60):
            table[j] = table.get(j, 0) + i * j
    return time.perf_counter() - start


def execute(op, cli) -> Result:
    sink = io.StringIO()
    calibration_s = calibrate()
    gc.collect()  # so no op pays for collecting the previous op's garbage
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code
    except Exception:  # a traceback escaping main() is a failed op, not a crash
        rc = "traceback " + traceback.format_exc().strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if rc != 0:
        return Result(op, seconds, f"exit {rc}: {sink.getvalue().strip()[-300:]}", None, calibration_s)
    try:
        with open(op.out, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return Result(op, seconds, f"no output: {exc}", None, calibration_s)
    digest = hashlib.sha256(data).hexdigest()
    return Result(op, seconds, workloads.check(op, data), digest, calibration_s)


def closed_loop(ops, cli, seconds: float) -> list[Result]:
    """Run the op cycle until ``seconds`` have passed and every case has run once."""
    results: list[Result] = []
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= len(ops) and time.perf_counter() >= deadline:
            return results
        results.append(execute(ops[i % len(ops)], cli))


def check_repeats(results: list[Result], first: dict[str, str]) -> None:
    """Fail any op whose output differs from the first output of the same case."""
    for r in results:
        if r.failure is None:
            expected = first.setdefault(r.op.case, r.digest)
            if r.digest != expected:
                r.failure = "output differs from an earlier run of the same case"


def self_check(results: list[Result]) -> tuple[int, int]:
    """Corrupt one valid output per command; every corruption must count as failed."""
    corrupted = []
    seen = set()
    for r in results:
        if r.failure is None and r.op.command not in seen:
            seen.add(r.op.command)
            with open(r.op.out, "rb") as fh:
                data = fh.read()
            for label, bad in workloads.corruptions(r.op, data):
                corrupted.append(Result(r.op, 0.0, workloads.check(r.op, bad), None))
                if corrupted[-1].failure is None:
                    print(f"  SELF-CHECK MISSED {label} in {r.op.case}", file=sys.stderr)
    return count_failed(corrupted), len(corrupted)


def count_failed(results: list[Result]) -> int:
    return sum(r.failure is not None for r in results)


def percentile_note(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p} {ordered[-(len(ordered) * (100 - p) // 100) - 1]:.4f} s"
    return "no percentile above p50 has 10 samples beyond it"


def quality(hp, results: list[Result]) -> dict[str, float | None]:
    """Cut and balance over every distinct element partition the ops wrote or read,
    and node ratio over every distinct ownership output."""
    partitions = {r.op.elem_part: r.op for r in results if r.failure is None}
    cut = edges = internode = hier_edges = 0
    worst_balance = 0.0
    for path, op in partitions.items():
        with open(path, "rb") as fh:
            parts = workloads.parse_ids(fh.read())
        offsets = None
        if op.group_size is not None:
            offsets = hp.compute_splits(op.num_parts, op.group_size).offsets
        c, e, i = workloads.cut_stats(op.grid, parts, offsets)
        cut, edges = cut + c, edges + e
        if offsets is not None:
            internode, hier_edges = internode + i, hier_edges + e
        sizes = hp.Partition(parts, op.num_parts).part_sizes()
        worst_balance = max(worst_balance, sizes.max() / (len(parts) / op.num_parts))
    ratios = []
    for r in {r.op.case: r for r in results if r.failure is None and r.op.command == "assign-nodes"}.values():
        with open(r.op.out, "rb") as fh:
            counts = hp.NodeOwnership.from_owner(workloads.parse_ids(fh.read()), r.op.num_parts).counts
        ratios.append(counts.max() / counts.min())
    return {
        "cut_frac": cut / edges if edges else None,
        "internode_cut_frac": internode / hier_edges if hier_edges else None,
        "max_over_avg_max": float(worst_balance) if partitions else None,
        "node_ratio_max": float(max(ratios)) if ratios else None,
    }


def elems_per_s(results: list[Result]) -> float:
    return sum(r.op.grid.num_elements for r in results) / sum(r.seconds for r in results)


def ref_elems_per_s(results: list[Result]) -> float:
    """elems_per_s scaled to the reference host speed measured by calibrate()."""
    return elems_per_s(results) * statistics.median(r.calibration_s for r in results) / CALIBRATION_REF_S


def end_to_end(hp, results: list[Result], setup: tuple[float, float]) -> dict[str, tuple]:
    """Every end-to-end metric as (value or None when it does not apply, unit, note)."""
    metrics = {
        "elems_per_s": (elems_per_s(results), "elem/s", f"{len(results)} ops"),
        "calibration_s": (statistics.median(r.calibration_s for r in results), "s", "median"),
        "ref_elems_per_s": (ref_elems_per_s(results), "elem/s", ""),
        "op_s_p50": (statistics.median(r.seconds for r in results), "s",
                     f"n={len(results)}; " + percentile_note([r.seconds for r in results])),
    }
    for command in ("partition", "assign-nodes", "report"):
        times = [r.seconds for r in results if r.op.command == command]
        metrics[command.replace("-", "_") + "_s_p50"] = (
            statistics.median(times) if times else None, "s",
            f"n={len(times)}; " + percentile_note(times) if times else "",
        )
    metrics["setup_s"] = (setup[0], "s", "at the reference host speed")
    metrics["setup_raw_s"] = (setup[1], "s", "")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    metrics["failed_frac"] = (count_failed(results) / len(results), "fraction", "")
    units = {"cut_frac": "fraction", "internode_cut_frac": "fraction",
             "max_over_avg_max": "ratio", "node_ratio_max": "ratio"}
    for name, value in quality(hp, results).items():
        metrics[name] = (value, units[name], "")
    return metrics


# Public functions whose summed self time is a per-layer metric.
SELF_TIMED = (
    "kway.fm_refine", "kway.heavy_edge_match", "kway.coarsen", "kway.initial_bisection",
    "kway.partition_kway", "graph.build_graph", "graph.extract_subgraph",
    "graph.read_partition", "graph.write_partition", "mesh.read_mesh", "mesh.write_mesh",
    "mesh.dual_graph", "mesh.node_to_parts", "mesh.interface_node_sets",
    "hierarchy.discover_exchange", "hierarchy.compose_final", "nodes.assign_lowest_rank",
    "nodes.assign_parity", "nodes.assign_interface_partition", "nodes.read_ownership",
    "nodes.write_ownership", "cli.main",
)


def per_layer(tracer, untraced: list[Result], traced: list[Result], golden) -> dict[str, tuple]:
    self_s, calls = tracer.self_times()
    count = tracer.counts

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    stages = tracer.child_calls("kway.partition_kway", "hierarchy.hierarchical_partition")
    bisections = tracer.child_calls("kway.partition_kway", "nodes.assign_interface_partition")
    metrics = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMED}
    metrics.update({
        "kway.fm_refine.calls": (calls["kway.fm_refine"], "count"),
        "kway.fm_refine.vertices": (count["fm_refine.vertices"], "count"),
        "kway.fm_refine.improved_frac": (
            share(count["fm_refine.improved"], calls["kway.fm_refine"]), "fraction"),
        "kway.heavy_edge_match.matched_frac": (
            share(count["heavy_edge_match.matched"], count["heavy_edge_match.vertices"]), "fraction"),
        "kway.coarsen.shrink": (share(count["coarsen.coarse"], count["coarsen.fine"]), "ratio"),
        "graph.build_graph.edges": (count["build_graph.edges"], "count"),
        "graph.extract_subgraph.vertices": (count["extract_subgraph.vertices"], "count"),
        "hierarchy.stage1_s": (sum(s[0] for s in stages), "s"),
        "hierarchy.stage2_s": (sum(sum(s[1:]) for s in stages), "s"),
        "hierarchy.migrated_vertices": (count["migrated_vertices"], "count"),
        "nodes.interface_bisections": (sum(len(b) for b in bisections), "count"),
        "nodes.interface_bisections_s": (sum(sum(b) for b in bisections), "s"),
        "trace.overhead_frac": (1 - ref_elems_per_s(traced) / ref_elems_per_s(untraced), "fraction"),
        "trace.spans": (len(tracer.spans), "count"),
        "golden.cases_checked": (golden[0], "count"),
        "golden.outputs_changed": (golden[1], "count"),
    })
    return metrics


def golden_path(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json")


def compare_golden(workload: str, seed: int, digests: dict[str, str]) -> tuple[int, int]:
    """(cases with a recorded hash at this seed, how many of them differ)."""
    try:
        with open(golden_path(workload)) as fh:
            recorded = json.load(fh).get(str(seed), {})
    except FileNotFoundError:
        recorded = {}
    known = [case for case in digests if case in recorded]
    return len(known), sum(digests[c] != recorded[c] for c in known)


def record_golden(workload: str, seed: int, digests: dict[str, str]) -> None:
    path = golden_path(workload)
    try:
        with open(path) as fh:
            corpus = json.load(fh)
    except FileNotFoundError:
        corpus = {}
    corpus[str(seed)] = dict(sorted(digests.items()))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(corpus.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
        fh.write("\n")


def print_metrics(title: str, metrics: dict[str, tuple]) -> None:
    print(f"  {title}")
    for name, (value, unit, *note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        extra = f"  ({note[0]})" if note and note[0] else ""
        print(f"    {name:40s} {shown}{extra}")


def print_cases(results: list[Result]) -> None:
    by_case: dict[str, list[float]] = {}
    for r in results:
        by_case.setdefault(r.op.case, []).append(r.seconds)
    print("  op wall time by case (median s, runs)")
    for case, times in by_case.items():
        print(f"    {statistics.median(times):8.4f}  {len(times):3d}  {case}")


def report_failures(results: list[Result]) -> None:
    for r in results:
        if r.failure is not None:
            print(f"  FAILED {r.op.case}: {r.failure}", file=sys.stderr)


def run_all(args) -> int:
    """Run each workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_golden:
            argv.append("--record-golden")
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {done.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record this run's output hashes in the golden corpus")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    # A stop request raises KeyboardInterrupt, which execute() does not catch,
    # so the temp-dir cleanup below still runs.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    hp = import_hierpart()
    calibration = []
    import_times = []
    for _ in range(IMPORT_REPS):
        calibration.append(calibrate())
        import_times.append(time_import())
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            calibration.append(calibrate())
            if tmp is not None:
                shutil.rmtree(tmp)
            tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
            start = time.perf_counter()
            ops = workloads.setup(hp, args.workload, args.seed, tmp)
            setup_times.append(time.perf_counter() - start)
        setup_raw_s = statistics.median(import_times) + statistics.median(setup_times)
        setup_s = setup_raw_s * CALIBRATION_REF_S / statistics.median(calibration)
        return measure(hp, args, ops, (setup_s, setup_raw_s), base)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def measure(hp, args, ops, setup: tuple[float, float], base: str) -> int:
    cli = hp.cli
    first: dict[str, str] = {}
    results = closed_loop(ops, cli, args.seconds / (2 if args.trace else 1))
    check_repeats(results, first)
    caught, corrupted = self_check(results)
    golden = compare_golden(args.workload, args.seed, first)
    correct = count_failed(results) == 0 and caught == corrupted

    print(f"workload {args.workload}  seed {args.seed}  ops {len(results)}  "
          f"failed {count_failed(results)}  self-check caught {caught}/{corrupted} corrupted outputs")
    print(f"  golden corpus: {golden[0]} cases compared, outputs_changed {golden[1]}")
    report_failures(results)
    print_cases(results)
    metrics = end_to_end(hp, results, setup)
    print_metrics("end-to-end" + (" (untraced half)" if args.trace else ""), metrics)
    attempted, failed = len(results), count_failed(results)

    if args.record_golden:
        if failed:
            print("perfbench: not recording hashes of a run with failed ops", file=sys.stderr)
            return 1
        record_golden(args.workload, args.seed, first)
    if args.trace:
        tracer = spans.Tracer()
        traced_tmp = tempfile.mkdtemp(prefix=f"{args.workload}-traced-", dir=base)
        try:
            with tracer:
                workloads.setup(hp, args.workload, args.seed, traced_tmp)
                traced = [execute(r.op, cli) for r in results]
        finally:
            shutil.rmtree(traced_tmp, ignore_errors=True)
        check_repeats(traced, first)
        report_failures(traced)
        attempted, failed = attempted + len(traced), failed + count_failed(traced)
        correct = correct and count_failed(traced) == 0
        out = per_layer(tracer, results, traced, golden)
        print_metrics("per-layer (traced pass, same ops)", out)
        trace_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        out = {k: v for k, v in metrics.items() if k in END_TO_END}

    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in out.items()},
    }))
    return 0


# Reported in the result line of an untraced run. The other end-to-end metrics
# (per-command medians, node ratio, failed share) do not apply to every
# workload or are zero, and the median over all ops jumps between the
# clusters of a mixed cycle, so they appear only in the readable summary.
END_TO_END = ("ref_elems_per_s", "setup_s", "peak_rss_mb",
              "cut_frac", "internode_cut_frac", "max_over_avg_max")

if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
