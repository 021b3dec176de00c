"""Command-line front end: mesh generation, partitioning, node assignment, reports.

Commands:
  gen-mesh      write a structured quad/hex mesh file
  partition     partition a graph (or a mesh's dual graph) and write part ids
  assign-nodes  derive node ownership from an element partition
  report        per-rank table: pid, elems, nodes, edge-cuts (+ global footer)
  compare       same mesh under both methods and all three node strategies

All randomness flows from --seed; identical flags give byte-identical output
files (summaries on stdout additionally show wall time, which of course
varies).

Exit codes: 0 success, 2 invalid input, 3 infeasible configuration,
4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings

import numpy as np

from .errors import FileFormatError, InfeasibleError
from .graph import (
    Graph,
    Partition,
    balance_stats,
    edge_cut,
    per_rank_metrics,
    read_graph,
    read_partition,
    write_partition,
)
from .hierarchy import hierarchical_partition
from .kway import TargetWeights, partition_kway
from .mesh import dual_graph, generate_structured_hex, generate_structured_quad, read_mesh, write_mesh
from .nodes import (
    NodeOwnership,
    assign_interface_partition,
    assign_lowest_rank,
    assign_parity,
    node_ratio,
    read_ownership,
    write_ownership,
)

__all__ = ["main", "entry"]

_STRATEGIES = {
    "lowest-rank": lambda mesh, parts, seed: assign_lowest_rank(mesh, parts),
    "parity": lambda mesh, parts, seed: assign_parity(mesh, parts),
    "interface": assign_interface_partition,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierpart", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        flags = {
            "np": lambda: p.add_argument("--np", type=int, default=1, help="total part count"),
            "np2": lambda: p.add_argument(
                "--np2", type=int, default=1, help="parts per first-level group (cores per node)"
            ),
            "method": lambda: p.add_argument(
                "--method", choices=["hierarch", "flat"], default="hierarch"
            ),
            "strategy": lambda: p.add_argument(
                "--node-strategy", choices=sorted(_STRATEGIES), default="lowest-rank"
            ),
            "seed": lambda: p.add_argument("--seed", type=int, default=0),
            "tol": lambda: p.add_argument(
                "--tol",
                type=float,
                default=0.03,
                help="imbalance tolerance; a k-part cut gives each bisection tol / ceil(log2 k), "
                "and hierarch does so in each of its two stages",
            ),
            "mesh": lambda: p.add_argument("--mesh", help="mesh file"),
            "graph": lambda: p.add_argument("--graph", help="graph file"),
            "elem-part": lambda: p.add_argument("--elem-part", help="element partition file"),
            "node-part": lambda: p.add_argument("--node-part", help="node ownership file"),
            "out": lambda: p.add_argument("--out", help="output path (default: stdout)"),
            "format": lambda: p.add_argument("--format", choices=["text", "csv"], default="text"),
        }
        for n in names:
            flags[n]()

    p = sub.add_parser("gen-mesh", help="write a structured quad/hex mesh")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--nz", type=int, default=None, help="if given, a hex mesh is produced")
    common(p, "out")

    p = sub.add_parser("partition", help="partition a graph or a mesh's dual graph")
    common(p, "mesh", "graph", "np", "np2", "method", "seed", "tol", "out", "format")

    p = sub.add_parser("assign-nodes", help="derive node ownership from an element partition")
    common(p, "mesh", "elem-part", "strategy", "seed", "out")

    p = sub.add_parser("report", help="per-rank elems/nodes/edge-cuts table")
    common(p, "mesh", "elem-part", "node-part", "out", "format")

    p = sub.add_parser("compare", help="all methods × node strategies on one mesh")
    common(p, "mesh", "np", "np2", "seed", "tol", "out", "format")
    return parser


# The file flags each command needs, in the order they are checked.
_REQUIRED = {
    "gen-mesh": ["out"],
    "partition": ["out"],
    "assign-nodes": ["mesh", "elem_part", "out"],
    "report": ["mesh", "elem_part", "node_part"],
    "compare": ["mesh"],
}


def _check_flags(args: argparse.Namespace) -> None:
    """Reject missing or out-of-range flags before a command reads or writes anything."""
    if getattr(args, "np", 1) < 1 or getattr(args, "np2", 1) < 1:
        raise ValueError("--np and --np2 must be >= 1")
    if not (0 <= getattr(args, "seed", 0) < 2**64):
        raise ValueError("--seed must fit in 64 bits")
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")
    if args.command == "partition" and (args.graph is None) == (args.mesh is None):
        raise ValueError("exactly one of --graph or --mesh is required")
    for name in _REQUIRED[args.command]:
        if not getattr(args, name):
            raise ValueError(f"--{name.replace('_', '-')} is required for this command")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph is not None:
        return read_graph(args.graph)
    return dual_graph(read_mesh(args.mesh))


def _compute_partition(graph: Graph, args: argparse.Namespace, method: str) -> Partition:
    # Refused before anything is sized by --np.
    if args.np > graph.num_vertices:
        raise InfeasibleError(
            f"cannot cut {graph.num_vertices} vertices into {args.np} nonempty parts"
        )
    if method == "hierarch":
        return hierarchical_partition(graph, args.np, args.np2, args.seed, imbalance_tol=args.tol)
    return partition_kway(
        graph, args.np, TargetWeights.uniform(args.np), args.seed, imbalance_tol=args.tol
    )


def run_gen_mesh(args: argparse.Namespace) -> None:
    if args.nz is None:
        mesh = generate_structured_quad(args.nx, args.ny)
    else:
        mesh = generate_structured_hex(args.nx, args.ny, args.nz)
    write_mesh(mesh, args.out)


def run_partition(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    graph = _load_graph(args)
    partition = _compute_partition(graph, args, args.method)
    write_partition(partition, args.out)
    elapsed = time.perf_counter() - started

    sizes = partition.part_sizes()
    stats = balance_stats(sizes)
    cut = edge_cut(graph, partition)
    if args.format == "csv":
        sys.stdout.write("edge_cut,num_parts,max_size,min_size,max_over_avg,max_over_min,wall_s\n")
        sys.stdout.write(
            f"{cut},{partition.num_parts},{stats.max},{stats.min},"
            f"{stats.max_over_avg:.6f},{stats.max_over_min:.6f},{elapsed:.3f}\n"
        )
    else:
        sys.stdout.write(
            f"edge cut:    {cut}\n"
            f"part sizes:  {' '.join(str(int(s)) for s in sizes)}\n"
            f"max/avg:     {stats.max_over_avg:.6f}\n"
            f"max/min:     {stats.max_over_min:.6f}\n"
            f"wall time:   {elapsed:.3f} s\n"
        )


def run_assign_nodes(args: argparse.Namespace) -> None:
    mesh = read_mesh(args.mesh)
    partition = read_partition(args.elem_part)
    if len(partition.parts) != mesh.num_elements:
        raise ValueError(
            f"{args.elem_part} has {len(partition.parts)} entries but "
            f"{args.mesh} has {mesh.num_elements} elements"
        )
    ownership = _STRATEGIES[args.node_strategy](mesh, partition, args.seed)
    write_ownership(ownership, args.out)


def _elem_ratio(partition: Partition) -> float:
    """Element max/min per part; like NR, infinite with a warning when a part is empty."""
    sizes = partition.part_sizes()
    empty = np.flatnonzero(sizes == 0).tolist()
    if empty:
        warnings.warn(f"part(s) {empty} hold zero elements; elem max/min is infinite", stacklevel=2)
        return float("inf")
    return balance_stats(sizes).max_over_min


def _report_rows(
    mesh_path: str, elem_part_path: str, node_part_path: str
) -> tuple[list[tuple[int, int, int, int]], int, float, float]:
    """Rows (pid, elems, nodes, edge_cuts) plus global cut, NR, elem max/min."""
    mesh = read_mesh(mesh_path)
    partition = read_partition(elem_part_path)
    if len(partition.parts) != mesh.num_elements:
        raise ValueError(
            f"{elem_part_path} has {len(partition.parts)} entries but "
            f"{mesh_path} has {mesh.num_elements} elements"
        )
    ownership = read_ownership(node_part_path)
    if len(ownership.owner) != mesh.num_nodes:
        raise ValueError(
            f"{node_part_path} has {len(ownership.owner)} entries but "
            f"{mesh_path} has {mesh.num_nodes} nodes"
        )
    num_ranks = max(partition.num_parts, ownership.num_ranks)
    partition = Partition(partition.parts, num_ranks)
    ownership = NodeOwnership.from_owner(ownership.owner, num_ranks)

    graph = dual_graph(mesh)
    metrics = per_rank_metrics(graph, partition)
    rows = [
        (pid, m.vertex_count, int(ownership.counts[pid]), m.boundary_edge_count)
        for pid, m in enumerate(metrics)
    ]
    global_cut = edge_cut(graph, partition)
    return rows, global_cut, node_ratio(ownership), _elem_ratio(partition)


def _format_table(header: list[str], rows: list[tuple], footer: list[str]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines + footer) + "\n"


def run_report(args: argparse.Namespace) -> None:
    rows, global_cut, ratio, elem_ratio = _report_rows(args.mesh, args.elem_part, args.node_part)
    if args.format == "csv":
        lines = ["pid,elems,nodes,edge_cuts,global_edge_cut,node_ratio,elem_ratio"]
        lines += [
            f"{pid},{e},{n},{c},{global_cut},{ratio:.6f},{elem_ratio:.6f}"
            for pid, e, n, c in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            _format_table(
                ["pid", "elems", "nodes", "edge-cuts"],
                rows,
                [
                    f"edge cut:      {global_cut}",
                    f"NR:            {ratio:.6f}",
                    f"elem max/min:  {elem_ratio:.6f}",
                ],
            ),
            args.out,
        )


def run_compare(args: argparse.Namespace) -> None:
    mesh = read_mesh(args.mesh)
    graph = dual_graph(mesh)
    rows = []
    for method in ("hierarch", "flat"):
        partition = _compute_partition(graph, args, method)
        cut = edge_cut(graph, partition)
        elem_ratio = _elem_ratio(partition)
        for strategy in sorted(_STRATEGIES):
            ownership = _STRATEGIES[strategy](mesh, partition, args.seed)
            rows.append(
                (
                    method,
                    strategy,
                    args.np,
                    args.np2,
                    args.seed,
                    cut,
                    node_ratio(ownership),
                    elem_ratio,
                )
            )
    if args.format == "csv":
        lines = ["method,node_strategy,np,np2,seed,edge_cut,node_ratio,elem_ratio"]
        lines += [
            f"{m},{s},{n},{n2},{sd},{c},{nr:.6f},{er:.6f}"
            for m, s, n, n2, sd, c, nr, er in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            _format_table(
                ["method", "strategy", "np", "np2", "seed", "edge-cut", "NR", "elem-ratio"],
                [
                    (m, s, n, n2, sd, c, f"{nr:.6f}", f"{er:.6f}")
                    for m, s, n, n2, sd, c, nr, er in rows
                ],
                [],
            ),
            args.out,
        )


_COMMANDS = {
    "gen-mesh": run_gen_mesh,
    "partition": run_partition,
    "assign-nodes": run_assign_nodes,
    "report": run_report,
    "compare": run_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        _COMMANDS[args.command](args)
    except (OSError, InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (FileFormatError, OSError)):
            return 4
        return 3 if isinstance(exc, InfeasibleError) else 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
