"""Command-line front end: mesh generation, partitioning, node assignment, reports.

Each command and each flag is declared once, in two tables: ``_COMMANDS`` gives
a command's runner, help, flags and required file flags, and ``_FLAGS`` gives a
flag's argparse keywords. The parser, the required-flag check and the dispatch
in ``main`` all read them; ``hierpart --help`` lists the commands.

All randomness flows from --seed; identical flags give byte-identical output
files (summaries on stdout additionally show wall time, which of course
varies).

Exit codes: 0 success, 2 invalid input, 3 infeasible configuration (or
out of memory), 4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import FileFormatError, InfeasibleError
from .graph import (
    Graph,
    Partition,
    balance_stats,
    edge_cut,
    read_graph,
    read_partition,
    write_partition,
)
from .hierarchy import hierarchical_partition
from .kway import partition_kway
from .mesh import (
    Mesh, _element_pairs, _interface_elements, _node_parts, dual_graph, generate_structured_hex,
    generate_structured_quad, read_mesh, write_mesh,
)
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


# Each flag's argparse keywords, keyed by its name after "--".
_FLAGS = {
    "nx": dict(type=int, required=True),
    "ny": dict(type=int, required=True),
    "nz": dict(type=int, help="if given, a hex mesh is produced"),
    "mesh": dict(help="mesh file"),
    "graph": dict(help="graph file"),
    "elem-part": dict(help="element partition file"),
    "node-part": dict(help="node ownership file"),
    "np": dict(type=int, default=1, help="total part count"),
    "np2": dict(type=int, default=1, help="parts per first-level group (cores per node)"),
    "method": dict(choices=["hierarch", "flat"], default="hierarch"),
    "node-strategy": dict(choices=sorted(_STRATEGIES), default="lowest-rank"),
    "seed": dict(type=int, default=0),
    "tol": dict(
        type=float,
        default=0.03,
        help="imbalance tolerance; a k-part cut gives each bisection tol / ceil(log2 k), "
        "and hierarch does so in each of its two stages",
    ),
    "out": dict(help="output path (default: stdout)"),
    "format": dict(choices=["text", "csv"], default="text"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierpart", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


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
    for flag in _COMMANDS[args.command].required.split():
        if not getattr(args, flag.replace("-", "_")):
            raise ValueError(f"--{flag} is required for this command")


def _read_elements(args: argparse.Namespace) -> tuple[Mesh, Partition]:
    """The --mesh and its --elem-part, refused when their lengths differ."""
    mesh = read_mesh(args.mesh)
    partition = read_partition(args.elem_part)
    if len(partition.parts) != mesh.num_elements:
        raise ValueError(
            f"{args.elem_part} has {len(partition.parts)} entries but "
            f"{args.mesh} has {mesh.num_elements} elements"
        )
    return mesh, partition


def _compute_partition(graph: Graph, args: argparse.Namespace, method: str) -> Partition:
    if method == "hierarch":
        return hierarchical_partition(graph, args.np, args.np2, args.seed, imbalance_tol=args.tol)
    return partition_kway(graph, args.np, None, args.seed, imbalance_tol=args.tol)


def _emit_rows(
    args: argparse.Namespace, csv_header: str, text_header: list[str], rows: list, footer: list
) -> None:
    """Write rows to --out (default stdout) as --format CSV or a right-aligned table.

    ``footer`` holds (label, value) pairs that hold for every row: CSV repeats
    the values at the end of each row, the table lists them below itself with
    each label padded to 15 columns.
    """
    cells = [[str(c) for c in row] for row in rows]
    if args.format == "csv":
        tail = [value for _, value in footer]
        lines = [csv_header] + [",".join(row + tail) for row in cells]
    else:
        widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(text_header)]
        lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in [text_header, *cells]]
        lines += [f"{label:<15}{value}" for label, value in footer]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def run_gen_mesh(args: argparse.Namespace) -> None:
    if args.nz is None:
        mesh = generate_structured_quad(args.nx, args.ny)
    else:
        mesh = generate_structured_hex(args.nx, args.ny, args.nz)
    write_mesh(mesh, args.out)


def run_partition(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    graph = read_graph(args.graph) if args.graph is not None else dual_graph(read_mesh(args.mesh))
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
    mesh, partition = _read_elements(args)
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


def _report_rows(args: argparse.Namespace) -> tuple[list[tuple], int, float, float]:
    """Rows (pid, elems, nodes, edge_cuts) plus global cut, NR, elem max/min."""
    mesh, partition = _read_elements(args)
    ownership = read_ownership(args.node_part)
    if len(ownership.owner) != mesh.num_nodes:
        raise ValueError(
            f"{args.node_part} has {len(ownership.owner)} entries but "
            f"{args.mesh} has {mesh.num_nodes} nodes"
        )
    num_ranks = max(partition.num_parts, ownership.num_ranks)
    partition = Partition(partition.parts, num_ranks)
    ownership = NodeOwnership.from_owner(ownership.owner, num_ranks)

    # Only elements with a corner on two parts can hold a cut element pair,
    # which counts once for each of its two parts.
    kept, near = _interface_elements(mesh, _node_parts(mesh, partition)[0])
    part_a, part_b = (partition.parts[kept[e]] for e in divmod(_element_pairs(near), len(kept)))
    cut = part_a != part_b
    boundary = sum(np.bincount(parts[cut], minlength=num_ranks) for parts in (part_a, part_b))
    columns = (partition.part_sizes(), ownership.counts, boundary)
    rows = list(zip(range(num_ranks), *(column.tolist() for column in columns)))
    return rows, int(cut.sum()), node_ratio(ownership), _elem_ratio(partition)


def run_report(args: argparse.Namespace) -> None:
    rows, global_cut, ratio, elem_ratio = _report_rows(args)
    _emit_rows(
        args,
        "pid,elems,nodes,edge_cuts,global_edge_cut,node_ratio,elem_ratio",
        ["pid", "elems", "nodes", "edge-cuts"],
        rows,
        [
            ("edge cut:", str(global_cut)),
            ("NR:", f"{ratio:.6f}"),
            ("elem max/min:", f"{elem_ratio:.6f}"),
        ],
    )


def run_compare(args: argparse.Namespace) -> None:
    mesh = read_mesh(args.mesh)
    graph = dual_graph(mesh)
    rows = []
    for method in ("hierarch", "flat"):
        partition = _compute_partition(graph, args, method)
        cut = edge_cut(graph, partition)
        elem_ratio = f"{_elem_ratio(partition):.6f}"
        for strategy in sorted(_STRATEGIES):
            ownership = _STRATEGIES[strategy](mesh, partition, args.seed)
            ratio = f"{node_ratio(ownership):.6f}"
            rows.append((method, strategy, args.np, args.np2, args.seed, cut, ratio, elem_ratio))
    _emit_rows(
        args,
        "method,node_strategy,np,np2,seed,edge_cut,node_ratio,elem_ratio",
        ["method", "strategy", "np", "np2", "seed", "edge-cut", "NR", "elem-ratio"],
        rows,
        [],
    )


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], None]
    help: str
    flags: str  # names in _FLAGS, in --help order
    required: str  # file flags refused when missing, in check order


_COMMANDS = {
    "gen-mesh": _Command(run_gen_mesh, "write a structured quad/hex mesh", "nx ny nz out", "out"),
    "partition": _Command(
        run_partition,
        "partition a graph or a mesh's dual graph",
        "mesh graph np np2 method seed tol out format",
        "out",
    ),
    "assign-nodes": _Command(
        run_assign_nodes,
        "derive node ownership from an element partition",
        "mesh elem-part node-strategy seed out",
        "mesh elem-part out",
    ),
    "report": _Command(
        run_report,
        "per-rank elems/nodes/edge-cuts table",
        "mesh elem-part node-part out format",
        "mesh elem-part node-part",
    ),
    "compare": _Command(
        run_compare,
        "all methods × node strategies on one mesh",
        "mesh np np2 seed tol out format",
        "mesh",
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        _COMMANDS[args.command].run(args)
    except (OSError, InfeasibleError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, (FileFormatError, OSError, UnicodeDecodeError)):
            return 4
        return 3 if isinstance(exc, (InfeasibleError, MemoryError)) else 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
