"""The three benchmark workloads: inputs made from a seed, the CLI ops run on
them, and the checks every op output must pass.

Every input is written through hierpart's own generators and writers. The
checks do not use hierpart: dual-graph edges, cuts and node counts of the
structured grids are computed here in closed form with numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# ROADMAP 4a: the hierarchical split 12/5 on hex 16^3 reaches max/avg ~1.066,
# beyond the 3% tolerance. It stays first in the cycle so every run shows it.
PARTITION_MESH_ORDER = [
    ("hex16", 12, 5, "hierarch"),
    ("quad64", 8, 4, "hierarch"),
    ("hex16", 16, 4, "flat"),
    ("quad64", 12, 5, "flat"),
    ("hex16", 8, 4, "hierarch"),
    ("quad64", 16, 4, "hierarch"),
    ("hex16", 12, 5, "flat"),
    ("quad64", 8, 4, "flat"),
    ("hex16", 16, 4, "hierarch"),
    ("quad64", 12, 5, "hierarch"),
    ("hex16", 8, 4, "flat"),
    ("quad64", 16, 4, "flat"),
]
MANY_RANKS = [(30, 4), (60, 8)]
STRATEGIES = ["lowest-rank", "parity", "interface"]
BLOCK_RANKS, BLOCK_GROUP = 16, 4

WORKLOADS = ("partition-mesh", "assign-large", "many-ranks")


@dataclass
class Grid:
    """A structured quad (nx, ny) or hex (nx, ny, nz) mesh written at set-up."""

    name: str
    shape: tuple[int, ...]
    path: str
    _edges: np.ndarray | None = None

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def num_nodes(self) -> int:
        return math.prod(s + 1 for s in self.shape)

    def dual_edges(self) -> np.ndarray:
        """(m, 2) element pairs sharing a side; x-fastest row-major numbering."""
        if self._edges is None:
            ids = np.arange(self.num_elements).reshape(self.shape[::-1])
            pairs = []
            for axis in range(ids.ndim):
                lo = [slice(None)] * ids.ndim
                hi = [slice(None)] * ids.ndim
                lo[axis], hi[axis] = slice(None, -1), slice(1, None)
                pairs.append(np.column_stack([ids[tuple(lo)].ravel(), ids[tuple(hi)].ravel()]))
            self._edges = np.concatenate(pairs)
        return self._edges


@dataclass
class Op:
    """One CLI invocation of a workload cycle.

    ``case`` is the stable id used by the golden corpus. ``elem_part`` is the
    element partition the op reads or, for ``partition``, writes; ``group_size``
    is set when that partition has compute-node groups (hierarch outputs and
    the benchmark's block splits).
    """

    case: str
    command: str
    argv: list[str]
    grid: Grid
    out: str
    num_parts: int
    elem_part: str
    group_size: int | None


def _grid(hp, name: str, shape: tuple[int, ...], tmp: str) -> Grid:
    path = os.path.join(tmp, f"{name}.mesh")
    if len(shape) == 2:
        mesh = hp.generate_structured_quad(*shape)
    else:
        mesh = hp.generate_structured_hex(*shape)
    hp.write_mesh(mesh, path)
    return Grid(name, shape, path)


def _partition_op(grid: Grid, np_: int, np2: int, method: str, seed: int, tmp: str) -> Op:
    case = f"partition {grid.name} np={np_} np2={np2} {method}"
    out = os.path.join(tmp, case.replace(" ", "_") + ".part")
    argv = [
        "partition", "--mesh", grid.path, "--np", str(np_), "--np2", str(np2),
        "--method", method, "--seed", str(seed), "--out", out,
    ]
    return Op(case, "partition", argv, grid, out, np_, out, np2 if method == "hierarch" else None)


def _assign_op(grid: Grid, part: str, tag: str, np_: int, group: int | None,
               strategy: str, seed: int, tmp: str) -> Op:
    case = f"assign-nodes {grid.name} {tag} {strategy}"
    out = os.path.join(tmp, case.replace(" ", "_") + ".own")
    argv = [
        "assign-nodes", "--mesh", grid.path, "--elem-part", part,
        "--node-strategy", strategy, "--seed", str(seed), "--out", out,
    ]
    return Op(case, "assign-nodes", argv, grid, out, np_, part, group)


def _block_split(grid: Grid) -> np.ndarray:
    """16 equal geometric blocks; ranks 4g..4g+3 form compute-node group g.

    Quad: 4 x 4 blocks. Hex: 4 (x) by 2 (y) by 2 (z) blocks.
    """
    counts = (4, 4) if len(grid.shape) == 2 else (4, 2, 2)
    coords = np.unravel_index(np.arange(grid.num_elements), grid.shape[::-1])[::-1]
    rank = np.zeros(grid.num_elements, dtype=np.int64)
    stride = 1
    for n, c, x in zip(grid.shape, counts, coords):
        rank += stride * (x // (n // c))
        stride *= c
    return rank


def setup(hp, workload: str, seed: int, tmp: str) -> list[Op]:
    """Write one workload's inputs into ``tmp`` and return its op cycle."""
    if workload == "partition-mesh":
        grids = {
            "quad64": _grid(hp, "quad64", (64, 64), tmp),
            "hex16": _grid(hp, "hex16", (16, 16, 16), tmp),
        }
        return [
            _partition_op(grids[g], np_, np2, method, seed, tmp)
            for g, np_, np2, method in PARTITION_MESH_ORDER
        ]
    if workload == "assign-large":
        grids = [_grid(hp, "quad256", (256, 256), tmp), _grid(hp, "hex32", (32, 32, 32), tmp)]
        parts = {}
        for grid in grids:
            parts[grid.name] = os.path.join(tmp, f"{grid.name}.blocks.part")
            hp.write_partition(hp.Partition(_block_split(grid), BLOCK_RANKS), parts[grid.name])
        ops = [
            _assign_op(g, parts[g.name], "blocks", BLOCK_RANKS, BLOCK_GROUP, s, seed, tmp)
            for s in STRATEGIES
            for g in grids
        ]
        for grid in grids:
            own = next(op.out for op in ops if op.grid is grid and op.case.endswith("interface"))
            case = f"report {grid.name} blocks interface"
            out = os.path.join(tmp, case.replace(" ", "_") + ".csv")
            argv = [
                "report", "--mesh", grid.path, "--elem-part", parts[grid.name],
                "--node-part", own, "--format", "csv", "--out", out,
            ]
            ops.append(Op(case, "report", argv, grid, out, BLOCK_RANKS, parts[grid.name], BLOCK_GROUP))
        return ops
    if workload == "many-ranks":
        grids = [_grid(hp, "quad48", (48, 48), tmp), _grid(hp, "hex12", (12, 12, 12), tmp)]
        ops = []
        for np_, np2 in MANY_RANKS:
            for method in ("hierarch", "flat"):
                for grid in grids:
                    part = _partition_op(grid, np_, np2, method, seed, tmp)
                    tag = f"np={np_} np2={np2} {method}"
                    ops += [part, _assign_op(grid, part.out, tag, np_, part.group_size,
                                             "interface", seed, tmp)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks. Each returns a failure reason, or None when the output is valid.
# ---------------------------------------------------------------------------


def parse_ids(data: bytes) -> np.ndarray | None:
    try:
        return np.array(data.decode().split(), dtype=np.int64)
    except (UnicodeDecodeError, ValueError):
        return None


def check_partition(op: Op, data: bytes) -> str | None:
    parts = parse_ids(data)
    if parts is None:
        return "unparseable part id"
    if len(parts) != op.grid.num_elements:
        return f"{len(parts)} part ids for {op.grid.num_elements} elements"
    if parts.min() < 0 or parts.max() >= op.num_parts:
        return "part id out of range"
    if np.bincount(parts, minlength=op.num_parts).min() == 0:
        return "empty part"
    return None


def check_ownership(op: Op, data: bytes) -> str | None:
    owner = parse_ids(data)
    if owner is None:
        return "unparseable rank id"
    if len(owner) != op.grid.num_nodes:
        return f"{len(owner)} owners for {op.grid.num_nodes} nodes"
    if owner.min() < 0:
        return "unowned node"
    if owner.max() >= op.num_parts:
        return "rank id out of range"
    if np.bincount(owner, minlength=op.num_parts).min() == 0:
        return "a rank owns no node (NR infinite)"
    return None


REPORT_HEADER = "pid,elems,nodes,edge_cuts,global_edge_cut,node_ratio,elem_ratio"


def check_report(op: Op, data: bytes, elem_parts: np.ndarray) -> str | None:
    lines = data.decode(errors="replace").splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return "bad report header"
    try:
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    except ValueError:
        return "unparseable report row"
    if rows.shape != (op.num_parts, 7):
        return f"report has shape {rows.shape}, expected ({op.num_parts}, 7)"
    if rows[:, 1].sum() != op.grid.num_elements or rows[:, 2].sum() != op.grid.num_nodes:
        return "report element or node totals disagree with the mesh"
    if int(rows[0, 4]) != cut_stats(op.grid, elem_parts)[0]:
        return "report edge cut disagrees with the independent count"
    nodes = rows[:, 2]
    if nodes.min() <= 0 or not math.isfinite(rows[0, 5]) or abs(rows[0, 5] - nodes.max() / nodes.min()) > 1e-5:
        return "report node ratio is infinite or disagrees with its node counts"
    return None


def check(op: Op, data: bytes) -> str | None:
    if op.command == "partition":
        return check_partition(op, data)
    if op.command == "assign-nodes":
        return check_ownership(op, data)
    with open(op.elem_part, "rb") as fh:
        return check_report(op, data, parse_ids(fh.read()))


def cut_stats(grid: Grid, parts: np.ndarray,
              offsets: np.ndarray | None = None) -> tuple[int, int, int]:
    """(edge cut, dual edges, cut between compute-node groups) of an element partition.

    ``offsets`` are the first part ids of each group, as ``compute_splits`` gives them.
    """
    edges = grid.dual_edges()
    a, b = parts[edges[:, 0]], parts[edges[:, 1]]
    cut = int(np.count_nonzero(a != b))
    internode = 0
    if offsets is not None:
        ga = np.searchsorted(offsets, a, side="right")
        gb = np.searchsorted(offsets, b, side="right")
        internode = int(np.count_nonzero(ga != gb))
    return cut, len(edges), internode


def corruptions(op: Op, data: bytes) -> list[tuple[str, bytes]]:
    """Deliberately broken variants of a valid output, each of which must fail its check."""
    lines = data.decode().splitlines()
    join = lambda ls: ("\n".join(ls) + "\n").encode()
    if op.command == "report":
        bumped = lines[1].split(",")
        bumped[4] = str(int(bumped[4]) + 1)
        return [
            ("report row dropped", join(lines[:-1])),
            ("report cut off by one", join([lines[0], ",".join(bumped)] + lines[2:])),
        ]
    ids = [int(t) for t in lines]
    moved = [1 if i == 0 else i for i in ids]  # part/rank 0 left empty
    out = [
        ("line dropped", join(lines[:-1])),
        ("id out of range", join([str(op.num_parts)] + lines[1:])),
        ("garbage token", join(["x"] + lines[1:])),
    ]
    if op.command == "partition":
        out.append(("empty part", join([str(i) for i in moved])))
    else:
        out += [
            ("unowned node", join(["-1"] + lines[1:])),
            ("rank owning no node", join([str(i) for i in moved])),
        ]
    return out
