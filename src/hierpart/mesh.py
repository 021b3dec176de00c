"""Structured quad/hex test meshes, element dual graphs, interface node sets.

Numbering is row-major with x fastest (then y, then z), for both nodes and
elements, so every small example can be enumerated by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import FileFormatError
from .graph import Graph, Partition, build_graph

__all__ = [
    "Mesh",
    "generate_structured_quad",
    "generate_structured_hex",
    "dual_graph",
    "interface_node_sets",
    "node_to_parts",
    "read_mesh",
    "write_mesh",
]

# Local node indices of the sides of one element, in canonical order.
_QUAD_SIDES = ((0, 1), (1, 2), (2, 3), (3, 0))
_HEX_SIDES = (
    (0, 1, 2, 3),  # bottom
    (4, 5, 6, 7),  # top
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)


@dataclass(eq=False)
class Mesh:
    """Finite-element mesh: per-element node ids plus node coordinates.

    ``element_nodes`` is ``(num_elements, 4)`` for quads and ``(num_elements, 8)``
    for hexes; ``node_coords`` is ``(num_nodes, dim)`` in unitless grid units.
    """

    dim: int
    element_nodes: np.ndarray
    node_coords: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.element_nodes = np.asarray(self.element_nodes, dtype=np.int64)
        self.node_coords = np.asarray(self.node_coords, dtype=np.float64)
        expect = 4 if self.dim == 2 else 8
        if self.element_nodes.ndim != 2 or self.element_nodes.shape[1] != expect:
            raise ValueError(f"{self.dim}D elements must list {expect} node ids")
        if self.node_coords.ndim != 2 or self.node_coords.shape[1] != self.dim:
            raise ValueError("node_coords must be (num_nodes, dim)")
        if self.element_nodes.size:
            if self.element_nodes.min() < 0 or self.element_nodes.max() >= self.num_nodes:
                raise ValueError("element references node id out of range")
            rows = np.sort(self.element_nodes, axis=1)
            repeats = np.flatnonzero(np.any(rows[:, 1:] == rows[:, :-1], axis=1))
            if len(repeats):
                raise ValueError(f"element {repeats[0]} repeats a node id")

    @property
    def num_nodes(self) -> int:
        return len(self.node_coords)

    @property
    def num_elements(self) -> int:
        return len(self.element_nodes)


def generate_structured_quad(nx: int, ny: int) -> Mesh:
    """Quad mesh with nx*ny elements on an (nx+1)*(ny+1) node grid.

    Element j*nx+i has nodes (j(nx+1)+i, j(nx+1)+i+1, (j+1)(nx+1)+i+1,
    (j+1)(nx+1)+i), i.e. counterclockwise from its lower-left corner.
    """
    if nx < 1 or ny < 1:
        raise ValueError("mesh dimensions must be >= 1")
    xs, ys = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    base = (j * (nx + 1) + i).ravel()
    elems = np.column_stack([base, base + 1, base + nx + 2, base + nx + 1])
    return Mesh(2, elems, coords)


def generate_structured_hex(nx: int, ny: int, nz: int) -> Mesh:
    """Hex mesh with nx*ny*nz elements; bottom quad then top quad per element."""
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("mesh dimensions must be >= 1")
    nxp, nyp = nx + 1, ny + 1
    zs, ys, xs = np.meshgrid(np.arange(nz + 1), np.arange(ny + 1), np.arange(nx + 1), indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()]).astype(np.float64)
    layer = nxp * nyp
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    base = (k * layer + j * nxp + i).ravel()
    bottom = np.column_stack([base, base + 1, base + nxp + 1, base + nxp])
    return Mesh(3, np.hstack([bottom, bottom + layer]), coords)


def _shared_sides(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element pairs that share a full side: ``(elem_a, elem_b, side_nodes)``.

    A side is an element edge in 2D (2 nodes) or a face in 3D (4 nodes); sides
    match when their sorted node ids do. Sides are taken in element order,
    then in canonical local order, and equal ones pair up as they come: 1st
    with 2nd, 3rd with 4th, and an odd one out stays unmatched. Pairs are
    listed in the order of their second side, first side's element first;
    ``side_nodes`` holds each pair's sorted node ids, one row per pair.
    """
    local = np.asarray(_QUAD_SIDES if mesh.dim == 2 else _HEX_SIDES)
    per_elem, side_len = local.shape
    sides = np.sort(mesh.element_nodes[:, local].reshape(-1, side_len), axis=1)
    order = np.lexsort(sides.T[::-1])  # stable: equal sides stay in occurrence order
    keyed = sides[order]
    n = len(order)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = np.any(keyed[1:] != keyed[:-1], axis=1)
    rank = np.arange(n) - np.maximum.accumulate(np.where(run_start, np.arange(n), 0))
    first = np.flatnonzero((rank[:-1] % 2 == 0) & ~run_start[1:])
    by_second = np.argsort(order[first + 1])
    first = first[by_second]
    return order[first] // per_elem, order[first + 1] // per_elem, keyed[first]


def dual_graph(mesh: Mesh) -> Graph:
    """Element adjacency graph: an edge wherever two elements share a full side.

    Sides are matched as in :func:`_shared_sides`. All weights are 1.
    """
    elem_a, elem_b, _ = _shared_sides(mesh)
    edges = np.column_stack([elem_a, elem_b, np.ones_like(elem_a)])
    return build_graph(edges, mesh.num_elements)


def _node_parts(mesh: Mesh, elem_partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Node-to-parts map in compressed form: ``(offsets, parts)``.

    The parts touching node ``n`` (through its elements) are
    ``parts[offsets[n]:offsets[n + 1]]``, ascending and without repeats.
    Every node must belong to an element.
    """
    if len(elem_partition.parts) != mesh.num_elements:
        raise ValueError(
            f"partition length {len(elem_partition.parts)} != num_elements {mesh.num_elements}"
        )
    num_parts = elem_partition.num_parts
    pairs = np.unique(mesh.element_nodes * num_parts + elem_partition.parts[:, None])
    nodes, parts = np.divmod(pairs, num_parts)
    counts = np.bincount(nodes, minlength=mesh.num_nodes)
    if not counts.all():
        raise ValueError(f"node {int(np.argmin(counts))} belongs to no element")
    offsets = np.zeros(mesh.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, parts


def node_to_parts(mesh: Mesh, elem_partition: Partition) -> list[set[int]]:
    """Per-node set of part ids over the elements attached to that node."""
    offsets, parts = _node_parts(mesh, elem_partition)
    bounds, values = offsets.tolist(), parts.tolist()
    return [set(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _pair_nodes(offsets: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes touching exactly two parts, as arrays ``(a, b, node)`` with a < b.

    Takes the output of :func:`_node_parts`; rows are sorted by (a, b, node).
    """
    nodes = np.flatnonzero(np.diff(offsets) == 2)
    a, b = parts[offsets[nodes]], parts[offsets[nodes] + 1]
    order = np.lexsort((nodes, b, a))
    return a[order], b[order], nodes[order]


def interface_node_sets(
    mesh: Mesh, elem_partition: Partition
) -> tuple[dict[tuple[int, int], set[int]], list[int]]:
    """Group shared nodes by the unordered pair of parts that touch them.

    Returns ``(pair_sets, multi_rank)``: ``pair_sets[(a, b)]`` (a < b) holds the
    nodes attached to elements of exactly parts a and b; nodes attached to three
    or more parts are excluded from every pair and returned in ``multi_rank``
    (sorted by node id) for separate handling. Pairs are keyed in order of
    their smallest node.
    """
    offsets, parts = _node_parts(mesh, elem_partition)
    a, b, nodes = _pair_nodes(offsets, parts)
    starts = np.flatnonzero((np.diff(a, prepend=-1) != 0) | (np.diff(b, prepend=-1) != 0))
    bounds = [*starts.tolist(), len(nodes)]
    groups = sorted(zip(nodes[starts].tolist(), bounds, bounds[1:]))
    pair_sets = {
        (int(a[lo]), int(b[lo])): set(nodes[lo:hi].tolist()) for _, lo, hi in groups
    }
    multi_rank = np.flatnonzero(np.diff(offsets) > 2).tolist()
    return pair_sets, multi_rank


# ---------------------------------------------------------------------------
# Mesh text format: line 1 "dim num_nodes num_elements"; then num_nodes
# coordinate lines; then num_elements lines of space-separated 0-indexed
# node ids.
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path: str) -> None:
    lines = [f"{mesh.dim} {mesh.num_nodes} {mesh.num_elements}"]
    lines += [" ".join(map(repr, coord)) for coord in mesh.node_coords.tolist()]
    lines += [" ".join(map(str, nodes)) for nodes in mesh.element_nodes.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Lines are parsed in blocks: each block is tokenized and converted in one pass,
# and only a block that fails is re-read line by line, exactly as a per-line
# parser would, to name its first bad line. Small blocks keep the token lists,
# and the heap they fragment, small: at 1,024 lines peak memory stays within a
# few percent of a line-by-line parse, where 4,096 lines cost about 8%.
_BLOCK_LINES = 1024


def _parse_rows(
    path: str, raw: list[str], first: int, out: np.ndarray, convert, what: str, bad: str,
    bound: int | None = None,
) -> None:
    """Fill the rows of ``out`` from lines ``raw[first:first + len(out)]``.

    Each line must hold ``out.shape[1]`` tokens (else "expected {width} {what}")
    that ``convert`` accepts (else ``bad``) and, when ``bound`` is given, that
    lie in ``[0, bound)``.
    """
    width = out.shape[1]
    lines = raw[first:first + len(out)]
    rows = [line.split() for line in lines]
    if set(map(len, rows)) == {width}:
        try:
            values = np.fromiter(map(convert, chain.from_iterable(rows)), out.dtype)
        except (ValueError, OverflowError):  # OverflowError: beyond int64, so out of range
            pass
        else:
            if bound is None or (values.min() >= 0 and values.max() < bound):
                out[:] = values.reshape(-1, width)
                return
    for i, line in enumerate(lines):
        lineno = first + i + 1
        tokens = line.split()
        if len(tokens) != width:
            raise FileFormatError(path, lineno, f"expected {width} {what}")
        try:
            values = [convert(t) for t in tokens]
        except ValueError:
            raise FileFormatError(path, lineno, bad) from None
        if bound is not None and any(not (0 <= v < bound) for v in values):
            raise FileFormatError(path, lineno, "node id out of range")
        out[i] = values


def read_mesh(path: str) -> Mesh:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FileFormatError(path, 1, "empty mesh file")
    head = raw[0].split()
    if len(head) != 3:
        raise FileFormatError(path, 1, "expected 'dim num_nodes num_elements'")
    try:
        dim, nn, ne = (int(t) for t in head)
    except ValueError:
        raise FileFormatError(path, 1, "expected 'dim num_nodes num_elements'") from None
    if dim not in (2, 3):
        raise FileFormatError(path, 1, f"dim must be 2 or 3, got {dim}")
    if nn < 0 or ne < 0:
        raise FileFormatError(path, 1, f"counts must be >= 0, got {nn} nodes and {ne} elements")
    if len(raw) < 1 + nn + ne:
        raise FileFormatError(path, len(raw), f"expected {nn} coordinate and {ne} element lines")

    coords = np.empty((nn, dim), dtype=np.float64)
    for lo in range(0, nn, _BLOCK_LINES):
        block = coords[lo:lo + _BLOCK_LINES]
        _parse_rows(path, raw, 1 + lo, block, float, "coordinates", "bad coordinate value")
    elems = np.empty((ne, 4 if dim == 2 else 8), dtype=np.int64)
    for lo in range(0, ne, _BLOCK_LINES):
        block = elems[lo:lo + _BLOCK_LINES]
        _parse_rows(path, raw, 1 + nn + lo, block, int, "node ids", "bad node id", nn)
    try:
        mesh = Mesh(dim, elems, coords)
    except ValueError as exc:
        raise FileFormatError(path, 1, str(exc)) from None
    used = np.zeros(nn, dtype=bool)
    used[elems] = True
    if not used.all():
        node = int(np.argmin(used))
        raise FileFormatError(path, 2 + node, f"node {node} belongs to no element")
    return mesh
