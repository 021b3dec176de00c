"""Structured quad/hex test meshes, element dual graphs, node-to-part maps, mesh files.

Numbering is row-major with x fastest (then y, then z), for both nodes and
elements, so every small example can be enumerated by hand.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import FileFormatError
from .graph import Graph, Partition, _loadtxt_rows, _write_rows

__all__ = [
    "Mesh",
    "generate_structured_quad",
    "generate_structured_hex",
    "dual_graph",
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
# Compare-exchange pairs that sort 2 and 4 values: on the columns of many short
# rows they are faster than np.sort(axis=-1), which sorts row by row.
_SORTING_NETWORKS = {2: ((0, 1),), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


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
            if (e := _first_repeat(self.element_nodes)) >= 0:
                raise ValueError(f"element {e} repeats a node id")

    @property
    def num_nodes(self) -> int:
        return len(self.node_coords)

    @property
    def num_elements(self) -> int:
        return len(self.element_nodes)


def _first_repeat(element_nodes: np.ndarray) -> int:
    """The first element that lists a node id twice, or -1 when none does."""
    repeats = np.zeros(len(element_nodes), dtype=bool)
    for i, j in zip(*np.triu_indices(element_nodes.shape[1], 1)):  # two boolean columns, no copy
        repeats |= element_nodes[:, i] == element_nodes[:, j]
    return int(np.argmax(repeats)) if repeats.any() else -1


def generate_structured_quad(nx: int, ny: int) -> Mesh:
    """Quad mesh with nx*ny elements on an (nx+1)*(ny+1) node grid.

    Element j*nx+i has nodes (j(nx+1)+i, j(nx+1)+i+1, (j+1)(nx+1)+i+1,
    (j+1)(nx+1)+i), i.e. counterclockwise from its lower-left corner.
    """
    if nx < 1 or ny < 1:
        raise ValueError("mesh dimensions must be >= 1")
    coords = np.empty((ny + 1, nx + 1, 2))
    coords[..., 0] = np.arange(nx + 1)
    coords[..., 1] = np.arange(ny + 1)[:, None]
    base = np.arange(ny)[:, None, None] * (nx + 1) + np.arange(nx)[:, None]
    elems = base + np.array([0, 1, nx + 2, nx + 1])
    return Mesh(2, elems.reshape(-1, 4), coords.reshape(-1, 2))


def generate_structured_hex(nx: int, ny: int, nz: int) -> Mesh:
    """Hex mesh with nx*ny*nz elements; bottom quad then top quad per element."""
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("mesh dimensions must be >= 1")
    nxp, nyp = nx + 1, ny + 1
    coords = np.empty((nz + 1, nyp, nxp, 3))
    coords[..., 0] = np.arange(nxp)
    coords[..., 1] = np.arange(nyp)[:, None]
    coords[..., 2] = np.arange(nz + 1)[:, None, None]
    layer = nxp * nyp
    base = (
        np.arange(nz)[:, None, None, None] * layer
        + np.arange(ny)[:, None, None] * nxp
        + np.arange(nx)[:, None]
    )
    bottom = [0, 1, nxp + 1, nxp]
    elems = base + np.array(bottom + [n + layer for n in bottom])
    return Mesh(3, elems.reshape(-1, 8), coords.reshape(-1, 3))


def _local_sides(mesh: Mesh) -> np.ndarray:
    """Local node indices of the sides of one of ``mesh``'s elements, one row per side."""
    return np.asarray(_QUAD_SIDES if mesh.dim == 2 else _HEX_SIDES)


def _shared_sides(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of element sides that match: ``(side_a, side_b)``.

    A side is an element edge in 2D (2 nodes) or a face in 3D (4 nodes), and
    side ``s`` is local side ``s % m`` of element ``s // m``, where ``m`` is
    the number of sides per element. Sides match when their sorted node ids
    do. Sides are taken in element order, then in canonical local order, and
    equal ones pair up as they come: 1st with 2nd, 3rd with 4th, and an odd
    one out stays unmatched. Pairs are listed in the order of their second
    side, so ``side_b`` ascends and ``side_a < side_b``.

    Sides are matched on packed int64 keys, built a block of elements at a
    time: a quad side with sorted node ids ``lo, hi`` has the one key
    ``lo * num_nodes + hi``, and a hex face has two, one per half of its four
    sorted ids. Memory peaks while the keys, their sort order and a flag a
    side are held, or while the pairs are picked from them: a tracemalloc
    peak of 22.5 bytes a side on quad 256² and 26.5 on hex 40³.
    """
    nn = mesh.num_nodes
    # The largest key is (nn - 2) * nn + nn - 1, which fits int64 while nn**2 <= 2**63.
    if nn * nn > 2**63:
        raise ValueError(f"cannot match the sides of a mesh with {nn} nodes on int64 keys")
    local = _local_sides(mesh)
    per_elem, side_len = local.shape
    keys = [np.empty(mesh.num_elements * per_elem, dtype=np.int64) for _ in range(side_len // 2)]
    step = graph._BLOCK_ROWS
    for start in range(0, mesh.num_elements, step):
        ids = _sorted_columns(mesh.element_nodes[start:start + step][:, local])
        rows = slice(start * per_elem, start * per_elem + ids[0].size)
        for k, key in enumerate(keys):
            key[rows] = (ids[2 * k] * nn + ids[2 * k + 1]).ravel()
    order = np.lexsort(keys[::-1])  # stable: equal sides stay in occurrence order
    # same[i]: the i-th side in sorted order equals the next one. Compared a
    # block at a time, so no sorted copy of the keys is made.
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for start in range(0, len(same), step):
        at = order[start:start + step + 1]
        for key in keys:
            same[start:start + step] &= key[at[1:]] == key[at[:-1]]
    del keys
    key = at = None  # the loops' last key and view of order would keep them alive
    first = _pair_starts(np.flatnonzero(same))
    del same
    side_a = order[first]
    first += 1
    side_b = order[first]
    del order, first
    by_second = np.argsort(side_b)
    return side_a[by_second], side_b[by_second]


def _sorted_columns(ids: np.ndarray) -> list[np.ndarray]:
    """The last axis of ``ids`` (2 or 4 long) as a list of arrays, sorted along it."""
    col = [ids[..., i] for i in range(ids.shape[-1])]
    for i, j in _SORTING_NETWORKS[len(col)]:
        col[i], col[j] = np.minimum(col[i], col[j]), np.maximum(col[i], col[j])
    return col


def _pair_starts(follows: np.ndarray) -> np.ndarray:
    """The sorted positions that start a pair, given those equal to the next one.

    A run of k equal sides puts its first k - 1 positions in ``follows``, back
    to back; pairs start at the 1st, 3rd, ... of them.
    """
    starts = np.ones(len(follows), dtype=bool)
    starts[1:] = follows[1:] != follows[:-1] + 1
    chain = np.arange(len(follows))
    head = np.where(starts, chain, 0)
    del starts
    np.maximum.accumulate(head, out=head)
    chain -= head
    del head
    chain &= 1
    return follows[chain == 0]


def _side_nodes(mesh: Mesh, sides: np.ndarray) -> np.ndarray:
    """The sorted node ids of ``sides`` (numbered as by :func:`_shared_sides`), one row each."""
    local = _local_sides(mesh)
    elems, which = np.divmod(sides, len(local))
    return np.column_stack(_sorted_columns(mesh.element_nodes[elems[:, None], local[which]]))


def _element_pairs(mesh: Mesh) -> np.ndarray:
    """The element pairs :func:`_shared_sides` matches, ascending, as ``min * num_elements + max``.

    Two elements that share several sides (a folded mesh) are one pair. No
    element matches its own side (:class:`Mesh` refuses a repeated node id).
    """
    side_a, side_b = _shared_sides(mesh)
    m = len(_local_sides(mesh))
    return graph._sort_unique(side_a // m * mesh.num_elements + side_b // m)


def dual_graph(mesh: Mesh) -> Graph:
    """Element adjacency graph: an edge wherever two elements share a full side.

    One edge per pair of :func:`_element_pairs`, however many sides it shares. All weights are 1.
    """
    keys, n = _element_pairs(mesh), mesh.num_elements
    return graph._csr(keys, np.ones_like(keys), n, np.ones(n, dtype=np.int64))


def _node_parts(mesh: Mesh, elem_partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Node-to-parts map in compressed form: ``(offsets, parts)``.

    The parts touching node ``n`` (through its elements) are
    ``parts[offsets[n]:offsets[n + 1]]``, ascending and without repeats.
    Every node must belong to an element.
    Memory holds a key and a flag per element corner plus the map: 1.3x the elements.
    """
    if len(elem_partition.parts) != mesh.num_elements:
        raise ValueError(
            f"partition length {len(elem_partition.parts)} != num_elements {mesh.num_elements}"
        )
    num_parts = elem_partition.num_parts
    keys = mesh.element_nodes * num_parts
    keys += elem_partition.parts[:, None]
    keys = graph._sort_unique(keys.ravel())
    nodes, parts = np.divmod(keys, num_parts)
    counts = np.bincount(nodes, minlength=mesh.num_nodes)
    if not counts.all():
        raise ValueError(f"node {int(np.argmin(counts))} belongs to no element")
    offsets = np.zeros(mesh.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, parts


def _interface_elements(mesh: Mesh, offsets: np.ndarray) -> tuple[np.ndarray, Mesh]:
    """The elements with a corner on two or more parts, ascending, and the mesh of those elements.

    ``offsets`` is the node-to-parts map of :func:`_node_parts`. A side shared
    by elements on two parts puts all its nodes on both, so every element
    that holds it is kept, in element order, and it pairs up as in ``mesh``;
    a side that pairs up differently lies in one part.
    """
    kept = np.flatnonzero((np.diff(offsets) >= 2)[mesh.element_nodes].any(axis=1))
    sub = copy.copy(mesh)  # rows of a checked mesh: no second check in __post_init__
    sub.element_nodes = mesh.element_nodes[kept]
    return kept, sub


def _pair_nodes(offsets: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes touching exactly two parts, as arrays ``(a, b, node)`` with a < b.

    Takes the output of :func:`_node_parts`; rows are sorted by (a, b, node).
    """
    nodes = np.flatnonzero(np.diff(offsets) == 2)
    a, b = parts[offsets[nodes]], parts[offsets[nodes] + 1]
    order = np.lexsort((nodes, b, a))
    return a[order], b[order], nodes[order]


# ---------------------------------------------------------------------------
# Mesh text format: line 1 "dim num_nodes num_elements"; then num_nodes
# coordinate lines; then num_elements lines of space-separated 0-indexed
# node ids.
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.num_nodes} {mesh.num_elements}\n")
        _write_rows(fh, mesh.node_coords, "%r")
        _write_rows(fh, mesh.element_nodes, "%d")


def _parse_rows(
    path: str, lines, first: int, out: np.ndarray, convert, what: str, bad: str,
    bound: int | None = None,
) -> None:
    """Fill the rows of ``out`` from the next ``len(out)`` of ``lines``.

    ``lines`` is an open text file (or a list of its lines) after its first
    ``first`` lines, and is read a block of ``_BLOCK_ROWS`` lines at a time.
    Each line must hold ``out.shape[1]`` tokens (else "expected {width}
    {what}") that ``convert`` accepts (else ``bad``) and, when ``bound`` is
    given, that lie in ``[0, bound)``. A block numpy's C reader refuses is
    walked line by line, to convert it or name its bad line.
    """
    width = out.shape[1]
    start = 0
    for block in graph._line_blocks(lines, len(out)):
        rows = out[start:start + len(block)]
        values = _loadtxt_rows(block, out.dtype, width, bound)
        if values is not None:
            rows[:] = values
        else:
            for i, line in enumerate(block):
                lineno = first + start + i + 1
                tokens = line.split()
                if len(tokens) != width:
                    raise FileFormatError(path, lineno, f"expected {width} {what}")
                try:
                    values = [convert(t) for t in tokens]
                except ValueError:
                    raise FileFormatError(path, lineno, bad) from None
                if bound is not None and any(not (0 <= v < bound) for v in values):
                    raise FileFormatError(path, lineno, "node id out of range")
                rows[i] = values
        start += len(block)


def read_mesh(path: str) -> Mesh:
    """Read a mesh file (format above), a block of lines at a time.

    A first pass counts the lines, so a header that claims more rows than the
    file holds is refused before any array is sized from it. Both sections
    are then read from the open file, the elements from the position where
    the coordinates end, so memory holds one block of lines plus the arrays
    returned.
    """
    with graph._open_rereadable(path) as fh:
        num_lines, (dim, nn, ne) = graph._read_header(path, fh, "mesh", "dim num_nodes num_elements")
        if dim not in (2, 3):
            raise FileFormatError(path, 1, f"dim must be 2 or 3, got {dim}")
        if nn < 0 or ne < 0:
            message = f"counts must be >= 0, got {nn} nodes and {ne} elements"
            raise FileFormatError(path, 1, message)
        if num_lines < 1 + nn + ne:
            message = f"expected {nn} coordinate and {ne} element lines"
            raise FileFormatError(path, num_lines, message)

        coords = np.empty((nn, dim), dtype=np.float64)
        _parse_rows(path, fh, 1, coords, float, "coordinates", "bad coordinate value")
        elems = np.empty((ne, 4 if dim == 2 else 8), dtype=np.int64)
        _parse_rows(path, fh, 1 + nn, elems, int, "node ids", "bad node id", nn)
    try:
        mesh = Mesh(dim, elems, coords)
    except ValueError as exc:  # the one check left: an element line repeats a node id
        raise FileFormatError(path, 2 + nn + _first_repeat(elems), str(exc)) from None
    used = np.zeros(nn, dtype=bool)
    used[elems] = True
    if not used.all():
        node = int(np.argmin(used))
        raise FileFormatError(path, 2 + node, f"node {node} belongs to no element")
    return mesh
