"""Weighted undirected graphs in compressed-adjacency form, plus partition metrics.

Graphs are immutable after construction and safe to share between threads.
Vertex and edge weights are positive integers so that all balance arithmetic
stays exact. :func:`build_graph` refuses a graph whose vertex weights total
2**63 or more, or whose edge weights total 2**62 or more, so that every total,
cut and gain (up to twice the edge weights) fits in int64.
"""

from __future__ import annotations

import io
import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FileFormatError

__all__ = [
    "Graph",
    "Partition",
    "BalanceStats",
    "build_graph",
    "extract_subgraph",
    "edge_cut",
    "balance_stats",
    "read_graph",
    "write_graph",
    "read_partition",
    "write_partition",
]


@dataclass(eq=False)
class Graph:
    """Undirected graph stored as symmetric compressed adjacency.

    ``adjacency_offsets`` has ``num_vertices + 1`` entries; the neighbors of
    vertex ``v`` occupy ``adjacency_list[offsets[v]:offsets[v+1]]`` with edge
    weights in the parallel ``edge_weights`` slice. Every undirected edge is
    stored once per direction with equal weight. Each graph hierpart makes
    comes from one CSR step, :func:`build_graph`'s, so adjacency runs ascend.
    """

    adjacency_offsets: np.ndarray
    adjacency_list: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray

    def __post_init__(self):
        self.adjacency_offsets = np.asarray(self.adjacency_offsets, dtype=np.int64)
        self.adjacency_list = np.asarray(self.adjacency_list, dtype=np.int64)
        self.edge_weights = np.asarray(self.edge_weights, dtype=np.int64)
        self.vertex_weights = np.asarray(self.vertex_weights, dtype=np.int64)
        nv = len(self.vertex_weights)
        if len(self.adjacency_offsets) != nv + 1:
            raise ValueError("adjacency_offsets must have num_vertices + 1 entries")
        if self.adjacency_offsets[0] != 0 or self.adjacency_offsets[-1] != len(self.adjacency_list):
            raise ValueError("adjacency_offsets must start at 0 and end at len(adjacency_list)")
        if np.any(np.diff(self.adjacency_offsets) < 0):
            raise ValueError("adjacency_offsets must be non-decreasing")
        if len(self.edge_weights) != len(self.adjacency_list):
            raise ValueError("edge_weights must parallel adjacency_list")

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weights)

    @property
    def num_edges(self) -> int:
        return len(self.adjacency_list) // 2

    @property
    def total_vertex_weight(self) -> int:
        return int(self.vertex_weights.sum())

    def validate(self) -> None:
        """Full structural check: symmetry, no self-loops, no duplicate neighbors.

        Weight totals are bounded as :func:`build_graph` bounds them. O(E log E);
        it checks graphs built by hand, since :func:`build_graph` already
        refuses what it would find.
        """
        if np.any(self.vertex_weights < 1) or np.any(self.edge_weights < 1):
            raise ValueError("weights must be positive integers")
        if _exact_sum(self.vertex_weights) >= 2**63:
            raise ValueError("vertex weights must total less than 2**63")
        if _exact_sum(self.edge_weights) >= 2**63:  # every edge is stored twice
            raise ValueError("edge weights must total less than 2**62")
        src = np.repeat(np.arange(self.num_vertices), np.diff(self.adjacency_offsets))
        if np.any(src == self.adjacency_list):
            raise ValueError("self-loop present")
        if len(self.adjacency_list) and (
            self.adjacency_list.min() < 0 or self.adjacency_list.max() >= self.num_vertices
        ):
            raise ValueError("neighbor id out of range")
        # Sort the (u, v) keys stably: a repeat is any entry after the first
        # of its run, and the reverse of every entry must be found among them.
        nv = self.num_vertices
        keys = src * nv + self.adjacency_list
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
        if len(repeats):
            i = repeats.min()
            raise ValueError(f"duplicate neighbor {self.adjacency_list[i]} of vertex {src[i]}")
        if not len(keys):
            return
        reverse = self.adjacency_list * nv + src
        at = np.minimum(np.searchsorted(sorted_keys, reverse), len(keys) - 1)
        matched = (sorted_keys[at] == reverse) & (self.edge_weights[order[at]] == self.edge_weights)
        if not matched.all():
            i = np.argmin(matched)
            raise ValueError(f"asymmetric adjacency between {src[i]} and {self.adjacency_list[i]}")


@dataclass(eq=False)
class Partition:
    """Per-vertex part assignment; part ids lie in ``[0, num_parts)``."""

    parts: np.ndarray
    num_parts: int

    def __post_init__(self):
        self.parts = np.asarray(self.parts, dtype=np.int64)
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        if len(self.parts) and (self.parts.min() < 0 or self.parts.max() >= self.num_parts):
            raise ValueError("part id out of range")

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.parts, minlength=self.num_parts)


@dataclass
class BalanceStats:
    max: int
    min: int
    max_over_min: float
    max_over_avg: float


def build_graph(
    edge_list: Iterable[tuple[int, int, int]] | np.ndarray,
    num_vertices: int,
    vertex_weights: Sequence[int] | None = None,
) -> Graph:
    """Build a symmetric compressed-adjacency graph from an undirected edge list.

    Each entry is ``(u, v, weight)`` with ``u != v``; an ``(m, 3)`` integer
    array is accepted as well. Duplicate edges (in either orientation),
    self-loops, out-of-range ids, and non-positive weights are rejected with
    ValueError, naming the first bad edge in input order. So are vertex
    weights that total 2**63 or more and edge weights that total 2**62 or
    more, which would wrap the int64 totals, cuts and gains computed from them,
    and 2**31 vertices or more, whose edge keys ``u * num_vertices + v``
    would wrap int64 too.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if num_vertices >= 2**31:
        raise ValueError("num_vertices must be less than 2**31")
    if vertex_weights is None:
        vwgt = np.ones(num_vertices, dtype=np.int64)
    else:
        vwgt = np.asarray(vertex_weights, dtype=np.int64)
        if len(vwgt) != num_vertices:
            raise ValueError("vertex_weights length must equal num_vertices")
        if num_vertices and vwgt.min() < 1:
            raise ValueError("vertex weights must be >= 1")

    if not isinstance(edge_list, np.ndarray):
        edge_list = list(edge_list)
    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 3)  # [] and empty arrays of any shape
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    u, v, w = np.ascontiguousarray(edges.T)  # contiguous columns compare faster
    return _csr(_check_edges(u, v, w, num_vertices), w, num_vertices, vwgt)


def _csr(keys: np.ndarray, w: np.ndarray, n: int, vwgt: np.ndarray) -> Graph:
    """The graph of distinct, in-range edge keys ``a * n + b`` (either orientation), weighted
    ``w``: the one CSR step. It checks the weights as :func:`build_graph` does, not the keys."""
    if n and vwgt.min() < 1:
        raise ValueError("vertex weights must be >= 1")
    if len(w) and w.min() < 1:
        i = int(np.argmax(w < 1))
        raise ValueError("edge (%d, %d) has non-positive weight %d" % (*divmod(keys[i], n), w[i]))
    if _exact_sum(vwgt) >= 2**63:
        raise ValueError("vertex weights must total less than 2**63")
    if _exact_sum(w) >= 2**62:
        raise ValueError("edge weights must total less than 2**62")

    # Each edge is stored from both ends; sorted, the keys source * n + neighbor give
    # ascending adjacency runs (a canonical traversal order), their offsets and the
    # neighbors. Entry i of the order is edge i % m, so it picks the weights.
    keys = np.concatenate([keys, keys % n * n + keys // n])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    offsets = np.searchsorted(keys, np.arange(n + 1) * n)
    keys %= n
    return Graph(offsets, keys, w.take(order, mode="wrap"), vwgt)


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D ``keys``, ascending; ``keys`` is sorted in place."""
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _exact_sum(values: np.ndarray) -> int:
    """The sum of non-negative int64 values, exact: halves are summed apart."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


def _check_edges(u: np.ndarray, v: np.ndarray, w: np.ndarray, num_vertices: int) -> np.ndarray:
    """Check the edges given to :func:`build_graph`; return keys ``min * num_vertices + max``.

    Raise for the first bad edge in input order. Each edge is checked for a self-loop,
    then range, then weight, then for repeating an earlier edge in either orientation.
    """
    m = len(u)
    bad = (u == v) | (u < 0) | (u >= num_vertices) | (v < 0) | (v >= num_vertices) | (w < 1)
    first_bad = int(np.argmax(bad)) if bad.any() else m
    # Stable: a key's first occurrence leads its run, and the rest are flagged.
    keys = np.minimum(u, v) * num_vertices + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    first_repeat = int(repeats.min()) if len(repeats) else m
    # Every edge before first_bad is valid, and valid edges share a key only
    # when they are the same edge, so a flag there marks a true repeat. An
    # out-of-range edge's key may equal another's, but it flags nothing sooner.
    i = min(first_bad, first_repeat)
    if i == m:
        return keys
    a, b, c = int(u[i]), int(v[i]), int(w[i])
    if a == b:
        raise ValueError(f"self-loop at vertex {a}")
    if not (0 <= a < num_vertices and 0 <= b < num_vertices):
        raise ValueError(f"edge ({a}, {b}) references vertex out of range")
    if c < 1:
        raise ValueError(f"edge ({a}, {b}) has non-positive weight {c}")
    raise ValueError(f"duplicate edge ({a}, {b})")


def extract_subgraph(graph: Graph, vertex_set: Sequence[int]) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on ``vertex_set``; local ids follow the given order.

    Only the selected rows are read. The subgraph comes from :func:`build_graph`,
    repeat check included, since ``graph`` may be built by hand: one that is not
    simple raises there. Each local adjacency run is ascending. Returns the
    subgraph and the local-to-global id map.
    """
    local_to_global = np.asarray(vertex_set, dtype=np.int64)
    n_local = len(local_to_global)
    if n_local and (local_to_global.min() < 0 or local_to_global.max() >= graph.num_vertices):
        raise ValueError("vertex id out of range")
    global_to_local = np.full(graph.num_vertices, -1, dtype=np.int64)
    global_to_local[local_to_global] = np.arange(n_local)
    # A repeated id maps back to one of its positions only.
    if np.any(global_to_local[local_to_global] != np.arange(n_local)):
        raise ValueError("duplicate vertex id in vertex_set")

    # Gather the selected rows back to back, then keep each induced edge once,
    # from its lower local end (a neighbor outside the set maps to -1).
    starts = graph.adjacency_offsets[local_to_global]
    degrees = graph.adjacency_offsets[local_to_global + 1] - starts
    gathered_starts = np.cumsum(degrees) - degrees
    positions = np.repeat(starts - gathered_starts, degrees) + np.arange(int(degrees.sum()))
    mapped = global_to_local[graph.adjacency_list[positions]]
    rows = np.repeat(np.arange(n_local), degrees)
    keep = mapped >= rows
    edges = np.column_stack([rows[keep], mapped[keep], graph.edge_weights[positions[keep]]])
    return build_graph(edges, n_local, graph.vertex_weights[local_to_global]), local_to_global


def edge_cut(graph: Graph, partition: Partition) -> int:
    """Total weight of edges whose endpoints lie in different parts (each edge once)."""
    if len(partition.parts) != graph.num_vertices:
        raise ValueError(
            f"partition length {len(partition.parts)} != num_vertices {graph.num_vertices}"
        )
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.adjacency_offsets))
    cut_mask = partition.parts[src] != partition.parts[graph.adjacency_list]
    # Symmetric storage counts every cut edge twice with equal weight.
    return int(graph.edge_weights[cut_mask].sum()) // 2


def balance_stats(sizes: Sequence[int]) -> BalanceStats:
    """Max, min, max/min, and max/average of a vector of positive totals."""
    arr = np.asarray(sizes, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty size vector")
    if arr.min() <= 0:
        raise ValueError("sizes must be positive (ratio undefined otherwise)")
    hi, lo = int(arr.max()), int(arr.min())
    return BalanceStats(hi, lo, hi / lo, hi / (arr.sum() / arr.size))


# ---------------------------------------------------------------------------
# File formats.
#
# Graph file (classic adjacency format): first line "nv ne", then nv lines;
# line i holds the neighbors of vertex i as 1-indexed ids (no weights: every
# edge and vertex reads back with weight 1). Id files (partition, and the
# node ownership file of ``nodes``): one 0-indexed id per line.
# ---------------------------------------------------------------------------


# Writers format and write this many rows (vertices, for a graph) at a time,
# so their memory stays bounded whatever the size of the file.
_BLOCK_ROWS = 4096


def _write_rows(fh, rows: np.ndarray, spec: str) -> None:
    """Write a 2-D array to ``fh``, one line of space-separated values per row.

    ``spec`` is ``%d`` for integers, which formats as ``str(int)``, or ``%r``
    for floats, which formats as ``repr(float)``. Each block of rows is
    formatted by one ``%`` operation.
    """
    line = " ".join([spec] * rows.shape[1]) + "\n"
    for first in range(0, len(rows), _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_graph(graph: Graph, path: str) -> None:
    offsets = graph.adjacency_offsets
    with open(path, "w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for first in range(0, graph.num_vertices, _BLOCK_ROWS):
            bounds = offsets[first:first + _BLOCK_ROWS + 1]
            ids = (graph.adjacency_list[bounds[0]:bounds[-1]] + 1).tolist()
            bounds = (bounds - bounds[0]).tolist()
            lines = [" ".join(map(str, ids[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
            fh.write("\n".join(lines) + "\n")


def read_graph(path: str) -> Graph:
    """Read a graph file (format above) a block of lines at a time, as :func:`read_mesh`
    does. Memory holds one block of lines plus a key ``v * nv + u`` for each neighbor
    ``u`` listed on the line of vertex ``v`` (nv < 2**31 is checked first, so keys fit
    int64). Checked for symmetry here, the keys skip a second check for repeats."""
    with _open_rereadable(path) as fh:
        num_lines, (nv, ne) = _read_header(path, fh, "graph", "num_vertices num_edges")
        if nv < 0 or ne < 0:
            raise FileFormatError(path, 1, f"counts must be >= 0, got {nv} vertices and {ne} edges")
        if num_lines < nv + 1:
            raise FileFormatError(path, num_lines, f"expected {nv} adjacency lines")
        if nv >= 2**31:
            raise ValueError("num_vertices must be less than 2**31")
        listed, first = [np.empty(0, dtype=np.int64)], 0
        for block in _line_blocks(fh, nv):
            counts = [len(line.split()) for line in block]
            sources = np.repeat(np.arange(first, first + len(block)), counts)
            ids = _loadtxt_rows(" ".join(block).split(), np.int64, 1, nv + 1)
            neighbors = None if ids is None else ids[:, 0] - 1
            if neighbors is None or np.any((neighbors < 0) | (neighbors == sources)):
                neighbors = _walk_neighbors(path, block, first, nv)
            listed.append(sources * nv + neighbors)
            first += len(block)
    # Every edge must be listed once from each end: sorted, the keys listed
    # from their lower ends equal those listed from their higher ends, flipped.
    listed = np.concatenate(listed)
    down = listed // nv > listed % nv  # listed from the higher end
    lower, upper = np.sort(listed[~down]), listed[down]
    upper = np.sort(upper % nv * nv + upper // nv)
    if np.any(lower[1:] == lower[:-1]) or not np.array_equal(lower, upper):
        # Name the edge listed first of those not listed once from each end.
        edges = np.where(down, listed % nv * nv + listed // nv, listed)
        once = [np.searchsorted(s, edges, "right") - np.searchsorted(s, edges) == 1
                for s in (lower, upper)]
        a, b = divmod(int(edges[np.argmin(once[0] & once[1])]), nv)
        raise FileFormatError(path, a + 2, f"edge ({a}, {b}) not listed symmetrically")
    if len(lower) != ne:
        raise FileFormatError(path, 1, f"header says {ne} edges, file lists {len(lower)}")
    del listed, down, upper
    return _csr(lower, np.ones_like(lower), nv, np.ones(nv, dtype=np.int64))


def write_partition(partition: Partition, path: str) -> None:
    _write_ids(partition.parts, path)


def _write_ids(ids: np.ndarray, path: str) -> None:
    """Write one id per line, the format :func:`_read_ids` reads back."""
    with open(path, "w") as fh:
        _write_rows(fh, ids.reshape(-1, 1), "%d")


def _loadtxt_rows(lines: list[str], dtype, width: int, bound: int | None = None):
    """``lines`` as a ``(len(lines), width)`` array read by numpy's C text reader, or None.

    The array is returned only when every line is ASCII, the reader raises no
    error and no warning, every line gives one row of ``width`` values and,
    when ``bound`` is given, every value lies in ``[0, bound)``. On ASCII text
    the reader splits lines as ``str.split`` does and converts what it accepts
    to the value ``int`` or ``float`` gives, but it refuses some numbers they
    accept (``1_0``) and skips blank lines. A None sends the caller to its line
    walker, which converts with ``int``/``float`` and names the first bad line.
    """
    if not "".join(lines).isascii():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data", deprecations
        try:
            values = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    in_range = bound is None or not values.size or (values.min() >= 0 and values.max() < bound)
    return values if values.shape == (len(lines), width) and in_range else None


def _open_rereadable(path: str):
    """``path`` opened as text that can be read more than once: a pipe or
    another stream that cannot seek is read into memory whole."""
    fh = open(path)
    if fh.seekable():
        return fh
    with fh:
        return io.StringIO(fh.read())


def _count_lines(fh) -> int:
    """The number of lines in text file ``fh``, as iterating over it splits them;
    ``fh`` is read in chunks and left at its start. The whole file is decoded
    here, before any line is parsed, and a decode error is raised as one read
    of the whole file raises it, at its byte position in the file."""
    count, last = 0, "\n"
    try:
        while chunk := fh.read(64 * _BLOCK_ROWS):  # about 64 characters a line
            count += chunk.count("\n")
            last = chunk[-1]
    except UnicodeDecodeError:
        fh.seek(0)
        fh.read()  # raises the error again, positioned in the whole file
        raise
    fh.seek(0)
    return count + (last != "\n")


def _line_blocks(lines: Iterable[str], count: int) -> Iterator[list[str]]:
    """The next ``count`` items of ``lines`` (an open text file, or a list of its
    lines), in lists of at most ``_BLOCK_ROWS``."""
    lines = iter(lines)
    for first in range(0, count, _BLOCK_ROWS):
        yield list(itertools.islice(lines, min(_BLOCK_ROWS, count - first)))


def _read_header(path: str, fh, kind: str, fields: str) -> tuple[int, list[int]]:
    """The line count of text file ``fh`` and the ints on its first line, one
    per name in ``fields``; ``kind`` names the file when it is empty."""
    num_lines = _count_lines(fh)
    if not num_lines:
        raise FileFormatError(path, 1, f"empty {kind} file")
    head = fh.readline().split()
    try:
        if len(head) == len(fields.split()):
            return num_lines, [int(t) for t in head]
    except ValueError:
        pass
    raise FileFormatError(path, 1, f"expected '{fields}'")


def _walk_neighbors(path: str, block: list[str], first: int, nv: int) -> np.ndarray:
    """The 0-indexed neighbors listed on the adjacency lines in ``block``, the
    first of vertex ``first``, converted by ``int``, or the error that names
    the first bad one. This walks a block :func:`_loadtxt_rows` refuses, or
    that lists an id out of range or a self-loop."""
    neighbors = []
    for v, line in enumerate(block, start=first):
        for token in line.split():
            try:
                u = int(token) - 1
            except ValueError:
                raise FileFormatError(path, v + 2, f"bad neighbor id {token!r}") from None
            if not (0 <= u < nv):
                raise FileFormatError(path, v + 2, f"neighbor id {u + 1} out of range")
            if u == v:
                raise FileFormatError(path, v + 2, f"self-loop at vertex {v}")
            neighbors.append(u)
    return np.array(neighbors, dtype=np.int64)


def _read_ids(path: str, kind: str, what: str) -> np.ndarray:
    """The ids of a one-id-per-line file, blank lines skipped.

    Lines are split as iterating over the file splits them, and each line is
    stripped before ``int`` converts it. An id lies from 0 up to the number
    of ids in the file, inclusive, so that arrays sized by the largest id
    stay proportional to the file. ``kind`` names the file and ``what`` its
    ids in error messages.

    The file is read a block of ``_BLOCK_ROWS`` lines at a time, after a
    first pass that counts its lines, so memory holds one block of lines
    plus the ids returned. Each block's lines go through
    :func:`_loadtxt_rows` as they are, which a file of one id per line passes
    at the cost of one read. Once it refuses a block (a blank line makes it
    refuse one), later blocks are only searched for blank lines, to count the
    ids, and the file is read again: each block's stripped ids go through
    :func:`_loadtxt_rows`, and a block it refuses then is walked line by
    line, to convert its ids with ``int`` or name the first bad line.
    """
    with _open_rereadable(path) as fh:
        num_lines = _count_lines(fh)
        ids = np.empty(num_lines, dtype=np.int64)
        filled, blank, refused = 0, 0, False
        for block in _line_blocks(fh, num_lines):
            rows = None if refused else _loadtxt_rows(block, np.int64, 1, num_lines + 1)
            if rows is None:
                refused = True
                blank += sum(map(str.isspace, block))
            else:
                ids[filled:filled + len(block)] = rows.reshape(-1)
                filled += len(block)
        if num_lines and not refused:
            return ids
        count = num_lines - blank
        if not count:
            raise FileFormatError(path, 1, f"empty {kind} file")
        fh.seek(0)
        ids = np.empty(count, dtype=np.int64)
        lineno = filled = 0
        for block in _line_blocks(fh, num_lines):
            tokens = [token for token in map(str.strip, block) if token]
            rows = _loadtxt_rows(tokens, np.int64, 1, count + 1)
            if rows is None:
                numbered = enumerate(map(str.strip, block), start=lineno + 1)
                rows = [_id_value(path, i, token, count, what) for i, token in numbered if token]
            ids[filled:filled + len(tokens)] = np.reshape(rows, -1)
            lineno += len(block)
            filled += len(tokens)
    return ids


def _id_value(path: str, lineno: int, token: str, count: int, what: str) -> int:
    """The id on line ``lineno``, converted by ``int``, or the error that names it."""
    try:
        value = int(token)
    except ValueError:
        raise FileFormatError(path, lineno, f"bad {what} id {token!r}") from None
    if value < 0:
        raise FileFormatError(path, lineno, f"negative {what} id {value}")
    if value >= 2**63:
        raise FileFormatError(path, lineno, f"{what} id {value} does not fit in 64 bits")
    if value > count:
        raise FileFormatError(
            path, lineno, f"{what} id {value} exceeds the file's id count {count}"
        )
    return value


def read_partition(path: str) -> Partition:
    parts = _read_ids(path, "partition", "part")
    return Partition(parts, int(parts.max()) + 1)
