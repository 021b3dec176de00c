"""Weighted undirected graphs in compressed-adjacency form, plus partition metrics.

Graphs are immutable after construction and safe to share between threads.
Vertex and edge weights are positive integers so that all balance arithmetic
stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import FileFormatError

__all__ = [
    "Graph",
    "Partition",
    "BalanceStats",
    "PartMetrics",
    "build_graph",
    "extract_subgraph",
    "edge_cut",
    "per_rank_metrics",
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
    stored once per direction with equal weight.
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

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjacency_list[self.adjacency_offsets[v]:self.adjacency_offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.edge_weights[self.adjacency_offsets[v]:self.adjacency_offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.adjacency_offsets[v + 1] - self.adjacency_offsets[v])

    def validate(self) -> None:
        """Full structural check: symmetry, no self-loops, no duplicate neighbors.

        O(E log E); intended for tests and file ingestion, not hot paths.
        """
        if np.any(self.vertex_weights < 1) or np.any(self.edge_weights < 1):
            raise ValueError("weights must be positive integers")
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

    def __len__(self) -> int:
        return len(self.parts)


@dataclass
class BalanceStats:
    max: int
    min: int
    max_over_min: float
    max_over_avg: float


@dataclass
class PartMetrics:
    vertex_count: int
    boundary_edge_count: int


def build_graph(
    edge_list: Iterable[tuple[int, int, int]] | np.ndarray,
    num_vertices: int,
    vertex_weights: Sequence[int] | None = None,
) -> Graph:
    """Build a symmetric compressed-adjacency graph from an undirected edge list.

    Each entry is ``(u, v, weight)`` with ``u != v``; an ``(m, 3)`` integer
    array is accepted as well. Duplicate edges (in either orientation),
    self-loops, out-of-range ids, and non-positive weights are rejected with
    ValueError, naming the first bad edge in input order.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
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
    u, v, w = edges.T
    _check_edges(u, v, w, num_vertices)

    # Each edge is stored from both ends; sorting by (source, neighbor) makes
    # every adjacency run ascending, so traversal order is canonical.
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    return Graph(offsets, dst[order], np.concatenate([w, w])[order], vwgt)


def _check_edges(u: np.ndarray, v: np.ndarray, w: np.ndarray, num_vertices: int) -> None:
    """Raise for the first bad edge in input order.

    Each edge is checked for a self-loop, then range, then weight, then for
    repeating an earlier edge in either orientation.
    """
    m = len(u)
    bad = (u == v) | (u < 0) | (u >= num_vertices) | (v < 0) | (v >= num_vertices) | (w < 1)
    first_bad = int(np.argmax(bad)) if bad.any() else m
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # stable: a key's first occurrence leads its run
    same = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    repeats = order[1:][same]
    first_repeat = int(repeats.min()) if len(repeats) else m
    # Every edge before first_bad is valid, so a repeat there repeats a valid edge.
    i = min(first_bad, first_repeat)
    if i == m:
        return
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

    Each local adjacency run keeps the order of the global one. Returns the
    subgraph and the local-to-global id map.
    """
    local_to_global = np.asarray(vertex_set, dtype=np.int64)
    n_local = len(local_to_global)
    if n_local and (local_to_global.min() < 0 or local_to_global.max() >= graph.num_vertices):
        raise ValueError("vertex id out of range")
    if len(np.unique(local_to_global)) != n_local:
        raise ValueError("duplicate vertex id in vertex_set")

    global_to_local = np.full(graph.num_vertices, -1, dtype=np.int64)
    global_to_local[local_to_global] = np.arange(n_local)

    # Gather the selected rows back to back, then drop neighbors outside the set.
    starts = graph.adjacency_offsets[local_to_global]
    degrees = graph.adjacency_offsets[local_to_global + 1] - starts
    gathered_starts = np.cumsum(degrees) - degrees
    positions = np.repeat(starts - gathered_starts, degrees) + np.arange(int(degrees.sum()))
    mapped = global_to_local[graph.adjacency_list[positions]]
    keep = mapped >= 0
    rows = np.repeat(np.arange(n_local), degrees)[keep]
    offsets = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_local), out=offsets[1:])
    sub = Graph(
        offsets,
        mapped[keep],
        graph.edge_weights[positions[keep]],
        graph.vertex_weights[local_to_global],
    )
    return sub, local_to_global


def _check_partition(graph: Graph, partition: Partition) -> None:
    if len(partition.parts) != graph.num_vertices:
        raise ValueError(
            f"partition length {len(partition.parts)} != num_vertices {graph.num_vertices}"
        )


def edge_cut(graph: Graph, partition: Partition) -> int:
    """Total weight of edges whose endpoints lie in different parts (each edge once)."""
    _check_partition(graph, partition)
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.adjacency_offsets))
    cut_mask = partition.parts[src] != partition.parts[graph.adjacency_list]
    # Symmetric storage counts every cut edge twice with equal weight.
    return int(graph.edge_weights[cut_mask].sum()) // 2


def per_rank_metrics(graph: Graph, partition: Partition) -> list[PartMetrics]:
    """Per-part vertex counts and boundary-edge tallies.

    A cut edge is tallied once for each of its two incident parts, so the
    tallies sum to twice the number of cut edges.
    """
    _check_partition(graph, partition)
    sizes = partition.part_sizes()
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.adjacency_offsets))
    cut_mask = partition.parts[src] != partition.parts[graph.adjacency_list]
    boundary = np.bincount(partition.parts[src[cut_mask]], minlength=partition.num_parts)
    return [PartMetrics(int(s), int(b)) for s, b in zip(sizes, boundary)]


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


def write_graph(graph: Graph, path: str) -> None:
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    for v in range(graph.num_vertices):
        lines.append(" ".join(str(int(u) + 1) for u in graph.neighbors(v)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path: str) -> Graph:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FileFormatError(path, 1, "empty graph file")
    head = raw[0].split()
    if len(head) != 2:
        raise FileFormatError(path, 1, "expected 'num_vertices num_edges'")
    try:
        nv, ne = int(head[0]), int(head[1])
    except ValueError:
        raise FileFormatError(path, 1, "expected 'num_vertices num_edges'") from None
    if nv < 0 or ne < 0:
        raise FileFormatError(path, 1, f"counts must be >= 0, got {nv} vertices and {ne} edges")
    if len(raw) < nv + 1:
        raise FileFormatError(path, len(raw), f"expected {nv} adjacency lines")

    pair_count: dict[tuple[int, int], int] = {}
    for v in range(nv):
        lineno = v + 2
        for token in raw[v + 1].split():
            try:
                u = int(token) - 1
            except ValueError:
                raise FileFormatError(path, lineno, f"bad neighbor id {token!r}") from None
            if not (0 <= u < nv):
                raise FileFormatError(path, lineno, f"neighbor id {u + 1} out of range")
            if u == v:
                raise FileFormatError(path, lineno, f"self-loop at vertex {v}")
            key = (v, u) if v < u else (u, v)
            pair_count[key] = pair_count.get(key, 0) + 1
    for (a, b), count in pair_count.items():
        if count != 2:
            raise FileFormatError(path, a + 2, f"edge ({a}, {b}) not listed symmetrically")
    if len(pair_count) != ne:
        raise FileFormatError(path, 1, f"header says {ne} edges, file lists {len(pair_count)}")
    return build_graph([(a, b, 1) for a, b in sorted(pair_count)], nv)


def write_partition(partition: Partition, path: str) -> None:
    _write_ids(partition.parts, path)


def _write_ids(ids: np.ndarray, path: str) -> None:
    """Write one id per line, the format :func:`_read_ids` reads back."""
    text = "\n".join(map(str, ids.tolist()))
    with open(path, "w") as fh:
        fh.write(text + "\n" if text else "")


def _read_ids(path: str, kind: str, what: str) -> np.ndarray:
    """The ids of a one-id-per-line file, blank lines skipped.

    Lines are split as iterating over the file splits them, and each line is
    stripped before ``int`` converts it. An id lies from 0 up to the number
    of ids in the file, inclusive, so that arrays sized by the largest id
    stay proportional to the file. The whole file is converted in one pass; only
    a file that fails is walked line by line to name its first bad line.
    ``kind`` names the file and ``what`` its ids in error messages.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    tokens = [token for token in map(str.strip, lines) if token]
    try:
        ids = np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):  # OverflowError: an id past int64
        ids = None
    if ids is None or (len(ids) and (ids.min() < 0 or ids.max() > len(ids))):
        for lineno, line in enumerate(lines, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                raise FileFormatError(path, lineno, f"bad {what} id {token!r}") from None
            if value < 0:
                raise FileFormatError(path, lineno, f"negative {what} id {value}")
            if value >= 2**63:
                raise FileFormatError(path, lineno, f"{what} id {value} does not fit in 64 bits")
            if value > len(tokens):
                raise FileFormatError(
                    path, lineno, f"{what} id {value} exceeds the file's id count {len(tokens)}"
                )
    if not len(ids):
        raise FileFormatError(path, 1, f"empty {kind} file")
    return ids


def read_partition(path: str) -> Partition:
    parts = _read_ids(path, "partition", "part")
    return Partition(parts, int(parts.max()) + 1)
