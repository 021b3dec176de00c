"""Multilevel k-way graph partitioner with non-uniform target part weights.

The pipeline is the classic V-cycle: heavy-edge matching coarsens the graph
until it is small, a greedy graph-growing pass bisects the coarsest level, and
the bisection is projected back up with Fiduccia–Mattheyses refinement at
every level. Refinement, rebalancing and count repair all move vertices through
one exact gain-heap engine, whose select-and-move step is the only move loop.
k-way output comes from recursive bisection over a split of the target-weight
vector.

Everything here is deterministic for a fixed seed. Independent branches (the
two halves of a bisection, and the callers' per-group and per-pair loops) may
run side by side in forked workers, but no branch's seed or input depends on
that schedule, so outputs do not either.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import pickle
import random
import signal
import threading
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import InfeasibleError
from .graph import Graph, Partition, build_graph, edge_cut, extract_subgraph

__all__ = [
    "TargetWeights",
    "CoarseningLevel",
    "BalanceWindowWarning",
    "derive_seed",
    "heavy_edge_match",
    "coarsen",
    "initial_bisection",
    "fm_refine",
    "partition_kway",
]

_MASK64 = (1 << 64) - 1

# Coarsening stops once the graph is this small, or when a level shrinks it by
# less than 10%.
_COARSEST_SIZE = 40
_MIN_SHRINK = 0.10


_T = TypeVar("_T")
_U = TypeVar("_U")

# CPUs this process may still hand to forked workers. Each fork spends one and
# splits the rest between parent and child; 0 runs everything inline.
_spare_cpus = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) - 1

# Lane weight (vertices or interface nodes) below which _fork_map runs inline:
# a fork/pipe/reap costs about 5 ms on a 2-vCPU host, and 4-part cuts with
# lanes of up to 200 vertices ran faster inline than forked.
_MIN_FORK_WEIGHT = 128


class BalanceWindowWarning(UserWarning):
    """Refinement was asked for a balance window its input already violates."""


def derive_seed(seed: int, *salts: int) -> int:
    """Mix extra integers into a seed (splitmix64 steps); deterministic."""
    x = seed & _MASK64
    for s in salts:
        x = (x + 0x9E3779B97F4A7C15 + (s & _MASK64)) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x


@dataclass(eq=False)
class TargetWeights:
    """Per-part target weight fractions; positive and summing to 1."""

    fractions: np.ndarray

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        if self.fractions.ndim != 1 or len(self.fractions) == 0:
            raise ValueError("fractions must be a non-empty vector")
        if not np.isfinite(self.fractions).all():
            raise ValueError("target fractions must be finite")
        if self.fractions.min() <= 0:
            raise ValueError("all target fractions must be positive")
        if abs(float(self.fractions.sum()) - 1.0) > 1e-12:
            raise ValueError("target fractions must sum to 1")

    @classmethod
    def uniform(cls, k: int) -> "TargetWeights":
        if k < 1:
            raise ValueError("k must be >= 1")
        return cls(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return len(self.fractions)


@dataclass(eq=False)
class CoarseningLevel:
    """One coarsening step: the coarse graph plus the fine-to-coarse map."""

    graph: Graph
    projection: np.ndarray  # per-fine-vertex coarse vertex id

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.int64)


def heavy_edge_match(g: Graph, seed: int, order: Sequence[int] | None = None) -> np.ndarray:
    """Greedy heavy-edge matching; returns per-vertex mate (self if unmatched).

    Vertices are visited in a seeded random order (or the explicit ``order``);
    each still-unmatched vertex pairs with its unmatched neighbor of maximum
    edge weight, ties going to the lowest neighbor id.
    """
    nv = g.num_vertices
    if order is None:
        visit = list(range(nv))
        random.Random(seed).shuffle(visit)
    else:
        visit = [int(v) for v in order]
        if any(not 0 <= v < nv for v in visit):
            raise ValueError(f"order holds a vertex id outside [0, {nv})")
    # Sequential by contract (the visit order decides the matching), so it
    # walks Python lists taken once from the CSR arrays.
    offsets = g.adjacency_offsets.tolist()
    adjacency = g.adjacency_list.tolist()
    weights = g.edge_weights.tolist()
    mates = list(range(nv))
    for v in visit:
        if mates[v] != v:
            continue
        best = -1
        best_w = 0
        lo, hi = offsets[v], offsets[v + 1]
        for u, w in zip(adjacency[lo:hi], weights[lo:hi]):
            if mates[u] != u or u == v:
                continue
            if w > best_w or (w == best_w and (best == -1 or u < best)):
                best, best_w = u, w
        if best >= 0:
            mates[v] = best
            mates[best] = v
    return np.array(mates, dtype=np.int64)


def coarsen(g: Graph, mates: Sequence[int]) -> CoarseningLevel:
    """Contract matched pairs into single vertices, aggregating weights.

    Coarse vertex ids follow fine id order of each pair's representative (the
    smaller endpoint), so an empty matching reproduces the input graph.
    """
    mates = np.asarray(mates, dtype=np.int64)
    nv = g.num_vertices
    if len(mates) != nv:
        raise ValueError("mates length must equal num_vertices")
    if nv and (mates.min() < 0 or mates.max() >= nv):
        raise ValueError("mate id out of range")
    ids = np.arange(nv)
    if np.any(mates[mates] != ids):
        raise ValueError("matching is not symmetric")

    representative = ids <= mates
    next_id = int(representative.sum())
    projection = (np.cumsum(representative) - 1)[np.minimum(ids, mates)]

    coarse_vwgt = np.bincount(projection, weights=g.vertex_weights, minlength=next_id).astype(
        np.int64
    )
    # Each undirected fine edge contributes once (cu < cv); parallel edges
    # between the same coarse pair merge by summing their weights.
    src = np.repeat(ids, np.diff(g.adjacency_offsets))
    cu, cv = projection[src], projection[g.adjacency_list]
    forward = cu < cv
    keys, inverse = np.unique(cu[forward] * next_id + cv[forward], return_inverse=True)
    merged = np.bincount(inverse, weights=g.edge_weights[forward], minlength=len(keys))
    edges = np.column_stack([keys // next_id, keys % next_id, merged.astype(np.int64)])
    return CoarseningLevel(build_graph(edges, next_id, coarse_vwgt), projection)


def initial_bisection(
    g: Graph, target_fraction: float, seed: int, start: int | None = None
) -> Partition:
    """Bisect by growing a breadth-first region until it holds the target weight.

    Growth begins at a seeded random vertex (or ``start``), absorbs vertices in
    BFS order (neighbors by ascending id), jumps to the lowest-id unreached
    vertex when a component is exhausted, and stops as soon as the accumulated
    vertex weight reaches ``target_fraction`` of the total. The grown region is
    part 0.
    """
    nv = g.num_vertices
    if nv == 0:
        raise ValueError("cannot bisect an empty graph")
    if not (0.0 < target_fraction < 1.0):
        raise ValueError("target_fraction must lie in (0, 1)")
    if start is None:
        start = random.Random(seed).randrange(nv)
    elif not 0 <= start < nv:
        raise ValueError(f"start vertex {start} is outside [0, {nv})")
    threshold = target_fraction * g.total_vertex_weight

    parts = np.ones(nv, dtype=np.int64)
    in_region = np.zeros(nv, dtype=bool)
    queue: deque[int] = deque()
    acc = 0
    next_unvisited = 0

    def absorb(v: int) -> int:
        nonlocal acc
        in_region[v] = True
        parts[v] = 0
        queue.append(v)
        acc += int(g.vertex_weights[v])
        return acc

    if absorb(int(start)) >= threshold:
        return Partition(parts, 2)
    while True:
        if not queue:
            while next_unvisited < nv and in_region[next_unvisited]:
                next_unvisited += 1
            if next_unvisited >= nv:
                break
            if absorb(next_unvisited) >= threshold:
                break
            continue
        v = queue.popleft()
        done = False
        for u in g.neighbors(v):
            if not in_region[u]:
                if absorb(int(u)) >= threshold:
                    done = True
                    break
        if done:
            break
    return Partition(parts, 2)


def _compute_gains(g: Graph, parts: np.ndarray) -> np.ndarray:
    """Cut reduction achieved by moving each vertex to the other side."""
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.adjacency_offsets))
    signed = np.where(parts[src] != parts[g.adjacency_list], g.edge_weights, -g.edge_weights)
    return np.bincount(src, weights=signed, minlength=g.num_vertices).astype(np.int64)


class _GainHeaps:
    """Exact best-move selection for two-way refinement and repair.

    Vertices sit in one lazy-deletion min-heap per (side, vertex weight)
    class. An entry is the integer key ``-gain * n + id`` with
    ``n = max(1, num_vertices)``; since ``0 <= id < n`` the keys order exactly
    as ``(-gain, id)`` would, so the smallest live key over a set of classes is
    the highest-gain move among them, ties going to the lowest id. A key
    decodes as ``id = key % n`` and ``gain = -(key // n)``. An entry is live
    while its vertex is still on that side with that gain: every gain or side
    change pushes a fresh key, and stale ones are popped when they surface.

    :attr:`heaps` maps each ``(side, weight)`` class to a ``(side, heap)``
    pair. The callers' balance rules depend only on a vertex's side and
    weight, so they admit or reject whole classes by passing a list of these
    pairs to :meth:`step`, which moves the best admitted vertex; no move scans
    the vertices. :meth:`load` refills the heap lists in place, so a list of
    admitted pairs stays valid across loads and a caller may cache it. Gain
    updates walk a per-vertex ``(neighbour, 2 * edge weight)`` list, built at
    the vertex's first move and kept for the engine's life (rebalancing moves
    few vertices, so it builds few): O(degree · log n) per move.

    The graph must be simple (no self-loops, no repeated neighbours), as
    :meth:`Graph.validate` requires.
    """

    def __init__(self, g: Graph):
        self._graph = g
        self._n = max(1, g.num_vertices)
        self._offsets = g.adjacency_offsets.tolist()
        self._adjacency = g.adjacency_list.tolist()
        self._double_weights = (2 * g.edge_weights).tolist()
        self._neighbours: list[list[tuple[int, int]] | None] = [None] * g.num_vertices
        self.weights = g.vertex_weights.tolist()
        self.classes = sorted(set(self.weights))
        self.heaps = {(s, w): (s, []) for s in (0, 1) for w in self.classes}
        # Per side, each vertex's heap in that side's class for its weight.
        self._homes = tuple(
            list(map({w: self.heaps[s, w][1] for w in self.classes}.__getitem__, self.weights))
            for s in (0, 1)
        )

    def load(self, parts: np.ndarray) -> None:
        """Start over from ``parts``: gains from scratch, every vertex unlocked.

        The heap lists are refilled in place, never replaced.
        """
        gains = _compute_gains(self._graph, parts)
        self.parts = parts.tolist()
        self.gains = gains.tolist()
        self._locked = [False] * len(self.parts)
        # Sorted by (side, weight, -gain, id), each class is one run, and a
        # sorted run is already a heap. lexsort is stable, so ties keep id order.
        vw = self._graph.vertex_weights
        order = np.lexsort((-gains, vw, parts))
        side, weight = parts[order], vw[order]
        ids, sorted_gains, n = order, gains[order], self._n
        if len(gains) and n * (int(np.abs(gains).max()) + 1) >= 2**63:
            # Keys past int64: build them as Python ints.
            ids, sorted_gains = ids.astype(object), sorted_gains.astype(object)
        keys = (ids - sorted_gains * n).tolist()
        starts = np.flatnonzero((np.diff(side) != 0) | (np.diff(weight) != 0)) + 1
        for _, heap in self.heaps.values():
            heap.clear()
        bounds = [0, *starts.tolist(), len(keys)] if keys else []
        for lo, hi in zip(bounds, bounds[1:]):
            self.heaps[int(side[lo]), int(weight[lo])][1].extend(keys[lo:hi])

    def step(self, cands: Iterable[tuple[int, list[int]]], lock: bool = False) -> int:
        """Move the best vertex among the ``(side, heap)`` pairs ``cands``.

        The highest-gain live vertex (tie: lowest id) flips to the other side,
        the gains around it are updated, and its id is returned; -1 means the
        candidates held no live entry and nothing moved. A locked vertex gets no
        heap entries until the next :meth:`load`, so it cannot be picked
        again; its old entries are stale by side.
        """
        n, parts, gains, heappop = self._n, self.parts, self.gains, heapq.heappop
        top = -1
        for side, heap in cands:
            while heap:
                key = heap[0]
                v = key % n
                if parts[v] == side and key == v - gains[v] * n:
                    if top < 0 or key < best:
                        top, best = v, key
                    break
                heappop(heap)
        if top < 0:
            return -1
        v, locked, heappush = top, self._locked, heapq.heappush
        side = parts[v] ^ 1
        parts[v] = side
        gain = gains[v] = -gains[v]
        beside, behind = self._homes[side], self._homes[side ^ 1]
        if lock:
            locked[v] = True
        else:
            heappush(beside[v], v - gain * n)
        neighbours = self._neighbours[v]
        if neighbours is None:
            lo, hi = self._offsets[v], self._offsets[v + 1]
            neighbours = self._neighbours[v] = list(
                zip(self._adjacency[lo:hi], self._double_weights[lo:hi])
            )
        for u, dw in neighbours:
            # The edge to v flips internal<->external: a neighbour now beside
            # v loses the incentive to move (the edge would re-cut), one left
            # behind gains it.
            if parts[u] == side:
                gain = gains[u] = gains[u] - dw
                home = beside[u]
            else:
                gain = gains[u] = gains[u] + dw
                home = behind[u]
            if not locked[u]:
                heappush(home, u - gain * n)
        return v


def fm_refine(
    g: Graph,
    p: Partition,
    target_fraction: float,
    imbalance_tol: float,
    max_passes: int = 10,
) -> Partition:
    """Fiduccia–Mattheyses refinement of a 2-part partition.

    Each pass builds a sequence of single-vertex moves (every vertex at most
    once; each move keeps part 0's weight within ``imbalance_tol`` of target).
    Every vertex not yet moved in the pass whose weight fits the window is a
    candidate, not only boundary vertices; the highest-gain candidate moves
    (tie: lower vertex id). Each move is one :meth:`_GainHeaps.step` over the
    (side, weight) heap classes that the current part 0 weight admits; the
    admitted classes are cached per part 0 weight for the whole call. The
    pass then rolls back to the best prefix — lowest cut, then smallest
    weight deviation, then shortest. Passes repeat until the cut stops
    improving or ``max_passes`` is reached. The returned cut never exceeds
    the input cut.

    If the input itself sits outside the balance window, it is returned
    unchanged and a :class:`BalanceWindowWarning` is emitted.
    """
    if p.num_parts != 2:
        raise ValueError("fm_refine expects a 2-part partition")
    if len(p.parts) != g.num_vertices:
        raise ValueError("partition length mismatch")
    vw = g.vertex_weights
    total = g.total_vertex_weight
    target = target_fraction * total
    window = imbalance_tol * total
    eps = 1e-9 * max(1.0, total)

    parts = p.parts.copy()
    w0 = int(vw[parts == 0].sum())
    if abs(w0 - target) > window + eps:
        warnings.warn(
            f"balance window ±{window:.3g} around {target:.3g} excludes the input "
            f"(part 0 weight {w0}); returning it unchanged",
            BalanceWindowWarning,
            stacklevel=2,
        )
        return Partition(parts, 2)

    heaps = _GainHeaps(g)
    weights, classes, by_class = heaps.weights, heaps.classes, heaps.heaps
    limit = window + eps
    # Moving a vertex off side 0 shifts w0 by -w; off side 1 by +w. Whether
    # that stays in the window depends only on the side, the weight and w0,
    # so the admitted classes are worked out once per w0 for the whole call.
    admitted: dict[int, list[tuple[int, list[int]]]] = {}
    cut = edge_cut(g, Partition(parts, 2))
    for _ in range(max_passes):
        pass_start_cut = cut
        heaps.load(parts)
        side_of, gains = heaps.parts, heaps.gains
        trail: list[int] = []
        cur_cut, cur_w0 = cut, w0
        best_cut, best_dev, best_len = cut, abs(w0 - target), 0
        while True:
            cands = admitted.get(cur_w0)
            if cands is None:
                cands = admitted[cur_w0] = [
                    by_class[0, w] for w in classes if abs((cur_w0 - w) - target) <= limit
                ] + [by_class[1, w] for w in classes if abs((cur_w0 + w) - target) <= limit]
            v = heaps.step(cands, lock=True)
            if v < 0:
                break
            cur_cut += gains[v]  # the move negated v's gain: the cut fell by the old one
            cur_w0 += weights[v] if side_of[v] == 0 else -weights[v]
            trail.append(v)
            # Best prefix: lowest cut, then smallest deviation, then shortest.
            if cur_cut <= best_cut:
                dev = abs(cur_w0 - target)
                if cur_cut < best_cut or dev < best_dev:
                    best_cut, best_dev, best_len = cur_cut, dev, len(trail)
        for v in reversed(trail[best_len:]):  # roll back past the best prefix
            side_of[v] ^= 1
        parts = np.array(side_of, dtype=np.int64)
        cut = best_cut
        w0 = int(vw[parts == 0].sum())
        if cut >= pass_start_cut:
            break
    return Partition(parts, 2)


def _rebalance(
    g: Graph, parts: np.ndarray, target_fraction: float
) -> np.ndarray:
    """Greedily move vertices from the heavy side while deviation strictly drops.

    Among moves that strictly reduce |part0 weight − target|, the highest-gain
    one wins (tie: lower id). Used after projecting a coarse bisection to a
    finer level, where weight granularity can leave the window overshot.
    """
    heaps = _GainHeaps(g)
    heaps.load(parts)
    target = target_fraction * g.total_vertex_weight
    w0 = int(g.vertex_weights[parts == 0].sum())
    while True:
        dev = abs(w0 - target)
        heavy = 0 if w0 > target else 1
        v = heaps.step([heaps.heaps[heavy, w] for w in heaps.classes if w < 2 * dev])
        if v < 0:
            break
        w0 += heaps.weights[v] if heavy == 1 else -heaps.weights[v]
    parts[:] = heaps.parts
    return parts


def _repair_counts(
    g: Graph, parts: np.ndarray, min_counts: tuple[int, int]
) -> np.ndarray:
    """Move best-gain vertices into whichever side falls short of its minimum."""
    counts = [int((parts == 0).sum()), int((parts == 1).sum())]
    if counts[0] >= min_counts[0] and counts[1] >= min_counts[1]:
        return parts
    heaps = _GainHeaps(g)
    heaps.load(parts)
    for side in (0, 1):
        other = 1 - side
        donors = [heaps.heaps[other, w] for w in heaps.classes]
        while counts[side] < min_counts[side]:
            heaps.step(donors)
            counts[side] += 1
            counts[other] -= 1
    parts[:] = heaps.parts
    return parts


def _coarsening_chain(g: Graph, seed: int) -> list[CoarseningLevel]:
    """Repeated heavy-edge contraction until small or shrinking stalls."""
    chain: list[CoarseningLevel] = []
    current = g
    level = 0
    while current.num_vertices > _COARSEST_SIZE:
        mates = heavy_edge_match(current, derive_seed(seed, 1, level))
        step = coarsen(current, mates)
        if step.graph.num_vertices > (1.0 - _MIN_SHRINK) * current.num_vertices:
            break
        chain.append(step)
        current = step.graph
        level += 1
    return chain


def _refine_level(g: Graph, parts: np.ndarray, target_fraction: float, tol: float) -> np.ndarray:
    """One V-cycle refinement step: rebalance, then FM in a window that admits the result.

    FM goes through the module-level name ``fm_refine``, once per coarsest
    start and once per level, because an outside-in tracer counts the calls
    by rebinding that name.
    """
    parts = _rebalance(g, parts, target_fraction)
    total = g.total_vertex_weight
    dev = abs(int(g.vertex_weights[parts == 0].sum()) - target_fraction * total)
    effective = max(tol, dev / total + 1e-12)
    return fm_refine(g, Partition(parts, 2), target_fraction, effective).parts


def _multilevel_bisect(
    g: Graph,
    target_fraction: float,
    tol: float,
    seed: int,
    min_counts: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Full V-cycle bisection honoring per-side minimum vertex counts; returns part ids."""
    chain = _coarsening_chain(g, seed)
    coarsest = chain[-1].graph if chain else g

    best_key: tuple[int, float] | None = None
    target = target_fraction * coarsest.total_vertex_weight
    nvc = coarsest.num_vertices
    # One seeded start plus fixed spread starts: cheap insurance against a
    # growth front that strands the small side of a lopsided target.
    seeded = random.Random(derive_seed(seed, 2)).randrange(nvc)
    for start in dict.fromkeys((seeded, 0, nvc - 1, nvc // 2)):
        cand = initial_bisection(coarsest, target_fraction, seed, start=start).parts
        if cand.min() == cand.max():  # growth swallowed everything; peel one back
            cand[np.argmax(coarsest.vertex_weights == coarsest.vertex_weights.min())] = 1
        cand = _refine_level(coarsest, cand, target_fraction, tol)
        key = (
            edge_cut(coarsest, Partition(cand, 2)),
            abs(float(coarsest.vertex_weights[cand == 0].sum()) - target),
        )
        if best_key is None or key < best_key:
            best_key, parts = key, cand

    for idx in range(len(chain) - 1, -1, -1):
        fine = g if idx == 0 else chain[idx - 1].graph
        parts = _refine_level(fine, parts[chain[idx].projection], target_fraction, tol)
    return _repair_counts(g, parts, min_counts)


def partition_kway(
    g: Graph,
    k: int,
    w: TargetWeights,
    seed: int,
    imbalance_tol: float = 0.03,
    min_part_counts: Sequence[int] | None = None,
) -> Partition:
    """Partition into k parts with target weight fractions ``w``.

    Recursive bisection: the first ⌈k/2⌉ target fractions go to the left
    branch, so part ids follow the weight-vector order. Every part is
    guaranteed nonempty (``min_part_counts`` raises the floor per part when a
    caller needs more than one vertex in specific parts).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(w) != k:
        raise ValueError(f"expected {k} target fractions, got {len(w)}")
    if k > g.num_vertices:
        raise InfeasibleError(f"cannot cut {g.num_vertices} vertices into {k} nonempty parts")
    if min_part_counts is None:
        mins = np.ones(k, dtype=np.int64)
    else:
        mins = np.asarray(min_part_counts, dtype=np.int64)
        if len(mins) != k or mins.min() < 1:
            raise ValueError("min_part_counts must give a positive count per part")
    if int(mins.sum()) > g.num_vertices:
        raise InfeasibleError("minimum part counts exceed the vertex count")
    depth = max(1, math.ceil(math.log2(k)))
    return Partition(_recurse(g, w.fractions, mins, seed, imbalance_tol / depth), k)


def _recurse(
    g: Graph, fractions: np.ndarray, mins: np.ndarray, seed: int, tol: float
) -> np.ndarray:
    """Part ids ``0 .. len(fractions) - 1`` of ``g``'s vertices, by recursive bisection."""
    k = len(fractions)
    if k == 1:
        return np.zeros(g.num_vertices, dtype=np.int64)
    mid = (k + 1) // 2
    left_fraction = float(fractions[:mid].sum() / fractions.sum())
    min_counts = (int(mins[:mid].sum()), int(mins[mid:].sum()))
    sides = _multilevel_bisect(g, left_fraction, tol, seed, min_counts)
    # A one-part half is labelled as it stands (0 left, mid right); only the
    # halves that split again are extracted, side by side when both do.
    parts = sides * mid
    halves = [
        (side, np.flatnonzero(sides == side), span)
        for side, span in ((0, slice(None, mid)), (1, slice(mid, None)))
        if len(fractions[span]) > 1
    ]

    def half(item: tuple[int, np.ndarray, slice]) -> np.ndarray:
        side, ids, span = item
        sub, _ = extract_subgraph(g, ids)
        return _recurse(sub, fractions[span], mins[span], derive_seed(seed, 3 + side), tol)

    for (_, ids, _), sub_parts in zip(halves, _fork_map(half, halves, [len(h[1]) for h in halves])):
        parts[ids] += sub_parts
    return parts


def _fork_map(fn: Callable[[_T], _U], items: Sequence[_T], weights: Sequence[int]) -> list[_U]:
    """``[fn(x) for x in items]``, cut into two lanes of about equal total weight
    that run side by side: the first in a forked child, the second in the caller.

    Each lane is cut the same way again while a CPU is spare. The child pickles
    its lane's results, or the exception it raised, into a pipe and leaves
    through ``os._exit``. The parent runs its own lane meanwhile, then reads
    the pipe; it reaps the child on every path, and kills it first if its own
    lane raises. Each fork spends one spare CPU and splits the rest between
    the two sides. Everything runs inline, in item order, when either lane
    would weigh less than ``_MIN_FORK_WEIGHT``, without a spare CPU, without
    ``os.fork``, while other Python threads run (they may hold locks the
    child would need, and they share the budget), or when the fork fails.
    """
    global _spare_cpus
    budget = _spare_cpus
    if len(items) < 2 or budget < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    totals = list(itertools.accumulate(weights))
    cut = min(range(1, len(items)), key=lambda i: abs(2 * totals[i - 1] - totals[-1]))
    if min(totals[cut - 1], totals[-1] - totals[cut - 1]) < _MIN_FORK_WEIGHT:
        return [fn(x) for x in items]
    child_share = (budget - 1) // 2
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with other OS threads forks, since
        # the child could wait forever on a lock one of them held. With no
        # other Python thread, those are native threads such as OpenBLAS's
        # idle pool after ``import numpy``; hierpart makes no BLAS calls, so
        # the child never takes such a lock.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            DeprecationWarning,
        )
        try:
            pid = os.fork()
        except OSError:  # no process to spare (EAGAIN, ENOMEM): run inline
            os.close(read_fd)
            os.close(write_fd)
            return [fn(x) for x in items]
    if pid == 0:
        try:
            os.close(read_fd)
            _spare_cpus = child_share
            try:
                outcome = (True, _fork_map(fn, items[:cut], weights[:cut]))
            except BaseException as exc:
                try:  # the parent raises a copy; not every exception class rebuilds from its args
                    outcome = (False, pickle.loads(pickle.dumps(exc)))
                except Exception:
                    outcome = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    _spare_cpus = budget - 1 - child_share
    try:
        with os.fdopen(read_fd, "rb") as fh:
            try:
                right = _fork_map(fn, items[cut:], weights[cut:])
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            data = fh.read()
    finally:
        _spare_cpus = budget
        os.waitpid(pid, 0)
    if not data:
        raise ChildProcessError(f"forked worker {pid} exited without a result")
    ok, left = pickle.loads(data)
    if not ok:
        raise left
    return left + right
