"""Multilevel k-way graph partitioner with non-uniform target part weights.

The pipeline is the classic V-cycle: heavy-edge matching coarsens the graph
until it is small, a greedy graph-growing pass bisects the coarsest level, and
the bisection is projected back up with Fiduccia–Mattheyses refinement at
every level. Refinement, rebalancing and count repair all move vertices through
one exact gain-heap engine, whose select-and-move step is the only move loop.
k-way output comes from recursive bisection over a split of the target-weight
vector.

Everything here is deterministic for a fixed seed. Independent subgraph cuts
(the two halves of a bisection, and the callers' stage-two groups and
interface pairs) may run side by side in forked workers, but no cut's seed or
input depends on that schedule, so outputs do not either.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
import os
import pickle
import random
import signal
import threading
import warnings
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InfeasibleError
from .graph import Graph, Partition, _csr, edge_cut, extract_subgraph

__all__ = [
    "TargetWeights",
    "CoarseningLevel",
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

# FM stops after this many passes even while the cut still improves.
_MAX_FM_PASSES = 10


_T = TypeVar("_T")
_U = TypeVar("_U")

# CPUs this process may still hand to forked workers. Each fork spends one and
# splits the rest between parent and child; 0 runs everything inline.
_spare_cpus = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) - 1

# Lane weight (subgraph vertices) below which _fork_map runs inline:
# a fork/pipe/reap costs about 5 ms on a 2-vCPU host, and 4-part cuts with
# lanes of up to 200 vertices ran faster inline than forked.
_MIN_FORK_WEIGHT = 128


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


def heavy_edge_match(g: Graph, seed: int) -> np.ndarray:
    """Greedy heavy-edge matching; returns per-vertex mate (self if unmatched).

    Vertices are visited in a seeded random order; each still-unmatched vertex
    pairs with its unmatched neighbor of maximum edge weight, ties going to the
    lowest neighbor id.
    """
    nv = g.num_vertices
    visit = list(range(nv))
    random.Random(seed).shuffle(visit)
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

    # Weights sum exactly in int64 (bincount would sum in float64). Each
    # undirected fine edge contributes once (cu < cv); parallel edges between
    # the same coarse pair merge by summing their weights, into distinct keys.
    coarse_vwgt = np.zeros(next_id, dtype=np.int64)
    np.add.at(coarse_vwgt, projection, g.vertex_weights)
    src = np.repeat(ids, np.diff(g.adjacency_offsets))
    cu, cv = projection[src], projection[g.adjacency_list]
    forward = cu < cv
    keys, inverse = np.unique(cu[forward] * next_id + cv[forward], return_inverse=True)
    merged = np.zeros(len(keys), dtype=np.int64)
    np.add.at(merged, inverse, g.edge_weights[forward])
    return CoarseningLevel(_csr(keys, merged, next_id, coarse_vwgt), projection)


def _check_target_fraction(target_fraction: float) -> None:
    if not (0.0 < target_fraction < 1.0):
        raise ValueError("target_fraction must lie in (0, 1)")


def _check_imbalance_tol(imbalance_tol: float) -> None:
    if not (math.isfinite(imbalance_tol) and imbalance_tol >= 0):
        raise ValueError(f"imbalance_tol must be a finite number >= 0, got {imbalance_tol}")


def initial_bisection(g: Graph, target_fraction: float, start: int) -> Partition:
    """Bisect by growing a breadth-first region until it holds the target weight.

    The breadth-first walk starts at vertex ``start`` and then at every vertex
    not yet reached, lowest id first; neighbors are queued by ascending id. A
    vertex joins the region, part 0, when it leaves the queue, and the walk
    stops as soon as the region's vertex weight reaches ``target_fraction`` of
    the total.
    """
    nv = g.num_vertices
    if nv == 0:
        raise ValueError("cannot bisect an empty graph")
    _check_target_fraction(target_fraction)
    if not isinstance(start, numbers.Integral):
        raise ValueError(f"start vertex {start!r} is not an integer")
    if not 0 <= start < nv:
        raise ValueError(f"start vertex {start} is outside [0, {nv})")
    threshold = target_fraction * g.total_vertex_weight

    offsets = g.adjacency_offsets.tolist()
    adjacency = g.adjacency_list.tolist()
    weights = g.vertex_weights.tolist()
    parts = [1] * nv
    seen = [False] * nv
    acc = 0
    for root in itertools.chain((int(start),), range(nv)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            parts[v] = 0
            acc += weights[v]
            if acc >= threshold:
                return Partition(parts, 2)
            for u in adjacency[offsets[v]:offsets[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return Partition(parts, 2)


def _compute_gains(g: Graph, parts: np.ndarray) -> np.ndarray:
    """Cut reduction achieved by moving each vertex to the other side."""
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.adjacency_offsets))
    signed = np.where(parts[src] != parts[g.adjacency_list], g.edge_weights, -g.edge_weights)
    gains = np.zeros(g.num_vertices, dtype=np.int64)
    np.add.at(gains, src, signed)  # in int64: bincount would sum in float64
    return gains


class _GainHeaps:
    """Exact best-move selection for two-way refinement and repair.

    Vertices sit in one lazy-deletion min-heap per (side, vertex weight)
    class. An entry is the integer key ``-gain * n + id`` with
    ``n = max(1, num_vertices)``; since ``0 <= id < n`` the keys order exactly
    as ``(-gain, id)`` would, so the smallest live key over a set of classes is
    the highest-gain move among them, ties going to the lowest id. A key
    decodes as ``id = key % n`` and ``gain = -(key // n)``. An entry is live
    while its vertex is unlocked and still on that side with that gain: every
    gain or side change pushes a fresh key, and stale ones are popped when
    they surface.

    :attr:`w0` is part 0's vertex weight. A caller states its balance rule as
    a window ``[lo, hi]`` for :attr:`w0`, and :meth:`step` moves the best
    vertex whose move keeps :attr:`w0` inside it. A window admits one run of
    sorted weight classes per side, kept per window relative to :attr:`w0`
    and valid across :meth:`load`, which refills the heaps in place. A move
    walks the vertex's slice of the flat CSR lists: O(degree · log n).

    The graph must be simple (no self-loops, no repeated neighbours), as
    :meth:`Graph.validate` requires.
    """

    def __init__(self, g: Graph):
        self._graph = g
        self._n = max(1, g.num_vertices)
        self._offsets = g.adjacency_offsets.tolist()
        self._adjacency = g.adjacency_list.tolist()
        self._double_weights = (2 * g.edge_weights).tolist()
        self._weights = g.vertex_weights.tolist()
        self._classes = sorted(set(self._weights))
        # Per side, one heap per weight class, lightest first.
        self._heaps = tuple([[] for _ in self._classes] for _ in (0, 1))
        # Per side, each vertex's heap in that side's class for its weight.
        self._homes = tuple(
            list(map(dict(zip(self._classes, heaps)).__getitem__, self._weights))
            for heaps in self._heaps
        )
        self._admitted: dict[tuple[float, float], list[tuple[int, list[int]]]] = {}

    def load(self, parts: np.ndarray) -> None:
        """Start over from ``parts``: gains from scratch, every vertex unlocked.

        The heap lists are refilled in place, never replaced.
        """
        gains = _compute_gains(self._graph, parts)
        self.parts = parts.tolist()
        self.gains = gains.tolist()
        self._locked = [False] * len(self.parts)
        self.w0 = int(self._graph.vertex_weights[parts == 0].sum())
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
        for heap in itertools.chain(*self._heaps):
            heap.clear()
        bounds = [0, *starts.tolist(), len(keys)] if keys else []
        for lo, hi in zip(bounds, bounds[1:]):
            self._homes[side[lo]][order[lo]].extend(keys[lo:hi])

    def step(self, lo: float, hi: float, lock: bool = False) -> int:
        """Move the best vertex whose move leaves :attr:`w0` inside ``[lo, hi]``.

        The highest-gain such vertex (tie: lowest id) flips to the other side,
        the gains around it are updated, and its id is returned; -1 means no
        move fits (as in an empty window, ``lo > hi``) and nothing moved. A
        locked vertex cannot be picked again until the next :meth:`load`.
        """
        n, parts, gains, locked = self._n, self.parts, self.gains, self._locked
        heappop, heappush = heapq.heappop, heapq.heappush
        w0 = self.w0
        cands = self._admitted.get((lo - w0, hi - w0))
        if cands is None:
            # Side 0 admits the weights in [w0 - hi, w0 - lo], side 1 those in [lo - w0, hi - w0].
            c, (heaps0, heaps1) = self._classes, self._heaps
            cands = self._admitted[lo - w0, hi - w0] = [
                (0, h) for h in heaps0[bisect_left(c, w0 - hi):bisect_right(c, w0 - lo)]
            ] + [(1, h) for h in heaps1[bisect_left(c, lo - w0):bisect_right(c, hi - w0)]]
        v = -1
        for side, heap in cands:
            while heap:
                key = heap[0]
                u = key % n
                # A locked vertex back on a side it left unlocked has old entries there.
                if parts[u] == side and key == u - gains[u] * n and not locked[u]:
                    if v < 0 or key < best:
                        v, best = u, key
                    break
                heappop(heap)
        if v < 0:
            return -1
        side = parts[v] ^ 1
        parts[v] = side
        self.w0 = w0 - self._weights[v] if side else w0 + self._weights[v]
        gain = gains[v] = -gains[v]
        beside, behind = self._homes[side], self._homes[side ^ 1]
        if lock:
            locked[v] = True
        else:
            heappush(beside[v], v - gain * n)
        start, stop = self._offsets[v], self._offsets[v + 1]
        for u, dw in zip(self._adjacency[start:stop], self._double_weights[start:stop]):
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


def fm_refine(g: Graph, p: Partition, target_fraction: float, imbalance_tol: float) -> Partition:
    """Fiduccia–Mattheyses refinement of a 2-part partition.

    Each pass builds a sequence of single-vertex moves (every vertex at most
    once; each move keeps part 0's weight inside the balance window around
    target). Every vertex not yet moved in the pass whose weight fits the
    window is a candidate, not only boundary vertices; the highest-gain
    candidate moves (tie: lower vertex id). Each move is one
    :meth:`_GainHeaps.step` in the range of part 0 weights that the balance
    window admits. The pass then rolls back to the best prefix —
    lowest cut, then smallest weight deviation, then shortest. Passes repeat
    until the cut stops improving or ``_MAX_FM_PASSES`` is reached. The
    returned cut never exceeds the input cut.

    The window's half-width, as a fraction of the total weight, is
    ``imbalance_tol`` or the input's own deviation from target, whichever is
    larger, so balance never ends worse than the input's and an input outside
    ``imbalance_tol`` is refined, not refused. Raises ``ValueError`` unless
    ``imbalance_tol`` is a finite number >= 0 and ``target_fraction`` lies in
    (0, 1).
    """
    if p.num_parts != 2:
        raise ValueError("fm_refine expects a 2-part partition")
    if len(p.parts) != g.num_vertices:
        raise ValueError("partition length mismatch")
    _check_imbalance_tol(imbalance_tol)
    _check_target_fraction(target_fraction)
    parts = p.parts.copy()
    total = g.total_vertex_weight
    if total == 0:
        return Partition(parts, 2)
    target = target_fraction * total
    w0 = int(g.vertex_weights[parts == 0].sum())
    window = max(imbalance_tol, abs(w0 - target) / total + 1e-12) * total
    eps = 1e-9 * max(1.0, total)
    limit = window + eps
    # The part 0 weights x with abs(x - target) <= limit: x - target rounds monotonically
    # in x, so they are an interval, which holds w0 as the window covers its deviation.
    lo = bisect_left(range(w0), -limit, key=lambda x: x - target)
    hi = w0 + bisect_right(range(w0 + 1, total + 1), limit, key=lambda x: x - target)

    heaps = _GainHeaps(g)
    cut = edge_cut(g, Partition(parts, 2))
    for _ in range(_MAX_FM_PASSES):
        pass_start_cut = cut
        heaps.load(parts)
        side_of, gains = heaps.parts, heaps.gains
        trail: list[int] = []
        cur_cut = cut
        best_cut, best_dev, best_len = cut, abs(heaps.w0 - target), 0
        while True:
            v = heaps.step(lo, hi, lock=True)
            if v < 0:
                break
            cur_cut += gains[v]  # the move negated v's gain: the cut fell by the old one
            trail.append(v)
            # Best prefix: lowest cut, then smallest deviation, then shortest.
            if cur_cut <= best_cut:
                dev = abs(heaps.w0 - target)
                if cur_cut < best_cut or dev < best_dev:
                    best_cut, best_dev, best_len = cur_cut, dev, len(trail)
        for v in reversed(trail[best_len:]):  # roll back past the best prefix
            side_of[v] ^= 1
        parts = np.array(side_of, dtype=np.int64)
        cut = best_cut
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
    Moves stay unlocked: a light vertex moved early may move back after a
    heavier move flips the heavy side.
    """
    target = target_fraction * g.total_vertex_weight
    w0 = int(g.vertex_weights[parts == 0].sum())
    if int(g.vertex_weights.min()) >= 2 * abs(w0 - target):
        return parts  # no vertex is light enough to shrink the deviation
    heaps = _GainHeaps(g)
    heaps.load(parts)
    while True:
        # A move off the heavy side shrinks the deviation iff the vertex
        # weighs less than 2·dev, that is at most r.
        w0 = heaps.w0
        r = math.ceil(2 * abs(w0 - target)) - 1
        lo, hi = (w0 - r, w0 - 1) if w0 > target else (w0 + 1, w0 + r)
        if heaps.step(lo, hi) < 0:
            break
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
        # Only the other side's vertices move: onto side 0 raises w0, onto side 1 lowers it.
        lo, hi = (1, math.inf) if side == 0 else (-math.inf, -1)
        while counts[side] < min_counts[side]:
            heaps.step(heaps.w0 + lo, heaps.w0 + hi)
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


def _multilevel_bisect(
    g: Graph, target_fraction: float, tol: float, seed: int, min_counts: tuple[int, int]
) -> np.ndarray:
    """Full V-cycle bisection honoring per-side minimum vertex counts; returns part ids.

    Each coarsest start and each level is rebalanced, then refined through
    the module-level name ``fm_refine``, because an outside-in tracer counts
    the calls by rebinding that name.
    """
    chain = _coarsening_chain(g, seed)
    coarsest = chain[-1].graph if chain else g

    best_key: tuple[int, float] | None = None
    target = target_fraction * coarsest.total_vertex_weight
    nvc = coarsest.num_vertices
    # One seeded start plus fixed spread starts: cheap insurance against a
    # growth front that strands the small side of a lopsided target.
    seeded = random.Random(derive_seed(seed, 2)).randrange(nvc)
    grown = set()  # a start that grows an earlier start's bisection would refine it alike
    for start in dict.fromkeys((seeded, 0, nvc - 1, nvc // 2)):
        cand = initial_bisection(coarsest, target_fraction, start=start).parts
        if cand.min() == cand.max():  # growth swallowed everything; peel one back
            cand[np.argmax(coarsest.vertex_weights == coarsest.vertex_weights.min())] = 1
        if (drawn := cand.tobytes()) in grown:
            continue
        grown.add(drawn)
        cand = _rebalance(coarsest, cand, target_fraction)
        cand = fm_refine(coarsest, Partition(cand, 2), target_fraction, tol).parts
        key = (
            edge_cut(coarsest, Partition(cand, 2)),
            abs(float(coarsest.vertex_weights[cand == 0].sum()) - target),
        )
        if best_key is None or key < best_key:
            best_key, parts = key, cand

    for idx in range(len(chain) - 1, -1, -1):
        fine = g if idx == 0 else chain[idx - 1].graph
        parts = _rebalance(fine, parts[chain[idx].projection], target_fraction)
        parts = fm_refine(fine, Partition(parts, 2), target_fraction, tol).parts
    return _repair_counts(g, parts, min_counts)


def _refuse_part_count(num_vertices: int, k: int) -> None:
    """Refuse more parts than vertices, before anything is sized by ``k``."""
    if k > num_vertices:
        raise InfeasibleError(f"cannot cut {num_vertices} vertices into {k} nonempty parts")


def partition_kway(
    g: Graph,
    k: int,
    w: TargetWeights | None,
    seed: int,
    imbalance_tol: float = 0.03,
    min_part_counts: Sequence[int] | None = None,
) -> Partition:
    """Partition into k parts with target weight fractions ``w`` (None: uniform).

    Recursive bisection: the first ⌈k/2⌉ target fractions go to the left
    branch, so part ids follow the weight-vector order. Every part is
    guaranteed nonempty (``min_part_counts`` raises the floor per part when a
    caller needs more than one vertex in specific parts). ``imbalance_tol``
    must be a finite number >= 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_imbalance_tol(imbalance_tol)
    if w is not None and len(w) != k:
        raise ValueError(f"expected {k} target fractions, got {len(w)}")
    _refuse_part_count(g.num_vertices, k)
    if w is None:
        w = TargetWeights.uniform(k)
    spans = [w.fractions]  # every split _recurse will make, checked before the first
    for fractions in spans:
        if len(fractions) > 1:
            mid = (len(fractions) + 1) // 2
            if not 0.0 < _left_fraction(fractions) < 1.0:
                raise ValueError(
                    f"target fractions {fractions.tolist()} cannot be bisected: "
                    f"the first {mid}'s share of their sum rounds to 1"
                )
            spans += [fractions[:mid], fractions[mid:]]
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


def _left_fraction(fractions: np.ndarray) -> float:
    """The first ⌈k/2⌉ of ``k`` target fractions' share of their sum."""
    return float(fractions[: (len(fractions) + 1) // 2].sum() / fractions.sum())


def _recurse(
    g: Graph, fractions: np.ndarray, mins: np.ndarray, seed: int, tol: float
) -> np.ndarray:
    """Part ids ``0 .. len(fractions) - 1`` of ``g``'s vertices, by recursive bisection."""
    k = len(fractions)
    if k == 1:
        return np.zeros(g.num_vertices, dtype=np.int64)
    mid = (k + 1) // 2
    min_counts = (int(mins[:mid].sum()), int(mins[mid:].sum()))
    sides = _multilevel_bisect(g, _left_fraction(fractions), tol, seed, min_counts)
    # A one-part half is labelled as it stands (0 left, mid right); only the
    # halves that split again are cut, side by side when both do.
    spans = (slice(None, mid), slice(mid, None))
    halves = [side for side in (0, 1) if len(fractions[spans[side]]) > 1]

    def half(sub: Graph, i: int) -> np.ndarray:
        span = spans[halves[i]]
        return _recurse(sub, fractions[span], mins[span], derive_seed(seed, 3 + halves[i]), tol)

    groups = [np.flatnonzero(sides == side) for side in halves]
    return sides * mid + _cut_subgraphs(g, groups, half)


def _cut_subgraphs(
    g: Graph, groups: Sequence[np.ndarray], cut: Callable[[Graph, int], np.ndarray]
) -> np.ndarray:
    """``cut(subgraph_i, i)`` at the vertices of each ``groups[i]``; 0 elsewhere.

    ``subgraph_i = extract_subgraph(g, groups[i])`` is built in the lane that
    cuts it, so its local ids follow ``groups[i]``. Groups must not overlap;
    they run in :func:`_fork_map` lanes of about equal vertex count.
    """

    def lane(i: int) -> np.ndarray:
        return cut(extract_subgraph(g, groups[i])[0], i)

    values = np.zeros(g.num_vertices, dtype=np.int64)
    sizes = [len(ids) for ids in groups]
    for ids, sub_values in zip(groups, _fork_map(lane, range(len(groups)), sizes)):
        values[ids] = sub_values
    return values


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
