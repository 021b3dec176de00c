"""Two-level hierarchical partitioning with a simulated rank-distributed exchange.

The driver splits the requested part count into groups (one per compute node,
each holding up to ``group_size`` cores), partitions the graph across groups
with proportional target weights, redistributes vertices to their group the
way rank-local chunks would be exchanged over a network, partitions each
group's subgraph across its cores, and stitches the two levels into final
part ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError
from .graph import Graph, Partition, extract_subgraph
from .kway import TargetWeights, _fork_map, partition_kway

__all__ = [
    "SplitPlan",
    "RankLayout",
    "ExchangePlan",
    "compute_splits",
    "trivial_distribute",
    "discover_exchange",
    "compose_final",
    "hierarchical_partition",
]


@dataclass(eq=False)
class SplitPlan:
    """How ``total_parts`` final parts spread over groups of ``group_size``.

    ``group_counts[c]`` is the number of final parts assigned to group c (the
    remainder group, if any, comes first); ``weights`` are the proportional
    first-stage target fractions; ``offsets`` is the exclusive prefix sum of
    ``group_counts``, so group c owns final part ids
    ``[offsets[c], offsets[c] + group_counts[c])``.
    """

    total_parts: int
    group_size: int
    num_groups: int
    remainder: int
    group_counts: np.ndarray
    weights: TargetWeights
    offsets: np.ndarray

    def __post_init__(self):
        self.group_counts = np.asarray(self.group_counts, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)


def compute_splits(total_parts: int, group_size: int) -> SplitPlan:
    """Size the first-stage groups for a two-level split.

    The remainder ``total_parts mod group_size``, when nonzero, becomes a
    single undersized leading group; every other group holds exactly
    ``group_size`` parts.
    """
    if total_parts < 1 or group_size < 1:
        raise ValueError("total_parts and group_size must be >= 1")
    remainder = total_parts % group_size
    num_groups = total_parts // group_size + (1 if remainder else 0)
    # A few cheap array calls: numpy's fixed per-call cost dominates on vectors
    # this short. Python's int / int rounds exactly as float64 division does,
    # so the weights equal counts / total_parts.
    counts = np.empty(num_groups, dtype=np.int64)
    counts.fill(group_size)
    weights = np.empty(num_groups)
    weights.fill(group_size / total_parts)
    if remainder:
        counts[0] = remainder
        weights[0] = remainder / total_parts
        offsets = np.arange(remainder - group_size, total_parts, group_size, dtype=np.int64)
        offsets[0] = 0
    else:
        offsets = np.arange(0, total_parts, group_size, dtype=np.int64)
    return SplitPlan(
        total_parts,
        group_size,
        num_groups,
        remainder,
        counts,
        TargetWeights(weights),
        offsets,
    )


@dataclass(eq=False)
class RankLayout:
    """Contiguous chunk of vertex ids owned by each simulated rank."""

    num_ranks: int
    chunk_bounds: np.ndarray  # shape (num_ranks, 2); half-open [start, end)

    def __post_init__(self):
        self.chunk_bounds = np.asarray(self.chunk_bounds, dtype=np.int64)

    def owner_of(self, vertex: int) -> int:
        return int(np.searchsorted(self.chunk_bounds[:, 1], vertex, side="right"))


def trivial_distribute(num_vertices: int, num_ranks: int) -> RankLayout:
    """Deal vertices to ranks in contiguous id-ordered chunks of near-equal size.

    The first ``num_vertices mod num_ranks`` ranks receive one extra vertex.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if num_vertices < num_ranks:
        raise InfeasibleError(f"cannot spread {num_vertices} vertices over {num_ranks} ranks")
    base, extra = divmod(num_vertices, num_ranks)
    sizes = np.full(num_ranks, base, dtype=np.int64)
    sizes[:extra] += 1
    ends = np.cumsum(sizes)
    starts = ends - sizes
    return RankLayout(num_ranks, np.column_stack([starts, ends]))


@dataclass(eq=False)
class ExchangePlan:
    """Vertex transfers realizing a first-stage partition on chunked ranks.

    ``transfers[(sender, receiver)]`` lists the global vertex ids (ascending)
    that the sender's chunk contributes to the receiver's group. Self-sends are
    included, so every vertex appears in exactly one list.
    """

    num_ranks: int
    transfers: dict[tuple[int, int], np.ndarray]

    def received(self, receiver: int) -> np.ndarray:
        """All vertex ids landing on ``receiver``, ordered by (sender, id)."""
        chunks = [
            self.transfers[(s, r)]
            for (s, r) in sorted(self.transfers)
            if r == receiver
        ]
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(chunks)

    def total_transferred(self) -> int:
        return sum(len(v) for v in self.transfers.values())


def discover_exchange(layout: RankLayout, p1: Partition) -> ExchangePlan:
    """Pair every chunk-owned vertex with the rank its first-stage part lives on.

    Mirrors a two-sided discovery: each sender walks its own chunk in vertex-id
    order and files each vertex under (sender, destination part).
    """
    if p1.num_parts > layout.num_ranks:
        raise ValueError(
            f"first-stage part count {p1.num_parts} exceeds rank count {layout.num_ranks}"
        )
    if len(p1.parts) and int(p1.parts.max()) >= layout.num_ranks:
        raise ValueError("first-stage part id exceeds rank count")
    transfers: dict[tuple[int, int], np.ndarray] = {}
    for sender in range(layout.num_ranks):
        start, end = layout.chunk_bounds[sender]
        chunk_parts = p1.parts[start:end]
        local_ids = np.arange(start, end, dtype=np.int64)
        for receiver in np.unique(chunk_parts):
            transfers[(sender, int(receiver))] = local_ids[chunk_parts == receiver]
    return ExchangePlan(layout.num_ranks, transfers)


def compose_final(p1: Partition, p2: Partition, plan: SplitPlan) -> Partition:
    """Merge the two stages: final id = group offset + within-group part id.

    When every group holds exactly ``group_size`` parts this reduces to
    ``p1 * group_size + p2``.
    """
    if len(p1.parts) != len(p2.parts):
        raise ValueError("stage partitions must cover the same vertices")
    if p1.num_parts > plan.num_groups or (
        len(p1.parts) and int(p1.parts.max()) >= plan.num_groups
    ):
        raise ValueError("first-stage part id out of range for the split plan")
    if np.any(p2.parts >= plan.group_counts[p1.parts]):
        raise ValueError("second-stage part id exceeds its group's part count")
    return Partition(plan.offsets[p1.parts] + p2.parts, plan.total_parts)


def hierarchical_partition(
    g: Graph,
    total_parts: int,
    group_size: int,
    seed: int,
    imbalance_tol: float = 0.03,
) -> Partition:
    """Two-level partition: across groups first, then across cores within each.

    Stage one cuts the graph into ``num_groups`` parts with weights
    proportional to each group's share of the final parts; vertices are then
    exchanged between simulated ranks so each group holds its own subgraph;
    stage two cuts each subgraph uniformly into that group's part count with a
    per-group seed (``seed ^ group``); the composed result has every final
    part nonempty. Stage-two groups may run side by side in forked workers
    (see :func:`hierpart.kway._fork_map`); the result does not depend on it.
    """
    # Refuse a part count past the vertex count before compute_splits sizes
    # arrays by it; with group_size < 1, compute_splits' range error wins.
    if group_size >= 1 and total_parts > g.num_vertices:
        raise InfeasibleError(
            f"cannot cut {g.num_vertices} vertices into {total_parts} nonempty parts"
        )
    plan = compute_splits(total_parts, group_size)
    p1 = partition_kway(
        g,
        plan.num_groups,
        plan.weights,
        seed,
        imbalance_tol=imbalance_tol,
        min_part_counts=plan.group_counts,
    )

    layout = trivial_distribute(g.num_vertices, plan.num_groups)
    exchange = discover_exchange(layout, p1)

    # Groups of one part keep p2 = 0. The others are independent, so they run
    # in lanes of about equal vertex count.
    groups = np.flatnonzero(plan.group_counts > 1).tolist()
    members = [exchange.received(group) for group in groups]

    def stage2(i: int) -> np.ndarray:
        parts_here = int(plan.group_counts[groups[i]])
        subgraph, _ = extract_subgraph(g, members[i])
        return partition_kway(
            subgraph,
            parts_here,
            TargetWeights.uniform(parts_here),
            seed ^ groups[i],
            imbalance_tol=imbalance_tol,
        ).parts

    p2 = np.zeros(g.num_vertices, dtype=np.int64)
    sizes = [len(ids) for ids in members]
    for ids, sub_parts in zip(members, _fork_map(stage2, range(len(groups)), sizes)):
        p2[ids] = sub_parts
    max_group_parts = int(plan.group_counts.max())
    return compose_final(p1, Partition(p2, max_group_parts), plan)
