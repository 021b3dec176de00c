"""Mesh-node ownership strategies and the node-balance ratio.

Once elements are partitioned, every node on an inter-rank interface must be
owned by exactly one of the ranks touching it. Three strategies are provided:
take the lowest touching rank, split by node-id parity, or bisect each
pairwise interface with the graph partitioner so both ranks get half.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Partition, _read_ids, _write_ids, build_graph
from .kway import TargetWeights, _fork_map, derive_seed, partition_kway
from .mesh import Mesh, _node_parts, _pair_nodes, _shared_sides

__all__ = [
    "NodeOwnership",
    "assign_lowest_rank",
    "assign_parity",
    "assign_interface_partition",
    "node_ratio",
    "read_ownership",
    "write_ownership",
]


@dataclass(eq=False)
class NodeOwnership:
    """Owning rank per mesh node, with per-rank owned-node totals."""

    owner: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.owner = np.asarray(self.owner, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if int(self.counts.sum()) != len(self.owner):
            raise ValueError("counts must sum to the node count")

    @classmethod
    def from_owner(cls, owner: np.ndarray, num_ranks: int) -> "NodeOwnership":
        owner = np.asarray(owner, dtype=np.int64)
        return cls(owner, np.bincount(owner, minlength=num_ranks))

    @property
    def num_ranks(self) -> int:
        return len(self.counts)


def _interior_owner(
    mesh: Mesh, elem_partition: Partition
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Owner array with single-rank nodes filled in, -1 elsewhere.

    Also returns the ``(offsets, parts)`` node-to-ranks map it was built from.
    """
    offsets, parts = _node_parts(mesh, elem_partition)
    owner = np.full(mesh.num_nodes, -1, dtype=np.int64)
    single = np.flatnonzero(np.diff(offsets) == 1)
    owner[single] = parts[offsets[single]]
    return owner, (offsets, parts)


def _assign_multi_rank_greedy(
    owner: np.ndarray,
    offsets: np.ndarray,
    parts: np.ndarray,
    num_ranks: int,
) -> None:
    """Give each node touching three or more ranks to its currently
    least-loaded incident rank.

    Nodes are processed in id order; ties go to the lower rank. Mutates
    ``owner`` in place.
    """
    counts = np.bincount(owner[owner >= 0], minlength=num_ranks).tolist()
    bounds, ranks = offsets.tolist(), parts.tolist()
    for n in np.flatnonzero(np.diff(offsets) > 2).tolist():
        pick = min(ranks[bounds[n]:bounds[n + 1]], key=lambda r: (counts[r], r))
        owner[n] = pick
        counts[pick] += 1


def assign_lowest_rank(mesh: Mesh, elem_partition: Partition) -> NodeOwnership:
    """Every node goes to the minimum rank among its attached elements."""
    offsets, parts = _node_parts(mesh, elem_partition)
    owner = parts[offsets[:-1]]  # each node's ranks are ascending
    return NodeOwnership.from_owner(owner, elem_partition.num_parts)


def assign_parity(mesh: Mesh, elem_partition: Partition) -> NodeOwnership:
    """Split each pairwise interface by node-id parity: odd low, even high."""
    owner, (offsets, parts) = _interior_owner(mesh, elem_partition)
    a, b, nodes = _pair_nodes(offsets, parts)
    owner[nodes] = np.where(nodes % 2 == 1, a, b)
    _assign_multi_rank_greedy(owner, offsets, parts, elem_partition.num_parts)
    return NodeOwnership.from_owner(owner, elem_partition.num_parts)


def _interface_edges(mesh: Mesh, elem_partition: Partition) -> np.ndarray:
    """Node pairs co-occurring on an element side shared across a rank pair.

    Rows ``(a, b, n1, n2)`` with ranks a < b and nodes n1 < n2, unique and
    sorted.
    """
    elem_a, elem_b, side_nodes = _shared_sides(mesh)
    pa, pb = elem_partition.parts[elem_a], elem_partition.parts[elem_b]
    cross = pa != pb
    first, second = np.triu_indices(side_nodes.shape[1], 1)  # node pairs of one side
    per_side = len(first)
    rows = np.column_stack([
        np.repeat(np.minimum(pa, pb)[cross], per_side),
        np.repeat(np.maximum(pa, pb)[cross], per_side),
        side_nodes[cross][:, first].ravel(),
        side_nodes[cross][:, second].ravel(),
    ])
    return np.unique(rows, axis=0)


def assign_interface_partition(mesh: Mesh, elem_partition: Partition, seed: int) -> NodeOwnership:
    """Bisect each pairwise interface graph so both ranks own about half.

    The interface graph of a rank pair has the pair's shared nodes as vertices
    and an edge wherever two of them lie on a common element side on the
    interface. It is split into two equal-target parts; the half containing
    the smallest node id goes to the lower rank. A single-node interface goes
    to the lower rank outright.
    """
    owner, (offsets, parts) = _interior_owner(mesh, elem_partition)
    a, b, nodes = _pair_nodes(offsets, parts)
    edges = _interface_edges(mesh, elem_partition)
    num_ranks = elem_partition.num_parts
    edge_pairs = edges[:, 0] * num_ranks + edges[:, 1]
    node_pairs = a * num_ranks + b
    starts = np.flatnonzero(np.diff(node_pairs, prepend=-1))
    ends = np.append(starts[1:], len(nodes))
    lone = starts[ends - starts == 1]
    owner[nodes[lone]] = a[lone]  # a single-node interface goes to the lower rank
    pairs = [(lo, hi) for lo, hi in zip(starts.tolist(), ends.tolist()) if hi - lo > 1]

    def bisect(pair: tuple[int, int]) -> np.ndarray:
        """Owning rank of each of the pair's members."""
        lo, hi = pair
        low, high = int(a[lo]), int(b[lo])
        members = nodes[lo:hi]  # ascending
        # Keep the pair's edges whose ends are both members; nodes touching
        # three or more ranks sit outside every pair.
        span = slice(*np.searchsorted(edge_pairs, [node_pairs[lo], node_pairs[lo] + 1]))
        ends = np.searchsorted(members, edges[span, 2:])
        inside = np.all(members[np.minimum(ends, len(members) - 1)] == edges[span, 2:], axis=1)
        local = ends[inside]
        halves = partition_kway(
            build_graph(np.column_stack([local, np.ones(len(local), dtype=np.int64)]), len(members)),
            2,
            TargetWeights.uniform(2),
            derive_seed(seed, low, high),
        )
        low_half = halves.parts[0]  # members[0] is the smallest node id
        return np.where(halves.parts == low_half, low, high)

    # The other pairs are independent, so they run in lanes of about equal node count.
    for (lo, hi), pair_owner in zip(pairs, _fork_map(bisect, pairs, [hi - lo for lo, hi in pairs])):
        owner[nodes[lo:hi]] = pair_owner
    _assign_multi_rank_greedy(owner, offsets, parts, num_ranks)
    return NodeOwnership.from_owner(owner, num_ranks)


def node_ratio(ownership: NodeOwnership) -> float:
    """Balance ratio max(counts)/min(counts); 1.0 means perfectly balanced.

    A rank owning zero nodes makes the ratio infinite; that is reported with a
    warning rather than raised, since it is a quality verdict, not an error.
    """
    counts = ownership.counts
    if counts.size == 0:
        raise ValueError("ownership has no ranks")
    lo = int(counts.min())
    if lo == 0:
        empty = np.flatnonzero(counts == 0).tolist()
        warnings.warn(f"rank(s) {empty} own zero nodes; node ratio is infinite", stacklevel=2)
        return float("inf")
    return int(counts.max()) / lo


# One 0-indexed owning rank per line, one line per node: graph's id-file format.


def write_ownership(ownership: NodeOwnership, path: str) -> None:
    _write_ids(ownership.owner, path)


def read_ownership(path: str) -> NodeOwnership:
    owner = _read_ids(path, "ownership", "rank")
    return NodeOwnership.from_owner(owner, int(owner.max()) + 1)
