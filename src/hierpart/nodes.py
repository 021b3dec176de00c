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

from .graph import Graph, Partition, _csr, _read_ids, _sort_unique, _write_ids
from .kway import _cut_subgraphs, derive_seed, partition_kway
from .mesh import (
    Mesh, _interface_elements, _local_sides, _node_parts, _pair_nodes, _shared_sides, _side_nodes,
)

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
    sizes = np.diff(offsets)
    multi = sizes > 2
    ranks = parts[np.repeat(multi, sizes)].tolist()  # the ranks of those nodes, back to back
    bounds = np.cumsum(np.append(0, sizes[multi])).tolist()
    for i, n in enumerate(np.flatnonzero(multi).tolist()):
        pick = min(ranks[bounds[i]:bounds[i + 1]], key=lambda r: (counts[r], r))
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


def _interface_graph(
    mesh: Mesh, elem_partition: Partition, offsets: np.ndarray, nodes: np.ndarray
) -> Graph:
    """Every pairwise interface graph, as one graph whose vertex i is ``nodes[i]``.

    ``offsets`` is the node-to-ranks map of :func:`_node_parts`, and ``nodes``
    lists the nodes on exactly two ranks. Two of them are joined wherever they
    lie on a common side shared by elements on two ranks; only the sides of
    :func:`_interface_elements` are matched.
    """
    kept, near = _interface_elements(mesh, offsets)
    side_a, side_b = _shared_sides(near)
    per_elem = len(_local_sides(near))
    ranks = elem_partition.parts[kept]
    side_nodes = _side_nodes(near, side_a[ranks[side_a // per_elem] != ranks[side_b // per_elem]])
    # A side shared across ranks a and b puts its nodes on both, so those on
    # no third rank are vertices of the interface graph of pair (a, b).
    n = len(nodes)
    vertex = np.full(mesh.num_nodes, -1, dtype=np.int64)
    vertex[nodes] = np.arange(n)
    ends = vertex[side_nodes]  # vertices ascend along a row, as node ids do: u < v
    first, second = np.triu_indices(ends.shape[1], 1)  # node pairs of one side
    u, v = ends[:, first].ravel(), ends[:, second].ravel()
    # A node pair may lie on several sides; the key u * n + v keeps it once.
    keys = _sort_unique((u * n + v)[(u >= 0) & (v >= 0)])
    return _csr(keys, np.ones_like(keys), n, np.ones(n, dtype=np.int64))


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
    interface = _interface_graph(mesh, elem_partition, offsets, nodes)
    n = len(nodes)
    num_ranks = elem_partition.num_parts
    starts = np.flatnonzero(np.diff(a * num_ranks + b, prepend=-1))
    groups = [ids for ids in np.split(np.arange(n), starts[1:]) if len(ids) > 1]

    # The half holding a pair's first member, its smallest node id, goes to the
    # lower rank, and so does a single-node interface, which is in no group.
    def bisect(pair_graph: Graph, i: int) -> np.ndarray:
        lo = groups[i][0]
        halves = partition_kway(pair_graph, 2, None, derive_seed(seed, int(a[lo]), int(b[lo])))
        return halves.parts != halves.parts[0]

    owner[nodes] = np.where(_cut_subgraphs(interface, groups, bisect), b, a)
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
