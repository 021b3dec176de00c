"""The array passes of the adjacency layer against the loops they replaced.

Each ``_loop_*`` function below is the earlier per-vertex / per-element Python
implementation, kept verbatim (apart from its name and the names it calls) as
an independent reference. Every test asserts identical arrays, identical file
bytes, or the identical exception type and message, on random and malformed
inputs. The fuzzed mesh and id files also drive ``main()`` itself, which must
end in exit 0, 2, 3 or 4.
"""

import contextlib
import io
import math
import os
import random
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart import (
    FileFormatError,
    Graph,
    Mesh,
    Partition,
    TargetWeights,
    build_graph,
    coarsen,
    derive_seed,
    dual_graph,
    extract_subgraph,
    generate_structured_hex,
    generate_structured_quad,
    heavy_edge_match,
    interface_node_sets,
    partition_kway,
    read_mesh,
    read_ownership,
    read_partition,
    write_mesh,
    write_partition,
)
from hierpart import mesh as mesh_module
from hierpart.cli import main
from hierpart.mesh import _QUAD_SIDES, _HEX_SIDES, node_to_parts
from hierpart.nodes import (
    NodeOwnership,
    _interface_edges,
    assign_interface_partition,
    assign_lowest_rank,
    assign_parity,
    write_ownership,
)


def _outcome(fn, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle must match any exception exactly
        return (type(exc), str(exc))


def _graph_bytes(g):
    return tuple(
        a.tobytes()
        for a in (g.adjacency_offsets, g.adjacency_list, g.edge_weights, g.vertex_weights)
    )


def _same_graph_outcome(expected, got):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, Graph)
        assert _graph_bytes(got) == _graph_bytes(expected)


# ---------------------------------------------------------------------------
# graph.py references
# ---------------------------------------------------------------------------


def _loop_build_graph(edge_list, num_vertices, vertex_weights=None):
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

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int, int]] = []
    for u, v, w in edge_list:
        u, v, w = int(u), int(v), int(w)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u}, {v}) references vertex out of range")
        if w < 1:
            raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        pairs.append((u, v, w))

    degrees = np.zeros(num_vertices, dtype=np.int64)
    for u, v, _ in pairs:
        degrees[u] += 1
        degrees[v] += 1
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    adj = np.zeros(offsets[-1], dtype=np.int64)
    wgt = np.zeros(offsets[-1], dtype=np.int64)
    cursor = offsets[:-1].copy()
    for u, v, w in pairs:
        adj[cursor[u]], wgt[cursor[u]] = v, w
        cursor[u] += 1
        adj[cursor[v]], wgt[cursor[v]] = u, w
        cursor[v] += 1
    # Sort each adjacency run by neighbor id so traversal order is canonical.
    for v in range(num_vertices):
        lo, hi = offsets[v], offsets[v + 1]
        order = np.argsort(adj[lo:hi], kind="stable")
        adj[lo:hi] = adj[lo:hi][order]
        wgt[lo:hi] = wgt[lo:hi][order]
    return Graph(offsets, adj, wgt, vwgt)


def _loop_validate(self):
    if np.any(self.vertex_weights < 1) or np.any(self.edge_weights < 1):
        raise ValueError("weights must be positive integers")
    src = np.repeat(np.arange(self.num_vertices), np.diff(self.adjacency_offsets))
    if np.any(src == self.adjacency_list):
        raise ValueError("self-loop present")
    if len(self.adjacency_list) and (
        self.adjacency_list.min() < 0 or self.adjacency_list.max() >= self.num_vertices
    ):
        raise ValueError("neighbor id out of range")
    fwd = {}
    for u, v, w in zip(src, self.adjacency_list, self.edge_weights):
        key = (int(u), int(v))
        if key in fwd:
            raise ValueError(f"duplicate neighbor {v} of vertex {u}")
        fwd[key] = int(w)
    for (u, v), w in fwd.items():
        if fwd.get((v, u)) != w:
            raise ValueError(f"asymmetric adjacency between {u} and {v}")


def _loop_extract_subgraph(graph, vertex_set):
    local_to_global = np.asarray(vertex_set, dtype=np.int64)
    n_local = len(local_to_global)
    if n_local and (local_to_global.min() < 0 or local_to_global.max() >= graph.num_vertices):
        raise ValueError("vertex id out of range")
    if len(np.unique(local_to_global)) != n_local:
        raise ValueError("duplicate vertex id in vertex_set")

    global_to_local = np.full(graph.num_vertices, -1, dtype=np.int64)
    global_to_local[local_to_global] = np.arange(n_local)

    offsets = np.zeros(n_local + 1, dtype=np.int64)
    adj_parts = []
    wgt_parts = []
    for local, g in enumerate(local_to_global):
        nbrs = graph.neighbors(g)
        mapped = global_to_local[nbrs]
        keep = mapped >= 0
        adj_parts.append(mapped[keep])
        wgt_parts.append(graph.neighbor_weights(g)[keep])
        offsets[local + 1] = offsets[local] + keep.sum()
    adj = np.concatenate(adj_parts) if adj_parts else np.zeros(0, dtype=np.int64)
    wgt = np.concatenate(wgt_parts) if wgt_parts else np.zeros(0, dtype=np.int64)
    sub = Graph(offsets, adj, wgt, graph.vertex_weights[local_to_global])
    return sub, local_to_global


# ---------------------------------------------------------------------------
# kway.py references
# ---------------------------------------------------------------------------


def _loop_heavy_edge_match(g, seed, order=None):
    nv = g.num_vertices
    if order is None:
        visit = list(range(nv))
        random.Random(seed).shuffle(visit)
    else:
        visit = [int(v) for v in order]
    mates = np.arange(nv, dtype=np.int64)
    for v in visit:
        if mates[v] != v:
            continue
        best = -1
        best_w = 0
        for u, w in zip(g.neighbors(v), g.neighbor_weights(v)):
            u, w = int(u), int(w)
            if mates[u] != u or u == v:
                continue
            if w > best_w or (w == best_w and (best == -1 or u < best)):
                best, best_w = u, w
        if best >= 0:
            mates[v] = best
            mates[best] = v
    return mates


def _loop_coarsen(g, mates):
    mates = np.asarray(mates, dtype=np.int64)
    nv = g.num_vertices
    if len(mates) != nv:
        raise ValueError("mates length must equal num_vertices")
    if nv and (mates.min() < 0 or mates.max() >= nv):
        raise ValueError("mate id out of range")
    if np.any(mates[mates] != np.arange(nv)):
        raise ValueError("matching is not symmetric")

    projection = np.full(nv, -1, dtype=np.int64)
    next_id = 0
    for v in range(nv):
        if v <= mates[v]:
            projection[v] = next_id
            projection[mates[v]] = next_id
            next_id += 1

    coarse_vwgt = np.bincount(projection, weights=g.vertex_weights, minlength=next_id).astype(
        np.int64
    )
    merged: dict[tuple[int, int], int] = {}
    src = np.repeat(np.arange(nv), np.diff(g.adjacency_offsets))
    for cu, cv, w in zip(projection[src], projection[g.adjacency_list], g.edge_weights):
        if cu < cv:  # each undirected fine edge contributes once
            key = (int(cu), int(cv))
            merged[key] = merged.get(key, 0) + int(w)
    edges = [(a, b, w) for (a, b), w in merged.items()]
    return _loop_build_graph(edges, next_id, coarse_vwgt), projection


# ---------------------------------------------------------------------------
# mesh.py references
# ---------------------------------------------------------------------------


def _loop_mesh_check(element_nodes):
    for e, nodes in enumerate(element_nodes):
        if len(set(nodes.tolist())) != len(nodes):
            raise ValueError(f"element {e} repeats a node id")


def _loop_element_sides(mesh, e):
    nodes = mesh.element_nodes[e]
    locals_ = _QUAD_SIDES if mesh.dim == 2 else _HEX_SIDES
    return [tuple(sorted(int(nodes[i]) for i in side)) for side in locals_]


def _loop_dual_graph(mesh):
    side_map: dict[tuple[int, ...], int] = {}
    edges: list[tuple[int, int, int]] = []
    for e in range(mesh.num_elements):
        for key in _loop_element_sides(mesh, e):
            other = side_map.pop(key, None)
            if other is None:
                side_map[key] = e
            else:
                edges.append((other, e, 1))
    return _loop_build_graph(edges, mesh.num_elements)


def _loop_node_to_parts(mesh, elem_partition):
    if len(elem_partition.parts) != mesh.num_elements:
        raise ValueError(
            f"partition length {len(elem_partition.parts)} != num_elements {mesh.num_elements}"
        )
    attached: list[set[int]] = [set() for _ in range(mesh.num_nodes)]
    for e, nodes in enumerate(mesh.element_nodes):
        p = int(elem_partition.parts[e])
        for n in nodes:
            attached[int(n)].add(p)
    return attached


def _loop_interface_node_sets(mesh, elem_partition):
    attached = _loop_node_to_parts(mesh, elem_partition)
    pair_sets: dict[tuple[int, int], set[int]] = {}
    multi_rank: list[int] = []
    for n, parts in enumerate(attached):
        if len(parts) == 2:
            a, b = sorted(parts)
            pair_sets.setdefault((a, b), set()).add(n)
        elif len(parts) > 2:
            multi_rank.append(n)
    return pair_sets, multi_rank


def _loop_read_mesh(path):
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
    if len(raw) < 1 + nn + ne:
        raise FileFormatError(path, len(raw), f"expected {nn} coordinate and {ne} element lines")

    coords = np.empty((nn, dim), dtype=np.float64)
    for i in range(nn):
        lineno = i + 2
        tokens = raw[i + 1].split()
        if len(tokens) != dim:
            raise FileFormatError(path, lineno, f"expected {dim} coordinates")
        try:
            coords[i] = [float(t) for t in tokens]
        except ValueError:
            raise FileFormatError(path, lineno, "bad coordinate value") from None

    nodes_per_elem = 4 if dim == 2 else 8
    elems = np.empty((ne, nodes_per_elem), dtype=np.int64)
    for e in range(ne):
        lineno = 1 + nn + e + 1
        tokens = raw[1 + nn + e].split()
        if len(tokens) != nodes_per_elem:
            raise FileFormatError(path, lineno, f"expected {nodes_per_elem} node ids")
        try:
            ids = [int(t) for t in tokens]
        except ValueError:
            raise FileFormatError(path, lineno, "bad node id") from None
        if any(not (0 <= n < nn) for n in ids):
            raise FileFormatError(path, lineno, "node id out of range")
        elems[e] = ids
    try:
        with mock.patch.object(Mesh, "__post_init__", _loop_mesh_post_init):
            return Mesh(dim, elems, coords)
    except ValueError as exc:
        raise FileFormatError(path, 1, str(exc)) from None


def _loop_write_mesh(mesh, path):
    lines = [f"{mesh.dim} {mesh.num_nodes} {mesh.num_elements}"]
    for coord in mesh.node_coords:
        lines.append(" ".join(repr(float(c)) for c in coord))
    for nodes in mesh.element_nodes:
        lines.append(" ".join(str(int(n)) for n in nodes))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _loop_write_partition(partition, path):
    with open(path, "w") as fh:
        fh.writelines(f"{int(p)}\n" for p in partition.parts)


def _loop_write_ownership(ownership, path):
    with open(path, "w") as fh:
        fh.writelines(f"{int(r)}\n" for r in ownership.owner)


def _loop_read_partition(path):
    parts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                raise FileFormatError(path, lineno, f"bad part id {token!r}") from None
            if value < 0:
                raise FileFormatError(path, lineno, f"negative part id {value}")
            parts.append(value)
    if not parts:
        raise FileFormatError(path, 1, "empty partition file")
    arr = np.asarray(parts, dtype=np.int64)
    return Partition(arr, int(arr.max()) + 1)


def _loop_read_ownership(path, num_ranks=None):
    owner = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                raise FileFormatError(path, lineno, f"bad rank id {token!r}") from None
            if value < 0:
                raise FileFormatError(path, lineno, f"negative rank id {value}")
            owner.append(value)
    if not owner:
        raise FileFormatError(path, 1, "empty ownership file")
    arr = np.asarray(owner, dtype=np.int64)
    return NodeOwnership.from_owner(arr, num_ranks if num_ranks is not None else int(arr.max()) + 1)


def _loop_mesh_post_init(self):
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
        _loop_mesh_check(self.element_nodes)


# ---------------------------------------------------------------------------
# nodes.py references
# ---------------------------------------------------------------------------


def _loop_interior_owner(mesh, elem_partition):
    attached = _loop_node_to_parts(mesh, elem_partition)
    owner = np.full(mesh.num_nodes, -1, dtype=np.int64)
    for n, parts in enumerate(attached):
        if len(parts) == 1:
            owner[n] = next(iter(parts))
    return owner, attached


def _loop_assign_multi_rank_greedy(owner, multi_rank, attached, num_ranks):
    counts = np.bincount(owner[owner >= 0], minlength=num_ranks)
    for n in multi_rank:
        ranks = sorted(attached[n])
        pick = min(ranks, key=lambda r: (counts[r], r))
        owner[n] = pick
        counts[pick] += 1


def _loop_assign_lowest_rank(mesh, elem_partition):
    attached = _loop_node_to_parts(mesh, elem_partition)
    owner = np.fromiter((min(parts) for parts in attached), dtype=np.int64, count=mesh.num_nodes)
    return NodeOwnership.from_owner(owner, elem_partition.num_parts)


def _loop_assign_parity(mesh, elem_partition):
    owner, attached = _loop_interior_owner(mesh, elem_partition)
    pair_sets, multi_rank = _loop_interface_node_sets(mesh, elem_partition)
    for (a, b), nodes in pair_sets.items():
        for n in nodes:
            owner[n] = a if n % 2 == 1 else b
    _loop_assign_multi_rank_greedy(owner, multi_rank, attached, elem_partition.num_parts)
    return NodeOwnership.from_owner(owner, elem_partition.num_parts)


def _loop_interface_edges(mesh, elem_partition):
    side_map: dict[tuple[int, ...], int] = {}
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for e in range(mesh.num_elements):
        for key in _loop_element_sides(mesh, e):
            other = side_map.pop(key, None)
            if other is None:
                side_map[key] = e
                continue
            pa, pb = int(elem_partition.parts[other]), int(elem_partition.parts[e])
            if pa == pb:
                continue
            pair = (pa, pb) if pa < pb else (pb, pa)
            bucket = edges.setdefault(pair, set())
            for i, n1 in enumerate(key):
                for n2 in key[i + 1:]:
                    bucket.add((n1, n2))
    return edges


def _loop_assign_interface_partition(mesh, elem_partition, seed):
    owner, attached = _loop_interior_owner(mesh, elem_partition)
    pair_sets, multi_rank = _loop_interface_node_sets(mesh, elem_partition)
    all_edges = _loop_interface_edges(mesh, elem_partition)
    for (a, b), nodes in sorted(pair_sets.items()):
        members = sorted(nodes)
        if len(members) == 1:
            owner[members[0]] = a
            continue
        local = {n: i for i, n in enumerate(members)}
        edges = [
            (local[n1], local[n2], 1)
            for n1, n2 in all_edges.get((a, b), ())
            if n1 in local and n2 in local  # multi-rank nodes sit outside the pair set
        ]
        halves = partition_kway(
            _loop_build_graph(edges, len(members)),
            2,
            TargetWeights.uniform(2),
            derive_seed(seed, a, b),
        )
        low_half = int(halves.parts[0])  # members[0] is the smallest node id
        for n, i in local.items():
            owner[n] = a if int(halves.parts[i]) == low_half else b
    _loop_assign_multi_rank_greedy(owner, multi_rank, attached, elem_partition.num_parts)
    return NodeOwnership.from_owner(owner, elem_partition.num_parts)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def _random_edge_list(rng, nv, bad_rate):
    """Edges with weights 1-4; with probability ``bad_rate`` each edge is
    replaced by a self-loop, an out-of-range id, a non-positive weight, or a
    repeat of an earlier edge (either orientation)."""
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < 0.4:
                edges.append((u, v, rng.randint(1, 4)) if rng.random() < 0.5 else (v, u, 1))
    rng.shuffle(edges)
    for i in range(len(edges)):
        if rng.random() >= bad_rate:
            continue
        u, v, w = edges[i]
        kind = rng.randrange(4)
        if kind == 0:
            edges[i] = (u, u, w)
        elif kind == 1:
            edges[i] = (u, rng.choice([-1, nv, nv + 3]), w)
        elif kind == 2:
            edges[i] = (u, v, rng.choice([0, -2]))
        elif i:
            a, b, _ = edges[rng.randrange(i)]
            edges[i] = (b, a, w) if rng.random() < 0.5 else (a, b, w)
    return edges


def _weighted_graph(rng, max_vertices=30):
    nv = rng.randint(1, max_vertices)
    edges = _random_edge_list(rng, nv, 0.0)
    return build_graph(edges, nv, [rng.randint(1, 5) for _ in range(nv)])


def _random_mesh(rng):
    """A mesh whose sides may be shared by 1-4 elements, with permuted node
    orders; now and then some nodes belong to no element."""
    dim = rng.choice([2, 3])
    per_elem = 4 if dim == 2 else 8
    if rng.random() < 0.5:
        if dim == 2:
            base = generate_structured_quad(rng.randint(1, 5), rng.randint(1, 5))
        else:
            base = generate_structured_hex(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        elems = base.element_nodes.tolist()
        rng.shuffle(elems)
        for nodes in elems:
            if rng.random() < 0.3:
                rng.shuffle(nodes)
        num_nodes = base.num_nodes
    else:
        # A small node pool makes sides shared by three or four elements common.
        pool = per_elem + rng.randint(0, 4)
        elems = [rng.sample(range(pool), per_elem) for _ in range(rng.randint(0, 14))]
        used = sorted({n for nodes in elems for n in nodes})
        compact = {n: i for i, n in enumerate(used)}
        elems = [[compact[n] for n in nodes] for nodes in elems]
        num_nodes = len(used)
    if rng.random() < 0.15:
        num_nodes += rng.randint(1, 2)
    coords = np.zeros((num_nodes, dim))
    return Mesh(dim, np.array(elems, dtype=np.int64).reshape(-1, per_elem), coords)


def _random_partition(rng, mesh):
    k = rng.randint(1, 5)
    return Partition(np.array([rng.randrange(k) for _ in range(mesh.num_elements)]), k)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestGraphLayer:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_build_graph_matches_loop(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(0, 14)
        edges = _random_edge_list(rng, nv, rng.choice([0.0, 0.05, 0.3]))
        vwgt = None if rng.random() < 0.5 else [rng.randint(1, 5) for _ in range(nv)]
        expected = _outcome(_loop_build_graph, edges, nv, vwgt)
        _same_graph_outcome(expected, _outcome(build_graph, edges, nv, vwgt))
        _same_graph_outcome(expected, _outcome(build_graph, iter(edges), nv, vwgt))
        as_array = np.array(edges, dtype=np.int64).reshape(-1, 3)
        _same_graph_outcome(expected, _outcome(build_graph, as_array, nv, vwgt))

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_validate_matches_loop(self, seed):
        rng = random.Random(seed)
        g = _weighted_graph(rng, 12)
        offsets = g.adjacency_offsets.copy()
        adj, wgt = g.adjacency_list.tolist(), g.edge_weights.tolist()
        nv = g.num_vertices
        for _ in range(rng.randint(0, 3)):
            if not adj:
                break
            i = rng.randrange(len(adj))
            kind = rng.randrange(3)
            if kind == 0:  # repeat an entry inside its own run
                adj.insert(i, adj[i])
                wgt.insert(i, wgt[i])
                offsets[np.searchsorted(offsets, i, side="right"):] += 1
            elif kind == 1:  # break the weight symmetry
                wgt[i] += 1
            else:  # point one entry elsewhere
                adj[i] = rng.randrange(nv)
        bad = Graph(offsets, np.array(adj, dtype=np.int64), wgt, g.vertex_weights)
        assert _outcome(bad.validate) == _outcome(_loop_validate, bad)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_extract_subgraph_matches_loop(self, seed):
        rng = random.Random(seed)
        g = _weighted_graph(rng)
        vertices = rng.sample(range(g.num_vertices), rng.randint(0, g.num_vertices))
        if vertices and rng.random() < 0.1:
            vertices.append(rng.choice([vertices[0], g.num_vertices, -1]))
        expected = _outcome(_loop_extract_subgraph, g, vertices)
        got = _outcome(extract_subgraph, g, vertices)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
        else:
            assert _graph_bytes(got[0]) == _graph_bytes(expected[0])
            assert got[1].tobytes() == expected[1].tobytes()


class TestContraction:
    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_heavy_edge_match_and_coarsen_match_loop(self, seed):
        rng = random.Random(seed)
        g = _weighted_graph(rng)
        order = None
        if rng.random() < 0.3:
            order = [np.int64(v) for v in rng.sample(range(g.num_vertices), g.num_vertices)]
        mates = heavy_edge_match(g, seed, order)
        expected_mates = _loop_heavy_edge_match(g, seed, order)
        assert mates.dtype == np.int64
        assert mates.tobytes() == expected_mates.tobytes()
        step = coarsen(g, mates)
        expected_graph, expected_projection = _loop_coarsen(g, mates)
        assert step.projection.tobytes() == expected_projection.tobytes()
        assert _graph_bytes(step.graph) == _graph_bytes(expected_graph)

    def test_coarsen_of_empty_graph(self):
        g = build_graph([], 0)
        step = coarsen(g, [])
        expected_graph, expected_projection = _loop_coarsen(g, [])
        assert _graph_bytes(step.graph) == _graph_bytes(expected_graph)
        assert step.projection.tobytes() == expected_projection.tobytes()


class TestMeshLayer:
    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_dual_graph_and_node_parts_match_loop(self, seed):
        rng = random.Random(seed)
        mesh = _random_mesh(rng)
        _same_graph_outcome(_outcome(_loop_dual_graph, mesh), _outcome(dual_graph, mesh))
        part = _random_partition(rng, mesh)
        unused = _first_unused_node(mesh)
        if unused is not None:  # the loop gave such a node no parts
            refused = (ValueError, f"node {unused} belongs to no element")
            assert _outcome(node_to_parts, mesh, part) == refused
            assert _outcome(interface_node_sets, mesh, part) == refused
        else:
            assert node_to_parts(mesh, part) == _loop_node_to_parts(mesh, part)
            expected_pairs, expected_multi = _loop_interface_node_sets(mesh, part)
            pairs, multi = interface_node_sets(mesh, part)
            assert pairs == expected_pairs and list(pairs) == list(expected_pairs)
            assert multi == expected_multi
        rows = _interface_edges(mesh, part)
        expected_rows = sorted(
            (a, b, n1, n2)
            for (a, b), bucket in _loop_interface_edges(mesh, part).items()
            for n1, n2 in bucket
        )
        assert [tuple(r) for r in rows.tolist()] == expected_rows

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_node_strategies_match_loop(self, seed):
        rng = random.Random(seed)
        mesh = _random_mesh(rng)
        part = _random_partition(rng, mesh)
        for new, old, args in (
            (assign_lowest_rank, _loop_assign_lowest_rank, ()),
            (assign_parity, _loop_assign_parity, ()),
            (assign_interface_partition, _loop_assign_interface_partition, (seed,)),
        ):
            expected = _outcome(old, mesh, part, *args)
            unused = _first_unused_node(mesh)
            if unused is not None:  # the loop failed in min() or bincount
                assert isinstance(expected, tuple)
                expected = (ValueError, f"node {unused} belongs to no element")
            got = _outcome(new, mesh, part, *args)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert got.owner.tobytes() == expected.owner.tobytes()
                assert got.counts.tobytes() == expected.counts.tobytes()

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_repeated_node_check_matches_loop(self, seed):
        rng = random.Random(seed)
        elems = np.array(
            [[rng.randrange(6) for _ in range(4)] for _ in range(rng.randint(1, 6))],
            dtype=np.int64,
        )
        expected = _outcome(_loop_mesh_check, elems)
        got = _outcome(Mesh, 2, elems, np.zeros((6, 2)))
        if expected is None:
            assert isinstance(got, Mesh)
        else:
            assert got == expected


_TOKEN_EDITS = ["x", "", "1e3", "nan", "-1", "+2", "1_0", "3.0", "99", str(2**70), "0 0", "٣"]


def _fuzzed_mesh_text(rng):
    mesh = _random_mesh(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        write_mesh(mesh, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
    if rng.random() < 0.1:  # header counts off by a little, or negative
        head = lines[0].split()
        head[rng.randrange(1, 3)] = str(rng.randint(-2, 3) + int(head[rng.randrange(1, 3)]))
        lines[0] = " ".join(head)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        i = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
        kind = rng.choice("rrrrddad")
        tokens = lines[i].split()
        if kind == "r" and tokens:  # replace one token
            tokens[rng.randrange(len(tokens))] = rng.choice(_TOKEN_EDITS)
        elif kind == "d" and tokens:  # drop one token
            tokens.pop(rng.randrange(len(tokens)))
        elif kind == "a":  # add one token
            tokens.append(rng.choice(["0", "1", "y"]))
        elif kind == "D":  # delete the line
            del lines[i]
            continue
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + rng.choice(["\n", "", "\r\n"])


class TestReadMesh:
    @given(st.integers(0, 100_000), st.sampled_from([1, 2, 3, 7, 4096]))
    @settings(max_examples=250, deadline=None)
    def test_read_mesh_matches_loop(self, seed, block):
        rng = random.Random(seed)
        text = _fuzzed_mesh_text(rng)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.txt")
            with open(path, "w") as fh:
                fh.write(text)
            expected = _expected_read_mesh(path)
            with mock.patch.object(mesh_module, "_BLOCK_LINES", block):
                got = _outcome(read_mesh, path)
        _same_mesh_outcome(expected, got)

    @pytest.mark.parametrize(
        "text",
        [
            "2 -1 1\n0 1 2 3\n",  # negative node count
            "2 4 -1\n0 0\n1 0\n",  # negative element count, short file
            "2 4 -1\n0 0\n1 0\n1 1\n0 1\n",
            "2 0 0\n",
            "3 0 0\n\n",
        ],
    )
    def test_odd_headers_match_loop(self, tmp_path, text):
        path = str(tmp_path / "m.txt")
        with open(path, "w") as fh:
            fh.write(text)
        _same_mesh_outcome(_expected_read_mesh(path), _outcome(read_mesh, path))


def _expected_read_mesh(path):
    """The loop's outcome, except that a negative header count is now a line-1
    error and a node no element uses is an error on its coordinate line.

    The loop ran into numpy's "negative dimensions" error or an IndexError on
    such headers, and returned a mesh with unused nodes; every other input
    must still give the loop's outcome.
    """
    with open(path) as fh:
        head = fh.read().splitlines()[:1]
    try:
        dim, nn, ne = (int(t) for t in head[0].split())
    except (IndexError, ValueError):
        pass
    else:
        if dim in (2, 3) and min(nn, ne) < 0:
            message = f"counts must be >= 0, got {nn} nodes and {ne} elements"
            return (FileFormatError, f"{path}:1: {message}")
    expected = _outcome(_loop_read_mesh, path)
    unused = None if isinstance(expected, tuple) else _first_unused_node(expected)
    if unused is not None:
        return (FileFormatError, f"{path}:{unused + 2}: node {unused} belongs to no element")
    return expected


def _first_unused_node(mesh):
    """The lowest node id no element lists, or None."""
    unused = sorted(set(range(mesh.num_nodes)) - set(mesh.element_nodes.ravel().tolist()))
    return unused[0] if unused else None


def _same_mesh_outcome(expected, got):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.dim == expected.dim
        assert got.element_nodes.tobytes() == expected.element_nodes.tobytes()
        assert got.node_coords.tobytes() == expected.node_coords.tobytes()


_ODD_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.1, 1e-300, 5e-324, 1.7976931348623157e308, 1e16, 1e22]


def _random_float(rng):
    kind = rng.random()
    if kind < 0.4:
        return rng.choice(_ODD_FLOATS + [math.nan, math.inf, -math.inf])
    if kind < 0.7:
        return float(rng.randint(-1000, 1000))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)


def _random_ids(rng):
    top = rng.choice([1, 10, 2**31, 2**62])
    return np.array([rng.randrange(top) for _ in range(rng.randint(0, 40))], dtype=np.int64)


class TestWriters:
    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_writers_match_loop(self, seed):
        rng = random.Random(seed)
        shape = _random_mesh(rng)
        coords = [_random_float(rng) for _ in range(shape.node_coords.size)]
        mesh = Mesh(shape.dim, shape.element_nodes, np.reshape(coords, shape.node_coords.shape))
        ids = _random_ids(rng)
        partition = Partition(ids, int(ids.max()) + 1 if len(ids) else 1)
        ownership = NodeOwnership(ids, [len(ids)])
        cases = [
            (_loop_write_mesh, write_mesh, mesh),
            (_loop_write_partition, write_partition, partition),
            (_loop_write_ownership, write_ownership, ownership),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for loop_writer, writer, value in cases:
                paths = os.path.join(tmp, "loop.txt"), os.path.join(tmp, "new.txt")
                loop_writer(value, paths[0])
                writer(value, paths[1])
                with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                    assert a.read() == b.read()


# Tokens an id line may hold besides a plain id: signs, underscores and
# non-ASCII digits that int() accepts, and junk it rejects.
_ID_TOKENS = ["-1", "-0", "+2", "1_0", "_1", "1__0", "٣", "５", "x", "3.0", "1e3", "0x1", "1 2"]
# Characters str.strip() removes but file iteration does not split on; int()
# rejects some of them when they are left on the token ("5\x1c").
_ID_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"]
_LINE_BREAKS = ["\n", "\n", "\n", "\r\n", "\r"]


def _fuzzed_id_bytes(rng, num_lines, big_ids=()):
    """A one-id-per-line file, mostly ids below 100, as bytes.

    Some lines are blank, padded, junk or one of ``big_ids``; line breaks mix
    "\n", "\r\n" and "\r", and now and then an undecodable byte is spliced in.
    """
    junk_rate = rng.choice([0.0, 0.0, 0.02, 0.1, 0.3])
    pad_rate = rng.choice([0.0, 0.1, 0.5])
    top = rng.choice([1, 2, 3, 8, 100])
    lines = []
    for _ in range(num_lines):
        if rng.random() < junk_rate:
            token = str(rng.choice(big_ids)) if big_ids and rng.random() < 0.4 else rng.choice(_ID_TOKENS)
        else:
            token = str(rng.randrange(top))
        if rng.random() < pad_rate:
            token = rng.choice(_ID_SPACES) + token
        if rng.random() < pad_rate:
            token += rng.choice(_ID_SPACES)
        lines.append(token)
        if rng.random() < pad_rate / 4:
            lines.append(rng.choice(["", *_ID_SPACES]))
    text = "".join(line + rng.choice(_LINE_BREAKS) for line in lines)
    if lines and rng.random() < 0.2:  # no line break at the end
        text = text.rstrip("\r\n")
    data = text.encode()
    if rng.random() < 0.05:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _expected_read_ids(loop_reader, path, what):
    """The loop's outcome, except that an id past int64, or past the number of
    ids in the file, is now a bad line.

    The loop let such an id through: one past int64 to ``np.asarray``, which
    raised ``OverflowError``, and a large one into ``num_parts`` or the
    ownership counts, unless a later line was bad first.
    """
    bad_line = math.inf
    try:
        expected = loop_reader(path)
    except FileFormatError as exc:
        expected, bad_line = (FileFormatError, str(exc)), exc.line
    except Exception as exc:  # the oracle must match any exception exactly
        expected = (type(exc), str(exc))
    try:
        with open(path) as fh:
            lines = list(fh)
    except UnicodeDecodeError:  # the loop raised the same error
        return expected
    count = sum(1 for line in lines if line.strip())
    for lineno, line in enumerate(lines, start=1):
        if lineno >= bad_line:
            break
        try:
            value = int(line.strip())
        except ValueError:
            continue
        if value >= 2**63:
            message = f"{what} id {value} does not fit in 64 bits"
            return (FileFormatError, f"{path}:{lineno}: {message}")
        if value > count:
            message = f"{what} id {value} exceeds the file's id count {count}"
            return (FileFormatError, f"{path}:{lineno}: {message}")
    return expected


def _same_ids_outcome(expected, got):
    if isinstance(expected, tuple):
        assert got == expected
    elif isinstance(expected, Partition):
        assert got.parts.tobytes() == expected.parts.tobytes()
        assert got.num_parts == expected.num_parts
    else:
        assert got.owner.tobytes() == expected.owner.tobytes()
        assert got.counts.tobytes() == expected.counts.tobytes()


class TestReadIds:
    # Ids at or past int64 for both files. A partition id only sets num_parts,
    # so any size is safe; an ownership id sizes a bincount, so only ids at or
    # past 2**60, which numpy refuses before allocating, join the small ones.
    _BIG_PART_IDS = [3_000_000_000, 2**63 - 1, 2**63, 2**64, 10**30, -(2**63), -(2**63) - 1]
    _BIG_RANK_IDS = [2**62, 2**63 - 1, 2**63, 2**64, 10**30, -(2**63) - 1]

    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_readers_match_loop(self, seed):
        rng = random.Random(seed)
        cases = [
            (_loop_read_partition, read_partition, "part", self._BIG_PART_IDS),
            (_loop_read_ownership, read_ownership, "rank", self._BIG_RANK_IDS),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ids.txt")
            for loop_reader, reader, what, big_ids in cases:
                with open(path, "wb") as fh:
                    fh.write(_fuzzed_id_bytes(rng, rng.randint(0, 30), big_ids))
                expected = _expected_read_ids(loop_reader, path, what)
                _same_ids_outcome(expected, _outcome(reader, path))

    def test_undecodable_byte_wins_over_an_earlier_bad_line(self, tmp_path):
        # The loop decoded 8 KiB at a time and met the bad line first; the
        # whole file is decoded now, before any line is converted.
        path = str(tmp_path / "ids.txt")
        with open(path, "wb") as fh:
            fh.write(b"x\n" + b"0\n" * 5000 + b"\xff\n")
        for loop_reader, reader in [
            (_loop_read_partition, read_partition),
            (_loop_read_ownership, read_ownership),
        ]:
            assert _outcome(loop_reader, path)[0] is FileFormatError
            assert _outcome(reader, path)[0] is UnicodeDecodeError


class TestMainOnFuzzedFiles:
    """Every command on fuzzed mesh and id files ends in exit 0, 2, 3 or 4."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_exit_codes(self, seed):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as tmp:
            mesh, elem_part, node_part, out = (
                os.path.join(tmp, name) for name in ("m.txt", "p.txt", "n.txt", "o.txt")
            )
            if rng.random() < 0.5:
                write_mesh(_random_mesh(rng), mesh)
            else:
                with open(mesh, "w") as fh:
                    fh.write(_fuzzed_mesh_text(rng))
            with open(mesh) as fh:
                head = fh.readline().split()[1:3]
            # Id files usually match the header's node and element counts.
            for path, token in zip((node_part, elem_part), head + ["5", "5"]):
                try:
                    size = int(token)
                except ValueError:
                    size = 5
                num_lines = max(0, size + rng.choice([0, 0, 0, -1, 1]))
                with open(path, "wb") as fh:
                    fh.write(_fuzzed_id_bytes(rng, num_lines, [3_000_000_000, 2**63 - 1, 2**63, 2**64, -(2**63) - 1]))
            np_, np2 = rng.randint(1, 6), rng.randint(1, 3)
            runs = [
                ["assign-nodes", "--mesh", mesh, "--elem-part", elem_part,
                 "--node-strategy", rng.choice(["lowest-rank", "parity", "interface"]),
                 "--out", out],
                ["report", "--mesh", mesh, "--elem-part", elem_part, "--node-part", node_part,
                 "--format", rng.choice(["text", "csv"])],
                ["partition", "--mesh", mesh, "--np", str(np_), "--np2", str(np2),
                 "--method", rng.choice(["hierarch", "flat"]), "--out", out],
                ["compare", "--mesh", mesh, "--np", str(np_), "--np2", str(np2)],
            ]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert main(argv) in (0, 2, 3, 4), argv
