import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_two_sided
from hierpart import kway
from hierpart import (
    BalanceWindowWarning,
    Graph,
    InfeasibleError,
    Partition,
    TargetWeights,
    build_graph,
    coarsen,
    derive_seed,
    dual_graph,
    edge_cut,
    fm_refine,
    generate_structured_hex,
    generate_structured_quad,
    heavy_edge_match,
    initial_bisection,
    partition_kway,
)
from hierpart.kway import _compute_gains, _GainHeaps, _rebalance, _repair_counts


def test_target_weights_validation():
    TargetWeights([0.25, 0.75])
    TargetWeights.uniform(3)
    with pytest.raises(ValueError, match="sum"):
        TargetWeights([0.5, 0.6])
    with pytest.raises(ValueError, match="positive"):
        TargetWeights([1.5, -0.5])
    with pytest.raises(ValueError):
        TargetWeights([])
    with pytest.raises(ValueError):
        TargetWeights.uniform(0)


@pytest.mark.parametrize("fractions", [[float("nan"), 1.0], [0.5, 0.5, float("nan")]])
def test_target_weights_refuse_non_finite(fractions):
    with pytest.raises(ValueError, match="finite"):
        TargetWeights(fractions)


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(2**63, 17) < 2**64


class TestHeavyEdgeMatch:
    def test_prefers_heaviest_edge(self):
        g = build_graph([(0, 1, 5), (1, 2, 1), (0, 2, 1)], 3)
        mates = heavy_edge_match(g, seed=0, order=[0, 1, 2])
        assert mates.tolist() == [1, 0, 2]  # 2 left unmatched

    def test_tie_breaks_to_lowest_id(self):
        g = build_graph([(0, 1, 1), (1, 2, 1)], 3)
        mates = heavy_edge_match(g, seed=0, order=[0, 1, 2])
        assert mates.tolist() == [1, 0, 2]

    def test_single_vertex(self):
        g = build_graph([], 1)
        assert heavy_edge_match(g, seed=4).tolist() == [0]

    @pytest.mark.parametrize("order", [[99], [0, -1]])
    def test_order_outside_the_vertices_is_refused(self, order):
        g = build_graph([(0, 1, 1), (1, 2, 1)], 3)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            heavy_edge_match(g, seed=0, order=order)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matching_is_symmetric_and_disjoint(self, seed):
        rng = random.Random(seed)
        g, _, nv = random_graph(rng, 14)
        mates = heavy_edge_match(g, seed=seed)
        assert len(mates) == nv
        for v in range(nv):
            assert mates[mates[v]] == v


class TestCoarsen:
    def test_path_pairs(self, path4):
        level = coarsen(path4, [1, 0, 3, 2])
        assert level.graph.num_vertices == 2
        assert level.graph.vertex_weights.tolist() == [2, 2]
        assert level.graph.num_edges == 1
        assert level.graph.edge_weights.tolist() == [1, 1]
        assert level.projection.tolist() == [0, 0, 1, 1]

    def test_empty_matching_is_identity(self, path4):
        level = coarsen(path4, [0, 1, 2, 3])
        assert np.array_equal(level.graph.adjacency_list, path4.adjacency_list)
        assert np.array_equal(level.graph.edge_weights, path4.edge_weights)
        assert level.projection.tolist() == [0, 1, 2, 3]

    def test_parallel_edges_merge(self):
        cycle = build_graph([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], 4)
        level = coarsen(cycle, [1, 0, 3, 2])
        assert level.graph.num_vertices == 2
        assert level.graph.edge_weights.tolist() == [2, 2]

    def test_invalid_matching_rejected(self, path4):
        with pytest.raises(ValueError, match="symmetric"):
            coarsen(path4, [1, 2, 0, 3])
        with pytest.raises(ValueError):
            coarsen(path4, [0, 1])
        with pytest.raises(ValueError):
            coarsen(path4, [0, 1, 2, 9])

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_weight_conservation(self, seed):
        rng = random.Random(seed)
        g, _, nv = random_graph(rng, 14)
        level = coarsen(g, heavy_edge_match(g, seed=seed))
        assert level.graph.total_vertex_weight == g.total_vertex_weight
        level.graph.validate()


class TestInitialBisection:
    def test_path_grows_half(self, path4):
        p = initial_bisection(path4, 0.5, seed=0, start=0)
        assert p.parts.tolist() == [0, 0, 1, 1]

    def test_stops_at_single_vertex(self, path4):
        p = initial_bisection(path4, 0.25, seed=0, start=2)
        assert p.parts.tolist() == [1, 1, 0, 1]

    def test_exhausts_component_exactly(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], 4)
        p = initial_bisection(g, 0.5, seed=0, start=0)
        assert p.parts.tolist() == [0, 0, 1, 1]

    def test_jumps_to_lowest_unreached_vertex(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], 4)
        p = initial_bisection(g, 0.75, seed=0, start=0)
        assert p.parts.tolist() == [0, 0, 0, 1]

    def test_invalid_fraction(self, path4):
        with pytest.raises(ValueError):
            initial_bisection(path4, 0.0, seed=0)
        with pytest.raises(ValueError):
            initial_bisection(path4, 1.0, seed=0)

    @pytest.mark.parametrize("start", [-1, 4])
    def test_start_outside_the_vertices_is_refused(self, path4, start):
        with pytest.raises(ValueError, match=rf"start vertex {start} is outside \[0, 4\)"):
            initial_bisection(path4, 0.5, seed=0, start=start)


class TestFMRefine:
    def test_recovers_optimal_path_cut(self, path4):
        out = fm_refine(path4, Partition([0, 1, 0, 1], 2), 0.5, 0.25)
        assert edge_cut(path4, out) == 1
        assert out.parts.tolist() in ([0, 0, 1, 1], [1, 1, 0, 0])

    def test_leaves_optimum_alone(self, path4):
        out = fm_refine(path4, Partition([0, 0, 1, 1], 2), 0.5, 0.25)
        assert out.parts.tolist() == [0, 0, 1, 1]

    def test_zero_tolerance_pins_everything(self):
        g = build_graph([(0, 1, 1)], 2)
        out = fm_refine(g, Partition([0, 1], 2), 0.5, 0.0)
        assert out.parts.tolist() == [0, 1]

    def test_infeasible_window_warns_and_returns_input(self, path4):
        with pytest.warns(BalanceWindowWarning):
            out = fm_refine(path4, Partition([0, 0, 0, 1], 2), 0.5, 0.0)
        assert out.parts.tolist() == [0, 0, 0, 1]

    def test_empty_and_single_vertex_graphs(self):
        empty = fm_refine(build_graph([], 0), Partition(np.zeros(0, dtype=np.int64), 2), 0.5, 0.1)
        assert empty.parts.tolist() == []
        single = fm_refine(build_graph([], 1), Partition([1], 2), 0.5, 0.6)
        assert single.parts.tolist() == [1]

    def test_requires_two_parts(self, path4):
        with pytest.raises(ValueError):
            fm_refine(path4, Partition([0, 1, 2, 0], 3), 0.5, 0.1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_never_increases_cut(self, seed):
        rng = random.Random(seed)
        g, _, nv = random_graph(rng, 12)
        if nv < 2:
            return
        p = random_two_sided(rng, nv)
        before = edge_cut(g, p)
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        target = w0 / g.total_vertex_weight  # window always admits the input
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # feasible input must not warn
            out = fm_refine(g, p, target, rng.random() * 0.5)
        assert edge_cut(g, out) <= before


# Reference engine: the O(n)-per-move argmax scans the gain heaps replaced,
# kept verbatim as the oracle for exact selection (highest gain, then lowest id).


def _scan_apply_move_gains(g, parts, gains, v):
    nbrs = g.neighbors(v)
    wgts = g.neighbor_weights(v)
    same = parts[nbrs] == parts[v]
    gains[nbrs] += np.where(same, -2 * wgts, 2 * wgts)
    gains[v] = -gains[v]


def _scan_fm_refine(g, p, target_fraction, imbalance_tol, max_passes=10):
    nv = g.num_vertices
    vw = g.vertex_weights
    total = g.total_vertex_weight
    target = target_fraction * total
    window = imbalance_tol * total
    eps = 1e-9 * max(1.0, total)
    parts = p.parts.copy()
    w0 = int(vw[parts == 0].sum())
    if abs(w0 - target) > window + eps:
        warnings.warn("outside the window", BalanceWindowWarning)
        return Partition(parts, 2)
    ids = np.arange(nv, dtype=np.int64)
    cut = edge_cut(g, Partition(parts, 2))
    for _ in range(max_passes):
        pass_start_cut = cut
        gains = _compute_gains(g, parts)
        moved = np.zeros(nv, dtype=bool)
        trail = []
        cur_cut, cur_w0 = cut, w0
        best = (cut, abs(w0 - target), 0)
        while True:
            movable = ~moved & (
                np.where(parts == 0, np.abs((cur_w0 - vw) - target), np.abs((cur_w0 + vw) - target))
                <= window + eps
            )
            cand = np.flatnonzero(movable)
            if cand.size == 0:
                break
            v = int(cand[np.argmax(gains[cand] * (nv + 1) - ids[cand])])
            cur_cut -= int(gains[v])
            cur_w0 += int(vw[v]) if parts[v] == 1 else -int(vw[v])
            parts[v] ^= 1
            moved[v] = True
            _scan_apply_move_gains(g, parts, gains, v)
            trail.append(v)
            state = (cur_cut, abs(cur_w0 - target), len(trail))
            if state[:2] < best[:2]:
                best = state
        for v in reversed(trail[best[2]:]):
            parts[v] ^= 1
        cut = best[0]
        w0 = int(vw[parts == 0].sum())
        if cut >= pass_start_cut:
            break
    return Partition(parts, 2)


def _scan_rebalance(g, parts, target_fraction):
    vw = g.vertex_weights
    target = target_fraction * g.total_vertex_weight
    gains = _compute_gains(g, parts)
    ids = np.arange(g.num_vertices, dtype=np.int64)
    w0 = int(vw[parts == 0].sum())
    while True:
        dev = abs(w0 - target)
        heavy = 0 if w0 > target else 1
        cand = np.flatnonzero((parts == heavy) & (vw < 2 * dev))
        if cand.size == 0:
            return parts
        v = int(cand[np.argmax(gains[cand] * (g.num_vertices + 1) - ids[cand])])
        w0 += int(vw[v]) if heavy == 1 else -int(vw[v])
        parts[v] ^= 1
        _scan_apply_move_gains(g, parts, gains, v)


def _scan_repair_counts(g, parts, min_counts):
    counts = [int((parts == 0).sum()), int((parts == 1).sum())]
    gains = _compute_gains(g, parts)
    ids = np.arange(g.num_vertices, dtype=np.int64)
    for side in (0, 1):
        other = 1 - side
        while counts[side] < min_counts[side]:
            cand = np.flatnonzero(parts == other)
            v = int(cand[np.argmax(gains[cand] * (g.num_vertices + 1) - ids[cand])])
            parts[v] = side
            counts[side] += 1
            counts[other] -= 1
            _scan_apply_move_gains(g, parts, gains, v)
    return parts


def _weighted_instance(rng):
    """Random graph with vertex weights 1-5 (several weight classes), edge weights 1-3."""
    nv = rng.randint(2, 40)
    density = rng.choice([0.1, 0.25, 0.5])
    edges = [
        (u, v, rng.randint(1, 3))
        for u in range(nv)
        for v in range(u + 1, nv)
        if rng.random() < density
    ]
    g = build_graph(edges, nv, [rng.randint(1, 5) for _ in range(nv)])
    return g, random_two_sided(rng, nv)


class TestGainHeapEngine:
    """The gain-heap engine picks exactly the moves the O(n) scans picked."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_fm_refine_matches_scan(self, seed):
        rng = random.Random(seed)
        g, p = _weighted_instance(rng)
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        total = g.total_vertex_weight
        if rng.random() < 0.5:
            target = w0 / total  # the window admits the input
        else:
            target = rng.uniform(0.05, 0.95)  # may lie outside and warn
        tol = rng.choice([0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.5)])
        passes = rng.choice([1, 2, 10])
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = _scan_fm_refine(g, p, target, tol, passes)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = fm_refine(g, p, target, tol, passes)
        assert got.parts.tobytes() == expected.parts.tobytes()
        assert [w.category for w in got_warnings] == [w.category for w in expected_warnings]
        assert len(got_warnings) == (abs(w0 - target * total) > tol * total + 1e-9 * total)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_rebalance_matches_scan(self, seed):
        rng = random.Random(seed)
        g, p = _weighted_instance(rng)
        target = rng.uniform(0.05, 0.95)
        expected = _scan_rebalance(g, p.parts.copy(), target)
        got = _rebalance(g, p.parts.copy(), target)
        assert got.tobytes() == expected.tobytes()
        # A fixed point: _multilevel_bisect calls it once after peeling a vertex back.
        assert _rebalance(g, got.copy(), target).tobytes() == got.tobytes()

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_repair_counts_matches_scan(self, seed):
        rng = random.Random(seed)
        g, p = _weighted_instance(rng)
        nv = g.num_vertices
        need0 = rng.randint(1, nv - 1)
        mins = (need0, rng.randint(1, nv - need0))
        expected = _scan_repair_counts(g, p.parts.copy(), mins)
        got = _repair_counts(g, p.parts.copy(), mins)
        assert got.tobytes() == expected.tobytes()
        assert (got == 0).sum() >= mins[0] and (got == 1).sum() >= mins[1]

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_mesh_graphs_match_scan(self, seed):
        """Mesh dual graphs, or one coarsening level of them (vertex weights 1-2,
        edge weights 1-2), with starts from random sides or graph growing."""
        rng = random.Random(seed)
        if rng.random() < 0.5:
            mesh = generate_structured_quad(rng.randint(6, 20), rng.randint(6, 20))
        else:
            mesh = generate_structured_hex(*(rng.randint(3, 6) for _ in range(3)))
        g = dual_graph(mesh)
        if rng.random() < 0.5:
            g = coarsen(g, heavy_edge_match(g, seed=seed)).graph
        nv, total = g.num_vertices, g.total_vertex_weight
        if rng.random() < 0.5:
            p = random_two_sided(rng, nv)
        else:
            p = initial_bisection(g, rng.uniform(0.2, 0.8), seed=seed)
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        target = w0 / total if rng.random() < 0.75 else rng.uniform(0.2, 0.8)
        tol = rng.choice([0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.5)])
        passes = rng.choice([1, 10])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BalanceWindowWarning)
            expected = _scan_fm_refine(g, p, target, tol, passes)
            got = fm_refine(g, p, target, tol, passes)
        assert got.parts.tobytes() == expected.parts.tobytes()

        expected = _scan_rebalance(g, p.parts.copy(), target)
        assert _rebalance(g, p.parts.copy(), target).tobytes() == expected.tobytes()

        need0 = rng.randint(1, nv - 1)
        mins = (need0, rng.randint(1, nv - need0))
        expected = _scan_repair_counts(g, p.parts.copy(), mins)
        assert _repair_counts(g, p.parts.copy(), mins).tobytes() == expected.tobytes()

    def test_keys_past_int64_keep_every_choice(self):
        """Scaling every edge weight by 2**50 scales every gain and cut alike, so
        no choice may change, although gain * num_vertices now exceeds int64."""
        rng = random.Random(5)
        unit = dual_graph(generate_structured_quad(32, 32))
        src = np.repeat(np.arange(unit.num_vertices), np.diff(unit.adjacency_offsets))
        upper = src < unit.adjacency_list
        weights = [rng.randint(1, 3) for _ in range(int(upper.sum()))]
        edges = np.column_stack([src[upper], unit.adjacency_list[upper], weights])
        small = build_graph(edges, unit.num_vertices)
        edges[:, 2] <<= 50
        big = build_graph(edges, unit.num_vertices)
        p = random_two_sided(rng, unit.num_vertices)
        assert big.num_vertices * int(np.abs(_compute_gains(big, p.parts)).max()) >= 2**63
        w0 = int(big.vertex_weights[p.parts == 0].sum())
        target = w0 / big.total_vertex_weight
        assert np.array_equal(
            fm_refine(big, p, target, 0.05).parts, fm_refine(small, p, target, 0.05).parts
        )
        assert np.array_equal(
            _rebalance(big, p.parts.copy(), 0.3), _rebalance(small, p.parts.copy(), 0.3)
        )
        mins = (900, 100)
        assert np.array_equal(
            _repair_counts(big, p.parts.copy(), mins), _repair_counts(small, p.parts.copy(), mins)
        )

    def test_step_on_empty_candidates_moves_nothing(self, path4):
        heaps = _GainHeaps(path4)
        heaps.load(np.array([0, 0, 1, 1]))
        assert heaps.step([]) == -1
        assert heaps.step([heaps.heaps[0, 1]], lock=True) == 1  # gains 0 at ids 1, 2
        assert heaps.parts == [0, 1, 1, 1] and heaps.gains == [1, 0, -2, -1]


class TestPartitionKway:
    def test_even_split(self, path4):
        p = partition_kway(path4, 2, TargetWeights.uniform(2), seed=7)
        assert sorted(p.part_sizes().tolist()) == [2, 2]
        assert edge_cut(path4, p) == 1

    def test_single_part(self, path4):
        p = partition_kway(path4, 1, TargetWeights.uniform(1), seed=0)
        assert p.parts.tolist() == [0, 0, 0, 0]

    def test_lopsided_split(self, path4):
        p = partition_kway(path4, 2, TargetWeights([0.25, 0.75]), seed=7)
        assert sorted(p.part_sizes().tolist()) == [1, 3]
        assert edge_cut(path4, p) == 1

    def test_part_ids_follow_weight_order(self, path4):
        p = partition_kway(path4, 2, TargetWeights([0.25, 0.75]), seed=7)
        sizes = p.part_sizes()
        assert sizes[0] == 1 and sizes[1] == 3

    def test_more_parts_than_vertices(self, path4):
        with pytest.raises(InfeasibleError):
            partition_kway(path4, 5, TargetWeights.uniform(5), seed=0)

    def test_weight_count_mismatch(self, path4):
        with pytest.raises(ValueError):
            partition_kway(path4, 3, TargetWeights.uniform(2), seed=0)

    def test_min_part_counts(self):
        g = dual_graph(generate_structured_quad(4, 4))
        p = partition_kway(
            g, 3, TargetWeights([0.2, 0.4, 0.4]), seed=5, min_part_counts=[2, 4, 4]
        )
        sizes = p.part_sizes()
        assert (sizes >= np.array([2, 4, 4])).all()

    def test_every_part_nonempty_at_the_limit(self):
        g = dual_graph(generate_structured_quad(3, 2))
        p = partition_kway(g, 6, TargetWeights.uniform(6), seed=3)
        assert p.part_sizes().tolist() == [1, 1, 1, 1, 1, 1]

    def test_determinism(self):
        g = dual_graph(generate_structured_quad(8, 8))
        a = partition_kway(g, 5, TargetWeights.uniform(5), seed=42)
        b = partition_kway(g, 5, TargetWeights.uniform(5), seed=42)
        assert np.array_equal(a.parts, b.parts)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_balance_on_structured_duals(self, k):
        """Part sizes stay within tol*nv/k + 1 of nv/k on grids >= 4k vertices."""
        g = dual_graph(generate_structured_quad(16, 16))
        tol = 0.03
        p = partition_kway(g, k, TargetWeights.uniform(k), seed=1, imbalance_tol=tol)
        target = g.num_vertices / k
        for size in p.part_sizes():
            assert abs(size - target) <= tol * target + 1

    @given(st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_all_parts_nonempty_random(self, seed):
        rng = random.Random(seed)
        g, _, nv = random_graph(rng, 16)
        if nv < 2:
            return
        k = rng.randint(2, min(6, nv))
        p = partition_kway(g, k, TargetWeights.uniform(k), seed=seed)
        assert p.part_sizes().min() >= 1
        assert p.num_parts == k


class TestRefinementCallStructure:
    """perfbench's tracer counts FM by rebinding ``kway.fm_refine``."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("target_fraction", [0.5, 0.3])
    def test_one_fm_call_per_start_and_level(self, monkeypatch, seed, target_fraction):
        g = dual_graph(generate_structured_quad(16, 16))
        fm_args, starts = [], []
        real_fm, real_init = kway.fm_refine, kway.initial_bisection

        def fm(graph, p, *args, **kwargs):
            fm_args.append((graph, p))
            return real_fm(graph, p, *args, **kwargs)

        def init(*args, **kwargs):
            starts.append(kwargs.get("start"))
            return real_init(*args, **kwargs)

        monkeypatch.setattr(kway, "fm_refine", fm)
        monkeypatch.setattr(kway, "initial_bisection", init)
        kway._multilevel_bisect(g, target_fraction, 0.03, seed)
        chain = kway._coarsening_chain(g, seed)
        assert chain and starts
        assert all(isinstance(graph, Graph) for graph, _ in fm_args)
        assert all(isinstance(p, Partition) and p.num_parts == 2 for _, p in fm_args)
        assert len(fm_args) == len(starts) + len(chain)
