import math
import random
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_two_sided
from hierpart import kway
from hierpart import (
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
    hierarchical_partition,
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
    @pytest.mark.parametrize("seed", range(8))
    def test_prefers_heaviest_edge(self, seed):
        # Path 0-1-2-3 weighing 5, 1, 5: every visit order pairs {0, 1} and {2, 3}.
        g = build_graph([(0, 1, 5), (1, 2, 1), (2, 3, 5)], 4)
        assert heavy_edge_match(g, seed=seed).tolist() == [1, 0, 3, 2]

    def test_tie_breaks_to_lowest_id(self):
        # Path 0-1-2 with equal weights: the first vertex visited decides. The
        # middle one takes its lower neighbour 0; an end takes the middle.
        g = build_graph([(0, 1, 1), (1, 2, 1)], 3)
        firsts = set()
        for seed in range(20):
            visit = list(range(3))
            random.Random(seed).shuffle(visit)
            firsts.add(visit[0])
            expected = [0, 2, 1] if visit[0] == 2 else [1, 0, 2]
            assert heavy_edge_match(g, seed=seed).tolist() == expected
        assert firsts == {0, 1, 2}

    def test_single_vertex(self):
        g = build_graph([], 1)
        assert heavy_edge_match(g, seed=4).tolist() == [0]

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

    def test_weights_past_2_to_the_53_sum_exactly(self):
        # Summed in float64, B + 1 would round back to B.
        big = 2**53
        g = build_graph([(0, 2, big), (1, 3, 1), (0, 1, 1), (2, 3, 1)], 4, [big, 1, 1, 1])
        level = coarsen(g, [1, 0, 3, 2])
        assert level.graph.edge_weights.tolist() == [big + 1, big + 1]
        assert level.graph.vertex_weights.tolist() == [big + 1, 2]

    def test_invalid_matching_rejected(self, path4):
        with pytest.raises(ValueError, match="symmetric"):
            coarsen(path4, [1, 2, 0, 3])
        with pytest.raises(ValueError):
            coarsen(path4, [0, 1])
        with pytest.raises(ValueError):
            coarsen(path4, [0, 1, 2, 9])

    @pytest.mark.parametrize("edge_weights, vertex_weights, message", [
        ([0, 0], [1, 1], r"^edge \(0, 1\) has non-positive weight 0$"),
        ([1, 1], [0, 1], r"^vertex weights must be >= 1$"),
        ([2**62, 2**62], [1, 1], r"^edge weights must total less than 2\*\*62$"),
    ])
    def test_hand_built_graphs_with_bad_weights_are_refused(
        self, edge_weights, vertex_weights, message
    ):
        """A hand-built Graph is not checked when it is made; coarsening it
        (here with an empty matching) refuses the weights build_graph refuses."""
        g = Graph([0, 1, 2], [1, 0], edge_weights, vertex_weights)
        with pytest.raises(ValueError, match=message):
            coarsen(g, [0, 1])

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
        p = initial_bisection(path4, 0.5, start=0)
        assert p.parts.tolist() == [0, 0, 1, 1]

    def test_stops_at_single_vertex(self, path4):
        p = initial_bisection(path4, 0.25, start=2)
        assert p.parts.tolist() == [1, 1, 0, 1]

    def test_exhausts_component_exactly(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], 4)
        p = initial_bisection(g, 0.5, start=0)
        assert p.parts.tolist() == [0, 0, 1, 1]

    def test_jumps_to_lowest_unreached_vertex(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], 4)
        p = initial_bisection(g, 0.75, start=0)
        assert p.parts.tolist() == [0, 0, 0, 1]

    def test_invalid_fraction(self, path4):
        with pytest.raises(ValueError):
            initial_bisection(path4, 0.0, start=0)
        with pytest.raises(ValueError):
            initial_bisection(path4, 1.0, start=0)

    @pytest.mark.parametrize("start", [-1, 4])
    def test_start_outside_the_vertices_is_refused(self, path4, start):
        with pytest.raises(ValueError, match=rf"start vertex {start} is outside \[0, 4\)"):
            initial_bisection(path4, 0.5, start=start)

    @pytest.mark.parametrize("start", [2.9, 2.0])
    def test_non_integer_start_is_refused(self, path4, start):
        with pytest.raises(ValueError, match=rf"start vertex {start} is not an integer"):
            initial_bisection(path4, 0.5, start)


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

    def test_out_of_window_input_is_refined_not_refused(self, path4):
        # Part 0 weighs 3 against a target of 2: the window widens to admit it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fm_refine(path4, Partition([0, 0, 0, 1], 2), 0.5, 0.0)
        assert edge_cut(path4, out) <= 1
        assert abs(int((out.parts == 0).sum()) - 2) <= 1

    def test_empty_and_single_vertex_graphs(self):
        empty = fm_refine(build_graph([], 0), Partition(np.zeros(0, dtype=np.int64), 2), 0.5, 0.1)
        assert empty.parts.tolist() == []
        single = fm_refine(build_graph([], 1), Partition([1], 2), 0.5, 0.6)
        assert single.parts.tolist() == [1]

    def test_requires_two_parts(self, path4):
        with pytest.raises(ValueError):
            fm_refine(path4, Partition([0, 1, 2, 0], 3), 0.5, 0.1)

    def test_edge_weights_past_2_to_the_53_keep_the_cut(self):
        # Gains summed in float64 lose the +4 and +8 next to 2**53, and FM
        # then takes a move that raises the cut from 4 to 5.
        big = 2**53
        g = build_graph([(0, 3, big + 4), (0, 4, 4), (1, 2, 3), (1, 4, big + 8), (2, 3, 1)], 5)
        p = Partition([0, 0, 1, 0, 0], 2)
        assert edge_cut(g, p) == 4
        assert _compute_gains(g, p.parts).tolist() == [-big - 8, -big - 5, 4, -big - 3, -big - 12]
        assert edge_cut(g, fm_refine(g, p, 0.5, 0.1)) <= 4

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -0.1])
    def test_tolerance_must_be_finite_and_non_negative(self, path4, tol):
        # Taken silently, inf would return [0, 0, 0, 0] and leave part 1 empty.
        with pytest.raises(ValueError, match="^imbalance_tol must be a finite number >= 0, got "):
            fm_refine(path4, Partition([0, 1, 0, 1], 2), 0.5, tol)

    @pytest.mark.parametrize("target", [0.0, 1.0, float("nan")])
    def test_target_fraction_must_lie_strictly_between_zero_and_one(self, path4, target):
        with pytest.raises(ValueError, match=r"^target_fraction must lie in \(0, 1\)$"):
            fm_refine(path4, Partition([0, 1, 0, 1], 2), target, 0.1)

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

    @given(
        st.integers(0, 10_000),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.0, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_window_refines_without_warning_within_the_widened_window(
        self, seed, target_fraction, tol
    ):
        rng = random.Random(seed)
        g, _, nv = random_graph(rng, 12)
        if nv < 2:
            return
        p = random_two_sided(rng, nv)
        total = g.total_vertex_weight
        target = target_fraction * total
        dev_in = abs(int(g.vertex_weights[p.parts == 0].sum()) - target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fm_refine(g, p, target_fraction, tol)
        assert edge_cut(g, out) <= edge_cut(g, p)
        dev_out = abs(int(g.vertex_weights[out.parts == 0].sum()) - target)
        window = max(tol, dev_in / total + 1e-12) * total
        assert dev_out <= window + 1e-9 * max(1.0, total)


# Reference engine: the O(n)-per-move argmax scans the gain heaps replaced,
# kept as the oracle for exact selection (highest gain, then lowest id).


def _scan_apply_move_gains(g, parts, gains, v):
    nbrs = g.adjacency_list[g.adjacency_offsets[v]:g.adjacency_offsets[v + 1]]
    wgts = g.edge_weights[g.adjacency_offsets[v]:g.adjacency_offsets[v + 1]]
    same = parts[nbrs] == parts[v]
    gains[nbrs] += np.where(same, -2 * wgts, 2 * wgts)
    gains[v] = -gains[v]


def _scan_fm_refine(g, p, target_fraction, imbalance_tol, max_passes=10):
    nv = g.num_vertices
    vw = g.vertex_weights
    total = g.total_vertex_weight
    target = target_fraction * total
    parts = p.parts.copy()
    w0 = int(vw[parts == 0].sum())
    # The window widens to the input's own deviation, as in fm_refine.
    window = max(imbalance_tol, abs(w0 - target) / total + 1e-12) * total
    eps = 1e-9 * max(1.0, total)
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
    """Random graph with vertex weights 1-5 (several weight classes), edge weights 1-3.

    The vertex weights are sometimes scaled so that the total passes 2**53,
    where part 0 weights no longer convert to floats exactly and
    ``x - target`` rounds.
    """
    nv = rng.randint(2, 40)
    density = rng.choice([0.1, 0.25, 0.5])
    edges = [
        (u, v, rng.randint(1, 3))
        for u in range(nv)
        for v in range(u + 1, nv)
        if rng.random() < density
    ]
    scale = rng.choice([1, 1, 2**50, 3**33, 2**55])
    g = build_graph(edges, nv, [rng.randint(1, 5) * scale for _ in range(nv)])
    return g, random_two_sided(rng, nv)


def _draw_target(rng, w0, total):
    """A target fraction: the input's own, a random one, or one whose target
    lands on an integral or half-integral part 0 weight."""
    return rng.choice([
        w0 / total,
        rng.uniform(0.05, 0.95),
        rng.randint(total // 10 + 1, 2 * total - total // 10 - 1) / 2 / total,
    ])


def _draw_tol(rng, g, parts, target_fraction):
    """A tolerance: 0, a random one, or the least whose window reaches the part
    0 weight one random move would leave, by fm_refine's float expression."""
    vw, total = g.vertex_weights, g.total_vertex_weight
    target = target_fraction * total
    w0 = int(vw[parts == 0].sum())
    v = rng.randrange(g.num_vertices)
    x = w0 - int(vw[v]) if parts[v] == 0 else w0 + int(vw[v])
    d, eps = abs(x - target), 1e-9 * max(1.0, total)
    edge = max(0.0, (d - eps) / total)
    while edge * total + eps < d:
        edge = math.nextafter(edge, math.inf)
    return rng.choice([0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.5), edge])


def _draw_window(rng, w0):
    """A window for part 0's weight near ``w0``: empty, one point, one-sided,
    unbounded or random."""
    a, b = sorted(w0 + rng.randint(-6, 6) for _ in range(2))
    return rng.choice([(b + 1, a), (a, a), (-math.inf, a), (a, math.inf), (-math.inf, math.inf), (a, b)])


class TestGainHeapEngine:
    """The gain-heap engine picks exactly the moves the O(n) scans picked."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_fm_refine_matches_scan(self, seed):
        rng = random.Random(seed)
        g, p = _weighted_instance(rng)
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        # The input's own target is always admitted; others may lie outside
        # tol, and then the window widens.
        target = _draw_target(rng, w0, g.total_vertex_weight)
        tol = _draw_tol(rng, g, p.parts, target)
        passes = rng.choice([1, 2, 10])
        expected = _scan_fm_refine(g, p, target, tol, passes)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            with mock.patch.object(kway, "_MAX_FM_PASSES", passes):
                got = fm_refine(g, p, target, tol)
        assert got.parts.tobytes() == expected.parts.tobytes()
        assert got_warnings == []

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_rebalance_matches_scan(self, seed):
        rng = random.Random(seed)
        g, p = _weighted_instance(rng)
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        target = _draw_target(rng, w0, g.total_vertex_weight)
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
            p = initial_bisection(g, rng.uniform(0.2, 0.8), start=random.Random(seed).randrange(nv))
        w0 = int(g.vertex_weights[p.parts == 0].sum())
        target = w0 / total if rng.random() < 0.5 else _draw_target(rng, w0, total)
        tol = _draw_tol(rng, g, p.parts, target)
        passes = rng.choice([1, 10])
        # Ten passes is fm_refine's own limit, so only one pass needs a patch.
        limit = mock.patch.object(kway, "_MAX_FM_PASSES", 1) if passes == 1 else nullcontext()
        expected = _scan_fm_refine(g, p, target, tol, passes)
        with limit:
            got = fm_refine(g, p, target, tol)
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

    @pytest.mark.parametrize(
        "side0, engines",
        [([3, 5], 0), ([0, 5], 0), ([1, 2, 3, 4], 0), ([0, 1, 5], 1), ([2, 3, 4], 1)],
        ids=["w0=21", "w0=19", "w0=23", "w0=24", "w0=18"],
    )
    def test_rebalance_builds_no_engine_when_nothing_can_move(self, monkeypatch, side0, engines):
        """Vertex weights 4, 5, 5, 6, 7, 15 against a target of 21: part 0 at
        21, 19 or 23 lies within half the lightest vertex of it, so no move can
        shrink the deviation and no engine is built; at 24 or 18 one is."""
        g = build_graph([(v, v + 1, 1) for v in range(5)], 6, [4, 5, 5, 6, 7, 15])
        parts = np.ones(6, dtype=np.int64)
        parts[side0] = 0
        built = []
        monkeypatch.setattr(kway, "_GainHeaps", lambda g: built.append(g) or _GainHeaps(g))
        expected = _scan_rebalance(g, parts.copy(), 0.5)
        assert _rebalance(g, parts.copy(), 0.5).tobytes() == expected.tobytes()
        assert len(built) == engines

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_step_moves_the_best_vertex_inside_the_window(self, seed):
        """Brute force on graphs of at most 10 vertices, vertex weights 1-4:
        each step moves the highest-gain, lowest-id unlocked vertex whose flip
        keeps part 0's weight in the window, or returns -1 when none does, and
        leaves w0, parts and gains equal to a recount from scratch."""
        rng = random.Random(seed)
        nv = rng.randint(1, 10)
        density = rng.choice([0.2, 0.5, 0.9])
        edges = [
            (u, v, rng.randint(1, 3))
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < density
        ]
        vw = [rng.randint(1, 4) for _ in range(nv)]
        g = build_graph(edges, nv, vw)
        heaps = _GainHeaps(g)
        for _ in range(rng.randint(1, 3)):  # each load unlocks every vertex
            parts = [rng.randint(0, 1) for _ in range(nv)]
            heaps.load(np.array(parts, dtype=np.int64))
            locked = set()
            for _ in range(rng.randint(1, 15)):
                w0 = sum(w for w, side in zip(vw, parts) if side == 0)
                lo, hi = _draw_window(rng, w0)
                lock = rng.random() < 0.5
                gains = _compute_gains(g, np.array(parts, dtype=np.int64)).tolist()
                fits = [
                    v for v in range(nv)
                    if v not in locked and lo <= w0 + (vw[v] if parts[v] else -vw[v]) <= hi
                ]
                expected = max(fits, key=lambda v: (gains[v], -v), default=-1)
                assert heaps.step(lo, hi, lock) == expected
                if expected >= 0:
                    parts[expected] ^= 1
                    if lock:
                        locked.add(expected)
                assert heaps.parts == parts
                assert heaps.w0 == sum(w for w, side in zip(vw, parts) if side == 0)
                assert heaps.gains == _compute_gains(g, np.array(parts, dtype=np.int64)).tolist()


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

    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 7), (5, 42), (8, 3)])
    def test_no_weights_mean_uniform_targets(self, k, seed):
        g = dual_graph(generate_structured_quad(8, 8))
        uniform = partition_kway(g, k, TargetWeights.uniform(k), seed)
        assert partition_kway(g, k, None, seed).parts.tobytes() == uniform.parts.tobytes()

    def test_part_count_past_the_vertices_is_refused_before_sizing(self, path4):
        # Uniform targets for 2**62 parts would not fit in memory.
        message = f"^cannot cut 4 vertices into {2**62} nonempty parts$"
        with pytest.raises(InfeasibleError, match=message):
            partition_kway(path4, 2**62, None, seed=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -0.5, -1e-300])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # Taken silently, nan and -0.5 would skip refinement here (cut 61
        # against 32 at 0.03) and inf would give part sizes [1, 253, 1, 1].
        g = dual_graph(generate_structured_quad(16, 16))
        with pytest.raises(ValueError, match="^imbalance_tol must be a finite number >= 0, got "):
            partition_kway(g, 4, None, seed=0, imbalance_tol=tol)
        with pytest.raises(ValueError, match="^imbalance_tol must be a finite number >= 0, got "):
            hierarchical_partition(g, 4, 2, seed=0, imbalance_tol=tol)

    @pytest.mark.parametrize("fractions, message", [
        ([1.0, 1e-300], r"^target fractions \[1\.0, 1e-300\] cannot be bisected: the first 1's "),
        ([0.5, 0.5, 1e-17], r"^target fractions \[0\.5, 0\.5, 1e-17\] cannot be bisected: "),
    ])
    def test_target_share_that_rounds_to_one_is_refused_up_front(self, fractions, message):
        g = dual_graph(generate_structured_quad(4, 4))
        with mock.patch.object(kway, "_multilevel_bisect") as bisect:
            with pytest.raises(ValueError, match=message):
                partition_kway(g, len(fractions), TargetWeights(fractions), 0)
        bisect.assert_not_called()

    def test_tiny_leading_target_still_partitions(self):
        g = dual_graph(generate_structured_quad(4, 4))
        p = partition_kway(g, 2, TargetWeights([1e-300, 1.0]), 0)
        assert p.part_sizes().tolist() == [1, 15]

    def test_zero_tolerance_is_accepted(self):
        g = dual_graph(generate_structured_quad(16, 16))
        assert partition_kway(g, 4, None, seed=0, imbalance_tol=0.0).part_sizes().min() >= 1

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
        kway._multilevel_bisect(g, target_fraction, 0.03, seed, (1, 1))
        chain = kway._coarsening_chain(g, seed)
        assert chain and starts
        assert all(isinstance(graph, Graph) for graph, _ in fm_args)
        assert all(isinstance(p, Partition) and p.num_parts == 2 for _, p in fm_args)
        assert len(fm_args) == len(starts) + len(chain)

    @staticmethod
    def _every_start_bisect(g, target_fraction, tol, seed):
        """``_multilevel_bisect`` on a graph too small to coarsen, refining
        every coarsest start, repeated bisections too."""
        nv, best = g.num_vertices, None
        target = target_fraction * g.total_vertex_weight
        seeded = random.Random(derive_seed(seed, 2)).randrange(nv)
        for start in dict.fromkeys((seeded, 0, nv - 1, nv // 2)):
            cand = initial_bisection(g, target_fraction, start=start).parts
            if cand.min() == cand.max():
                cand[np.argmax(g.vertex_weights == g.vertex_weights.min())] = 1
            cand = fm_refine(g, Partition(_rebalance(g, cand, target_fraction), 2),
                             target_fraction, tol).parts
            key = (edge_cut(g, Partition(cand, 2)),
                   abs(float(g.vertex_weights[cand == 0].sum()) - target))
            if best is None or key < best[0]:
                best = key, cand
        return _repair_counts(g, best[1], (1, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_start_that_grows_an_earlier_bisection_is_not_refined(self, monkeypatch, seed):
        # On the path 0-1-2, half the weight is two vertices: starts 0 and 1
        # (nv // 2) both grow {0, 1}, and start 2 (nv - 1) grows {1, 2}.
        g = build_graph([(0, 1, 1), (1, 2, 1)], 3)
        expected = self._every_start_bisect(g, 0.5, 0.03, seed)
        calls = []
        real_fm = kway.fm_refine
        monkeypatch.setattr(kway, "fm_refine", lambda *args: calls.append(args) or real_fm(*args))
        got = kway._multilevel_bisect(g, 0.5, 0.03, seed, (1, 1))
        assert len(calls) == 2
        assert got.tobytes() == expected.tobytes()

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_skipped_starts_leave_the_bisection_unchanged(self, seed):
        """Graphs of at most 12 vertices, too small to coarsen: one FM call per
        distinct grown bisection, and the parts of refining every start."""
        rng = random.Random(seed)
        g = random_graph(rng, 12)[0]
        if g.num_vertices < 2:
            return
        target, tol = rng.uniform(0.2, 0.8), rng.choice([0.0, 0.03, 0.2])
        expected = self._every_start_bisect(g, target, tol, seed)
        grown, calls = set(), []
        real_init, real_fm = kway.initial_bisection, kway.fm_refine

        def init(*args, **kwargs):
            parts = real_init(*args, **kwargs).parts.copy()
            if parts.min() == parts.max():
                parts[np.argmax(g.vertex_weights == g.vertex_weights.min())] = 1
            grown.add(parts.tobytes())
            return real_init(*args, **kwargs)

        with mock.patch.object(kway, "initial_bisection", init), \
                mock.patch.object(kway, "fm_refine", lambda *a: calls.append(a) or real_fm(*a)):
            got = kway._multilevel_bisect(g, target, tol, seed, (1, 1))
        assert len(calls) == len(grown)
        assert got.tobytes() == expected.tobytes()
