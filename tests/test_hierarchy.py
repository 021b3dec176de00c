import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart import hierarchy, kway
from hierpart import (
    InfeasibleError,
    Partition,
    TargetWeights,
    compose_final,
    compute_splits,
    discover_exchange,
    dual_graph,
    edge_cut,
    extract_subgraph,
    generate_structured_quad,
    hierarchical_partition,
    partition_kway,
    trivial_distribute,
)


class TestComputeSplits:
    def test_remainder_becomes_leading_group(self):
        plan = compute_splits(10, 4)
        assert plan.num_groups == 3
        assert plan.group_counts.tolist() == [2, 4, 4]
        assert plan.weights.fractions.tolist() == [0.2, 0.4, 0.4]
        assert plan.offsets.tolist() == [0, 2, 6]

    def test_exact_division(self):
        plan = compute_splits(8, 4)
        assert plan.num_groups == 2
        assert plan.group_counts.tolist() == [4, 4]
        assert plan.weights.fractions.tolist() == [0.5, 0.5]
        assert plan.offsets.tolist() == [0, 4]

    def test_degenerate_single(self):
        plan = compute_splits(1, 1)
        assert plan.group_counts.tolist() == [1]
        assert plan.weights.fractions.tolist() == [1.0]
        assert plan.offsets.tolist() == [0]

    def test_fewer_parts_than_group_size(self):
        plan = compute_splits(3, 4)
        assert plan.num_groups == 1
        assert plan.group_counts.tolist() == [3]
        assert plan.weights.fractions.tolist() == [1.0]
        assert plan.offsets.tolist() == [0]

    @pytest.mark.parametrize("group", [6, 2**63, 2**70])
    def test_group_size_at_or_past_the_total_is_one_group(self, group):
        # A group size past int64 must not reach counts.fill: it raises OverflowError.
        plan, one_group = compute_splits(6, group), compute_splits(6, 7)
        assert (plan.total_parts, plan.num_groups) == (one_group.total_parts, 1)
        for name in ("group_counts", "offsets"):
            assert getattr(plan, name).tolist() == getattr(one_group, name).tolist()
        assert plan.weights.fractions.tolist() == one_group.weights.fractions.tolist() == [1.0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            compute_splits(0, 4)
        with pytest.raises(ValueError):
            compute_splits(4, 0)

    @given(st.integers(1, 1024), st.integers(1, 128))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, total, group):
        plan = compute_splits(total, group)
        counts = plan.group_counts
        assert int(counts.sum()) == total
        assert counts.min() >= 1 and counts.max() <= group
        assert plan.offsets[0] == 0
        assert np.array_equal(np.diff(plan.offsets), counts[:-1])
        assert int(plan.offsets[-1] + counts[-1]) == total
        assert abs(plan.weights.fractions.sum() - 1.0) <= 1e-12


class TestTrivialDistribute:
    def test_uneven(self):
        layout = trivial_distribute(10, 3)
        assert layout.chunk_bounds.tolist() == [[0, 4], [4, 7], [7, 10]]

    def test_single_rank(self):
        assert trivial_distribute(4, 1).chunk_bounds.tolist() == [[0, 4]]

    def test_even(self):
        assert trivial_distribute(6, 3).chunk_bounds.tolist() == [[0, 2], [2, 4], [4, 6]]

    def test_errors(self):
        with pytest.raises(InfeasibleError):
            trivial_distribute(2, 3)
        with pytest.raises(ValueError):
            trivial_distribute(2, 0)


class TestDiscoverExchange:
    def test_small_worked_case(self):
        layout = trivial_distribute(4, 2)
        plan = discover_exchange(layout, Partition([1, 0, 0, 1], 2))
        lists = {k: v.tolist() for k, v in plan.transfers.items()}
        assert lists == {(0, 1): [0], (0, 0): [1], (1, 0): [2], (1, 1): [3]}
        assert plan.received(0).tolist() == [1, 2]
        assert plan.received(1).tolist() == [0, 3]

    def test_identity_on_one_rank(self):
        layout = trivial_distribute(3, 1)
        plan = discover_exchange(layout, Partition([0, 0, 0], 1))
        assert plan.transfers[(0, 0)].tolist() == [0, 1, 2]

    def test_all_self_sends(self):
        layout = trivial_distribute(4, 2)
        plan = discover_exchange(layout, Partition([0, 0, 1, 1], 2))
        assert set(plan.transfers) == {(0, 0), (1, 1)}

    def test_part_id_beyond_ranks(self):
        layout = trivial_distribute(4, 2)
        with pytest.raises(ValueError):
            discover_exchange(layout, Partition([0, 1, 2, 0], 3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, seed):
        rng = random.Random(seed)
        ranks = rng.randint(1, 8)
        nv = rng.randint(ranks, 400)
        p1 = Partition(np.array([rng.randrange(ranks) for _ in range(nv)]), ranks)
        plan = discover_exchange(trivial_distribute(nv, ranks), p1)
        assert plan.total_transferred() == nv
        everything = np.concatenate([plan.received(c) for c in range(ranks)])
        assert np.array_equal(np.sort(everything), np.arange(nv))
        for c in range(ranks):
            # What the driver takes for group c: the same ids in the same order.
            assert plan.received(c).tolist() == np.flatnonzero(p1.parts == c).tolist()


class TestComposeFinal:
    def test_uniform_groups_match_multiplication(self):
        plan = compute_splits(8, 4)
        out = compose_final(Partition([0, 1], 2), Partition([2, 3], 4), plan)
        assert out.parts.tolist() == [2, 7]

    def test_remainder_offsets(self):
        plan = compute_splits(10, 4)
        out = compose_final(Partition([0, 1, 2], 3), Partition([1, 3, 0], 4), plan)
        assert out.parts.tolist() == [1, 5, 6]

    def test_unit_groups_reduce_to_first_stage(self):
        plan = compute_splits(3, 1)
        out = compose_final(Partition([2, 0, 1], 3), Partition([0, 0, 0], 1), plan)
        assert out.parts.tolist() == [2, 0, 1]

    def test_rejects_overflow_in_group(self):
        plan = compute_splits(10, 4)  # group 0 holds only 2 parts
        with pytest.raises(ValueError):
            compose_final(Partition([0], 1), Partition([2], 4), plan)
        with pytest.raises(ValueError):
            compose_final(Partition([0, 1], 2), Partition([0], 1), plan)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_block_structure(self, seed):
        rng = random.Random(seed)
        group_size = rng.randint(1, 8)
        total = rng.randint(1, 6) * group_size + rng.randint(0, group_size - 1)
        total = max(total, 1)
        plan = compute_splits(total, group_size)
        nv = rng.randint(1, 50)
        p1 = np.array([rng.randrange(plan.num_groups) for _ in range(nv)])
        p2 = np.array([rng.randrange(plan.group_counts[c]) for c in p1])
        out = compose_final(
            Partition(p1, plan.num_groups),
            Partition(p2, int(plan.group_counts.max())),
            plan,
        )
        assert out.parts.min() >= 0 and out.parts.max() < total
        for c in range(plan.num_groups):
            lo = plan.offsets[c]
            hi = lo + plan.group_counts[c]
            mask = p1 == c
            assert ((out.parts[mask] >= lo) & (out.parts[mask] < hi)).all()


class TestHierarchicalPartition:
    def test_four_singletons(self):
        g = dual_graph(generate_structured_quad(2, 2))
        p = hierarchical_partition(g, 4, 2, seed=9)
        assert p.part_sizes().tolist() == [1, 1, 1, 1]

    def test_single_part_is_zeros(self):
        g = dual_graph(generate_structured_quad(3, 3))
        p = hierarchical_partition(g, 1, 4, seed=9)
        assert p.parts.tolist() == [0] * 9

    def test_unit_group_size_equals_flat(self):
        g = dual_graph(generate_structured_quad(8, 8))
        for k, seed in [(5, 11), (7, 0), (3, 123)]:
            hier = hierarchical_partition(g, k, 1, seed=seed)
            flat = partition_kway(g, k, TargetWeights.uniform(k), seed=seed)
            assert np.array_equal(hier.parts, flat.parts)

    def test_infeasible(self):
        g = dual_graph(generate_structured_quad(2, 2))
        with pytest.raises(InfeasibleError):
            hierarchical_partition(g, 5, 2, seed=0)
        with pytest.raises(ValueError):
            hierarchical_partition(g, 0, 2, seed=0)
        # A bad group size is a ValueError even when the part count is infeasible.
        for total, group in [(5, 0), (4, 0), (0, 0)]:
            with pytest.raises(ValueError, match="total_parts and group_size must be >= 1"):
                hierarchical_partition(g, total, group, seed=0)

    def test_infeasible_count_is_refused_before_sizing_groups(self, monkeypatch):
        # compute_splits allocates per group; 10**9 groups would take ~24 GB.
        def refuse(*args):
            raise AssertionError("compute_splits ran on an infeasible part count")

        monkeypatch.setattr(hierarchy, "compute_splits", refuse)
        g = dual_graph(generate_structured_quad(2, 2))
        with pytest.raises(InfeasibleError, match="cannot cut 4 vertices into 1000000000"):
            hierarchical_partition(g, 10**9, 1, seed=0)

    def test_deterministic(self):
        g = dual_graph(generate_structured_quad(10, 10))
        a = hierarchical_partition(g, 10, 4, seed=2)
        b = hierarchical_partition(g, 10, 4, seed=2)
        assert np.array_equal(a.parts, b.parts)

    def test_all_parts_nonempty_with_remainder_group(self):
        g = dual_graph(generate_structured_quad(10, 10))
        for total, group in [(10, 4), (7, 3), (13, 5), (6, 6)]:
            p = hierarchical_partition(g, total, group, seed=5)
            assert p.num_parts == total
            assert p.part_sizes().min() >= 1

    @pytest.mark.parametrize(
        "total, group_size, seed", [(9, 4, 6), (17, 8, 3), (30, 7, 1), (13, 5, 11)]
    )
    def test_stage_two_seeds_follow_the_group_id(self, total, group_size, seed):
        # A remainder group leads. When it holds one part (9/4, 17/8) it runs no
        # stage two, so the groups that do are not the first ones in their list.
        g = dual_graph(generate_structured_quad(12, 12))
        plan = compute_splits(total, group_size)
        assert 0 < plan.group_counts[0] < group_size
        p1 = partition_kway(
            g, plan.num_groups, plan.weights, seed=seed, min_part_counts=plan.group_counts
        )
        final = hierarchical_partition(g, total, group_size, seed=seed)
        for group, count in enumerate(plan.group_counts.tolist()):
            members = np.flatnonzero(p1.parts == group)
            local = np.zeros(len(members), dtype=np.int64)
            if count > 1:
                sub, _ = extract_subgraph(g, members)
                weights = TargetWeights.uniform(count)
                local = partition_kway(sub, count, weights, seed=seed ^ group).parts
            assert np.array_equal(final.parts[members], plan.offsets[group] + local)

    @pytest.mark.parametrize("total, group_size", [(9, 4), (30, 7), (8, 4), (5, 1)])
    def test_every_stage_is_cut_through_the_traced_name(self, monkeypatch, total, group_size):
        # perfbench's tracer sees both stages only as calls to hierarchy.partition_kway.
        monkeypatch.setattr(kway, "_spare_cpus", 0)
        original, part_counts = hierarchy.partition_kway, []

        def spy(g, num_parts, *args, **kwargs):
            part_counts.append(num_parts)
            return original(g, num_parts, *args, **kwargs)

        monkeypatch.setattr(hierarchy, "partition_kway", spy)
        g = dual_graph(generate_structured_quad(12, 12))
        hierarchical_partition(g, total, group_size, seed=0)
        counts = compute_splits(total, group_size).group_counts.tolist()
        assert part_counts == [len(counts)] + [count for count in counts if count > 1]

    def test_cut_is_reported_consistently(self):
        g = dual_graph(generate_structured_quad(12, 12))
        p = hierarchical_partition(g, 6, 3, seed=4)
        assert edge_cut(g, p) > 0  # six parts of a connected grid must cut
