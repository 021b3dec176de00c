import random
from pathlib import Path

import numpy as np
import pytest

from hierpart import (
    FileFormatError,
    Mesh,
    NodeOwnership,
    Partition,
    assign_interface_partition,
    assign_lowest_rank,
    assign_parity,
    generate_structured_quad,
    node_ratio,
    read_ownership,
    write_ownership,
)
from hierpart.mesh import node_to_parts


def _strip_partition(nx, ny, cols_per_rank):
    """Vertical strips: element (i, j) belongs to rank i // cols_per_rank."""
    parts = [(e % nx) // cols_per_rank for e in range(nx * ny)]
    return Partition(np.array(parts), nx // cols_per_rank)


@pytest.mark.parametrize("assign", [assign_lowest_rank, assign_parity, assign_interface_partition])
def test_unused_node_is_refused(assign):
    mesh = Mesh(2, [[0, 1, 2, 3]], [[0, 0], [1, 0], [1, 1], [0, 1], [2, 2]])
    args = (0,) if assign is assign_interface_partition else ()
    with pytest.raises(ValueError, match="^node 4 belongs to no element$"):
        assign(mesh, Partition([0], 1), *args)


class TestLowestRank:
    def test_two_element_strip(self, strip_mesh):
        own = assign_lowest_rank(strip_mesh, Partition([0, 1], 2))
        assert own.owner.tolist() == [0, 0, 1, 0, 0, 1]
        assert own.counts.tolist() == [4, 2]

    def test_mirrored_parts(self, strip_mesh):
        own = assign_lowest_rank(strip_mesh, Partition([1, 0], 2))
        assert own.counts.tolist() == [4, 2]
        assert own.owner.tolist() == [1, 0, 0, 1, 0, 0]

    def test_single_part(self):
        m = generate_structured_quad(3, 2)
        own = assign_lowest_rank(m, Partition([0] * 6, 1))
        assert own.counts.tolist() == [m.num_nodes]


class TestParity:
    def test_odd_low_even_high(self, strip_mesh):
        own = assign_parity(strip_mesh, Partition([0, 1], 2))
        assert own.owner[1] == 0  # odd id -> lower rank
        assert own.owner[4] == 1  # even id -> higher rank
        assert own.counts.tolist() == [3, 3]

    def test_single_part(self, strip_mesh):
        own = assign_parity(strip_mesh, Partition([0, 0], 1))
        assert own.counts.tolist() == [6]

    def test_two_odd_ids_both_go_low(self):
        m = generate_structured_quad(3, 1)
        own = assign_parity(m, Partition([0, 1, 1], 2))
        # interface nodes are 1 and 5, both odd
        assert own.owner[1] == 0 and own.owner[5] == 0
        assert own.counts.tolist() == [4, 4]


class TestInterfacePartition:
    def test_two_element_strip(self, strip_mesh):
        own = assign_interface_partition(strip_mesh, Partition([0, 1], 2), seed=0)
        assert own.counts.tolist() == [3, 3]
        assert sorted((own.owner[1], own.owner[4])) == [0, 1]

    def test_no_interface_matches_lowest_rank(self):
        m = generate_structured_quad(4, 2)
        part = Partition([0] * 8, 1)
        a = assign_interface_partition(m, part, seed=3)
        b = assign_lowest_rank(m, part)
        assert np.array_equal(a.owner, b.owner)

    def test_four_element_strip(self):
        m = generate_structured_quad(4, 1)
        own = assign_interface_partition(m, Partition([0, 0, 1, 1], 2), seed=0)
        assert own.counts.tolist() == [5, 5]

    def test_smallest_node_goes_low_on_a_singleton(self):
        # a 2x2 block next to a single column leaves a one-node interface
        m = generate_structured_quad(2, 1)
        own = assign_interface_partition(m, Partition([0, 1], 2), seed=99)
        assert own.owner[1] in (0, 1) and own.owner[4] in (0, 1)
        assert own.owner[1] != own.owner[4]

    def test_deterministic(self):
        m = generate_structured_quad(8, 8)
        part = _strip_partition(8, 8, 2)
        a = assign_interface_partition(m, part, seed=5)
        b = assign_interface_partition(m, part, seed=5)
        assert np.array_equal(a.owner, b.owner)

    def test_beats_lowest_rank_on_strips(self):
        m = generate_structured_quad(16, 4)
        part = _strip_partition(16, 4, 4)  # 3 interior interfaces
        nr_interface = node_ratio(assign_interface_partition(m, part, seed=1))
        nr_lowest = node_ratio(assign_lowest_rank(m, part))
        assert nr_interface < nr_lowest


class TestOwnershipValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_owner_is_always_an_attached_rank(self, seed):
        rng = random.Random(seed)
        m = generate_structured_quad(5, 4)
        parts = Partition(np.array([rng.randrange(4) for _ in range(20)]), 4)
        attached = node_to_parts(m, parts)
        for strategy in (
            lambda: assign_lowest_rank(m, parts),
            lambda: assign_parity(m, parts),
            lambda: assign_interface_partition(m, parts, seed),
        ):
            own = strategy()
            assert int(own.counts.sum()) == m.num_nodes
            for n in range(m.num_nodes):
                assert int(own.owner[n]) in attached[n]


def test_multi_rank_corner_goes_to_least_loaded():
    m = generate_structured_quad(2, 2)
    part = Partition([0, 1, 2, 3], 4)
    own = assign_parity(m, part)
    # pairwise interfaces 1,3,5,7 are all odd -> lower ranks; the four-way
    # center node then lands on the emptiest incident rank, which is rank 3
    assert own.owner[4] == 3
    assert int(own.counts.sum()) == 9


def test_node_ratio_values():
    own = NodeOwnership.from_owner(np.repeat(np.arange(3), [4, 2, 2]), 3)
    assert node_ratio(own) == 2.0
    own = NodeOwnership.from_owner(np.zeros(5, dtype=np.int64), 1)
    assert node_ratio(own) == 1.0


def test_node_ratio_zero_count_is_infinite():
    own = NodeOwnership.from_owner(np.array([0, 0, 0]), 2)  # rank 1 owns nothing
    with pytest.warns(UserWarning, match="zero nodes"):
        assert node_ratio(own) == float("inf")


def test_ownership_file_round_trip(tmp_path):
    own = NodeOwnership.from_owner(np.array([0, 1, 1, 0, 2]), 3)
    path = str(tmp_path / "own.txt")
    write_ownership(own, path)
    assert Path(path).read_text() == "0\n1\n1\n0\n2\n"
    again = read_ownership(path)
    assert np.array_equal(again.owner, own.owner)
    assert again.counts.tolist() == own.counts.tolist()


def test_read_ownership_errors(tmp_path):
    p = tmp_path / "own.txt"
    p.write_text("0\nbad\n")
    with pytest.raises(FileFormatError, match="own.txt:2"):
        read_ownership(str(p))
    p.write_text("-3\n")
    with pytest.raises(FileFormatError):
        read_ownership(str(p))
    p.write_text("")
    with pytest.raises(FileFormatError):
        read_ownership(str(p))


def test_read_ownership_ids_must_fit_in_int64(tmp_path):
    p = tmp_path / "own.txt"
    p.write_text(f"0\n1\n{2**64}\n-1\n")
    with pytest.raises(FileFormatError, match="own.txt:3: rank id 18446744073709551616 does not fit"):
        read_ownership(str(p))
    p.write_text(f"0\n-1\n{2**63}\n")  # the first bad line in file order wins
    with pytest.raises(FileFormatError, match="own.txt:2: negative rank id -1"):
        read_ownership(str(p))
