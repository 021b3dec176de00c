import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_partition
from hierpart import (
    FileFormatError,
    Graph,
    Partition,
    balance_stats,
    build_graph,
    edge_cut,
    extract_subgraph,
    per_rank_metrics,
    read_graph,
    read_partition,
    write_graph,
    write_partition,
)


def test_build_graph_sorts_neighbors():
    g = build_graph([(0, 2, 1), (0, 1, 3)], 3)
    assert g.neighbors(0).tolist() == [1, 2]
    assert g.neighbor_weights(0).tolist() == [3, 1]
    assert g.num_edges == 2
    assert g.degree(0) == 2 and g.degree(1) == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([(1, 1, 1)], 2)
    with pytest.raises(ValueError, match="duplicate"):
        build_graph([(0, 1, 1), (1, 0, 2)], 2)
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 5, 1)], 2)
    with pytest.raises(ValueError, match="weight"):
        build_graph([(0, 1, 0)], 2)
    with pytest.raises(ValueError):
        build_graph([], 2, vertex_weights=[1])
    with pytest.raises(ValueError):
        build_graph([], 2, vertex_weights=[1, 0])


def test_validate_catches_asymmetry():
    # 0 lists 1 as a neighbor but not vice versa
    g = Graph(np.array([0, 1, 1]), np.array([1]), np.array([1]), np.array([1, 1]))
    with pytest.raises(ValueError, match="asymmetric"):
        g.validate()


def test_partition_bounds():
    with pytest.raises(ValueError):
        Partition([0, 3], 2)
    with pytest.raises(ValueError):
        Partition([0], 0)
    assert Partition([1, 0, 1], 2).part_sizes().tolist() == [1, 2]


def test_extract_subgraph_follows_given_order():
    g = build_graph([(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)], 4)
    sub, back = extract_subgraph(g, [3, 1, 0])
    assert back.tolist() == [3, 1, 0]
    # local 0 = global 3: keeps only the edge to global 0 (local 2), weight 5
    assert sub.neighbors(0).tolist() == [2]
    assert sub.neighbor_weights(0).tolist() == [5]
    assert sub.num_edges == 2  # (3,0) and (0,1); (1,2) and (2,3) drop out
    sub.validate()


def test_extract_subgraph_rejects_duplicates():
    g = build_graph([(0, 1, 1)], 2)
    with pytest.raises(ValueError):
        extract_subgraph(g, [0, 0])
    with pytest.raises(ValueError):
        extract_subgraph(g, [0, 7])


def test_edge_cut_counts_each_edge_once(path4):
    assert edge_cut(path4, Partition([0, 0, 1, 1], 2)) == 1
    assert edge_cut(path4, Partition([0, 1, 0, 1], 2)) == 3
    assert edge_cut(path4, Partition([0, 0, 0, 0], 1)) == 0


def test_edge_cut_uses_weights():
    g = build_graph([(0, 1, 7), (1, 2, 2)], 3)
    assert edge_cut(g, Partition([0, 1, 1], 2)) == 7


def test_edge_cut_length_mismatch(path4):
    with pytest.raises(ValueError, match="length"):
        edge_cut(path4, Partition([0, 1], 2))


def test_per_rank_metrics(path4):
    m = per_rank_metrics(path4, Partition([0, 0, 1, 1], 2))
    assert [x.vertex_count for x in m] == [2, 2]
    # the single cut edge is tallied once per incident part
    assert [x.boundary_edge_count for x in m] == [1, 1]


def test_per_rank_metrics_counts_edges_not_weights():
    g = build_graph([(0, 1, 9)], 2)
    m = per_rank_metrics(g, Partition([0, 1], 2))
    assert [x.boundary_edge_count for x in m] == [1, 1]


def test_balance_stats():
    s = balance_stats([4, 2, 2])
    assert (s.max, s.min) == (4, 2)
    assert s.max_over_min == 2.0
    assert s.max_over_avg == 4 / (8 / 3)
    with pytest.raises(ValueError):
        balance_stats([])
    with pytest.raises(ValueError):
        balance_stats([3, 0])


def test_graph_file_round_trip(tmp_path, path4):
    path = str(tmp_path / "g.txt")
    write_graph(path4, path)
    again = read_graph(path)
    assert np.array_equal(again.adjacency_offsets, path4.adjacency_offsets)
    assert np.array_equal(again.adjacency_list, path4.adjacency_list)


def test_graph_file_first_line():
    """First line is 'nv ne'; neighbor ids are 1-indexed."""
    g = build_graph([(0, 1, 1), (1, 2, 1)], 3)
    import io, os, tempfile

    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        write_graph(g, path)
        lines = Path(path).read_text().splitlines()
    finally:
        os.unlink(path)
    assert lines[0] == "3 2"
    assert lines[1] == "2"
    assert lines[2] == "1 3"


def test_read_graph_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(FileFormatError):
        read_graph(str(p))

    p.write_text("2 1\n2\n")
    with pytest.raises(FileFormatError, match="expected 2 adjacency"):
        read_graph(str(p))

    p.write_text("2 1\nx\n1\n")
    with pytest.raises(FileFormatError, match=r"bad\.txt:2"):
        read_graph(str(p))

    p.write_text("2 1\n2\n\n")  # vertex 1 never lists vertex 0 back
    with pytest.raises(FileFormatError, match="symmetric"):
        read_graph(str(p))

    p.write_text("2 5\n2\n1\n")
    with pytest.raises(FileFormatError, match="header says 5"):
        read_graph(str(p))

    p.write_text("2 1\n3\n1\n")
    with pytest.raises(FileFormatError, match="out of range"):
        read_graph(str(p))


@pytest.mark.parametrize("header, nv, ne", [("-1 0", -1, 0), ("2 -1", 2, -1)])
def test_read_graph_refuses_negative_counts(tmp_path, header, nv, ne):
    p = tmp_path / "bad.txt"
    p.write_text(f"{header}\n2\n1\n")
    message = rf"^.*bad\.txt:1: counts must be >= 0, got {nv} vertices and {ne} edges$"
    with pytest.raises(FileFormatError, match=message):
        read_graph(str(p))


def test_partition_file_round_trip(tmp_path):
    path = str(tmp_path / "p.txt")
    part = Partition([0, 2, 1, 2], 3)
    write_partition(part, path)
    assert Path(path).read_text() == "0\n2\n1\n2\n"
    again = read_partition(path)
    assert np.array_equal(again.parts, part.parts)
    assert again.num_parts == 3


def test_read_partition_errors(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0\n-1\n")
    with pytest.raises(FileFormatError, match="p.txt:2"):
        read_partition(str(p))
    p.write_text("")
    with pytest.raises(FileFormatError):
        read_partition(str(p))
    p.write_text("0\nzzz\n")
    with pytest.raises(FileFormatError, match="zzz"):
        read_partition(str(p))


def test_read_partition_ids_must_fit_in_int64(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text(f"0\n{2**63}\nzzz\n")
    with pytest.raises(FileFormatError, match="p.txt:2: part id 9223372036854775808 does not fit"):
        read_partition(str(p))
    p.write_text(f"zzz\n{2**64}\n")  # the first bad line in file order wins
    with pytest.raises(FileFormatError, match="p.txt:1: bad part id"):
        read_partition(str(p))
    p.write_text(f"{2**63 - 1}\n\n 0 \n")  # fits, but past the id count
    with pytest.raises(FileFormatError, match="p.txt:1: part id 9223372036854775807 exceeds"):
        read_partition(str(p))


def test_read_partition_ids_are_bounded_by_the_id_count(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("2\n\n 0 \n")  # an id may equal the id count: part 1 is unused
    again = read_partition(str(p))
    assert again.parts.tolist() == [2, 0]
    assert again.num_parts == 3
    p.write_text("0\n5\n1\n6\n")  # the first id past the count names its line
    with pytest.raises(FileFormatError, match="p.txt:2: part id 5 exceeds the file's id count 4"):
        read_partition(str(p))
    p.write_text("0\n3000000000\nzzz\n")
    with pytest.raises(FileFormatError, match="p.txt:2: part id 3000000000 exceeds"):
        read_partition(str(p))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_graphs_validate_and_round_trip(seed):
    rng = random.Random(seed)
    g, edges, nv = random_graph(rng, 12)
    g.validate()
    assert g.num_edges == len(edges)
    # full-vertex-set extraction is the identity
    sub, back = extract_subgraph(g, range(nv))
    assert np.array_equal(sub.adjacency_list, g.adjacency_list)
    assert np.array_equal(back, np.arange(nv))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_per_rank_boundary_sums_to_twice_cut_edges(seed):
    rng = random.Random(seed)
    g, edges, nv = random_graph(rng, 10, max_weight=1)
    if nv == 0:
        return
    part = random_partition(rng, nv, rng.randint(1, 4))
    metrics = per_rank_metrics(g, part)
    cut_edges = sum(1 for u, v, _ in edges if part.parts[u] != part.parts[v])
    assert sum(m.boundary_edge_count for m in metrics) == 2 * cut_edges
    assert sum(m.vertex_count for m in metrics) == nv
