import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INLINE_BREAKS, _read_lines, random_graph
from hierpart import graph as graph_module
from hierpart import (
    FileFormatError,
    Graph,
    Partition,
    balance_stats,
    build_graph,
    coarsen,
    dual_graph,
    edge_cut,
    extract_subgraph,
    generate_structured_quad,
    heavy_edge_match,
    read_graph,
    read_mesh,
    read_partition,
    write_graph,
    write_mesh,
    write_partition,
)
from hierpart.mesh import _node_parts, _pair_nodes
from hierpart.nodes import _interface_graph


def test_build_graph_sorts_neighbors():
    g = build_graph([(0, 2, 1), (0, 1, 3)], 3)
    assert g.adjacency_list[g.adjacency_offsets[0]:g.adjacency_offsets[1]].tolist() == [1, 2]
    assert g.edge_weights[g.adjacency_offsets[0]:g.adjacency_offsets[1]].tolist() == [3, 1]
    assert g.num_edges == 2
    assert np.diff(g.adjacency_offsets).tolist() == [2, 1, 1]


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


def test_build_graph_refuses_totals_that_wrap_int64():
    # int64 sums would give a cut of 0 and a negative total here.
    with pytest.raises(ValueError, match=r"2\*\*63"):
        build_graph([(0, 1, 2**62), (1, 2, 2**62)], 3, [2**62] * 3)


def test_build_graph_admits_totals_up_to_the_bound():
    vertex_weights = [2**61, 2**61, 2**62 - 1]
    g = build_graph([(0, 1, 2**61), (1, 2, 2**61 - 1)], 3, vertex_weights)
    assert g.total_vertex_weight == 2**63 - 1
    assert edge_cut(g, Partition([0, 1, 0], 2)) == 2**62 - 1
    # One unit more on either total is refused.
    with pytest.raises(ValueError, match=r"vertex weights must total less than 2\*\*63"):
        build_graph([(0, 1, 2**61), (1, 2, 2**61 - 1)], 3, [2**61, 2**61, 2**62])
    with pytest.raises(ValueError, match=r"edge weights must total less than 2\*\*62"):
        build_graph([(0, 1, 2**61), (1, 2, 2**61)], 3, vertex_weights)


def test_build_graph_refuses_vertex_counts_whose_edge_keys_wrap_int64():
    with pytest.raises(ValueError, match=r"^num_vertices must be less than 2\*\*31$"):
        build_graph([], 2**31)


@pytest.mark.parametrize("edges", [[(1, 2, 1), (0, 6, 1)], [(0, 6, 1), (1, 2, 1), (2, 1, 1)]])
def test_build_graph_names_an_out_of_range_edge_whose_key_matches_a_valid_one(edges):
    # (0, 6) keys as 0 * 4 + 6, the key of (1, 2).
    with pytest.raises(ValueError, match=r"^edge \(0, 6\) references vertex out of range$"):
        build_graph(edges, 4)


def test_validate_refuses_totals_that_wrap_int64():
    # int64 sums would give a negative total and a cut of 0 here.
    g = Graph([0, 1, 3, 4], [1, 0, 2, 1], [2**62] * 4, [2**62] * 3)
    with pytest.raises(ValueError, match=r"^vertex weights must total less than 2\*\*63$"):
        g.validate()
    g = Graph([0, 1, 3, 4], [1, 0, 2, 1], [2**61] * 4, [1] * 3)
    with pytest.raises(ValueError, match=r"^edge weights must total less than 2\*\*62$"):
        g.validate()
    Graph([0, 1, 3, 4], [1, 0, 2, 1], [2**61, 2**61, 2**61 - 1, 2**61 - 1], [1] * 3).validate()


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
    assert sub.adjacency_list[sub.adjacency_offsets[0]:sub.adjacency_offsets[1]].tolist() == [2]
    assert sub.edge_weights[sub.adjacency_offsets[0]:sub.adjacency_offsets[1]].tolist() == [5]
    assert sub.num_edges == 2  # (3,0) and (0,1); (1,2) and (2,3) drop out
    sub.validate()


def test_extract_subgraph_refuses_a_graph_that_is_not_simple():
    # Vertex 0 lists vertex 1 twice.
    g = Graph(np.array([0, 2, 4]), np.array([1, 1, 0, 0]), np.ones(4), np.ones(2))
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        extract_subgraph(g, [0, 1])


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


@pytest.mark.parametrize(
    "text,lines",
    [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\n", ["a"]),
        ("a\n\n", ["a", ""]),
        ("a\r\nb\rc\n", ["a", "b", "c"]),
        ("".join(INLINE_BREAKS) + "\n", ["".join(INLINE_BREAKS)]),
    ],
)
def test_read_lines_splits_as_file_iteration(tmp_path, text, lines):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    assert _read_lines(str(path)) == lines
    with open(path) as fh:
        assert [line.removesuffix("\n") for line in fh] == lines


# At 1 row a block, _count_lines reads 64 characters at a time: the "\r\n"
# after the 63 x's straddles two reads.
_LINE_TEXTS = [
    "",
    "\n",
    "a",
    "a\n\n",
    "a\r\nb\rc\n",
    "x" * 63 + "\r\n" + "y" * 64 + "\r",
    "z\n" * 200,
    pytest.param("".join(f"{i}{c}{i}\n" for i, c in enumerate(INLINE_BREAKS * 9)), id="inline"),
    pytest.param("0\n\n \n\t\x0c\n\r\n" * 30 + "  ", id="blank-and-whitespace-lines"),
]


@pytest.mark.parametrize("block_rows", [1, 4096])
@pytest.mark.parametrize("text", _LINE_TEXTS)
def test_count_lines_counts_what_read_lines_splits(tmp_path, monkeypatch, text, block_rows):
    monkeypatch.setattr(graph_module, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    with open(path) as fh:
        assert graph_module._count_lines(fh) == len(_read_lines(str(path)))
        assert fh.read() == text.replace("\r\n", "\n").replace("\r", "\n")  # back at the start


@pytest.mark.parametrize("block_rows", [1, 4096])
@pytest.mark.parametrize("text", _LINE_TEXTS)
def test_line_blocks_gives_what_read_lines_splits(tmp_path, monkeypatch, text, block_rows):
    # The readers' one line source: their open file, iterated a block at a
    # time, with a second call reading on where the first stopped.
    monkeypatch.setattr(graph_module, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    lines = _read_lines(str(path))
    with open(path) as fh:
        blocks = list(graph_module._line_blocks(fh, graph_module._count_lines(fh)))
        assert all(1 <= len(block) <= block_rows for block in blocks)
        assert [line.removesuffix("\n") for block in blocks for line in block] == lines
        fh.seek(0)
        fh.readline()  # as the readers do after their header
        rest = lines[1:]
        got = [
            line.removesuffix("\n")
            for count in (len(rest) // 2, len(rest) - len(rest) // 2)
            for block in graph_module._line_blocks(fh, count)
            for line in block
        ]
        assert got == rest


@pytest.mark.parametrize("block_rows", [5, 4096])
def test_read_mesh_sections_meet_inside_a_block(tmp_path, monkeypatch, block_rows):
    # The last block of coordinates is short, and the element section reads on
    # from the same open file, starting on the line after the last coordinate.
    monkeypatch.setattr(graph_module, "_BLOCK_ROWS", block_rows)
    mesh = generate_structured_quad(7, 5)
    path = tmp_path / "m.txt"
    write_mesh(mesh, str(path))
    assert mesh.num_nodes % block_rows
    again = read_mesh(str(path))
    assert again.element_nodes.tobytes() == mesh.element_nodes.tobytes()
    assert again.node_coords.tobytes() == mesh.node_coords.tobytes()


@pytest.mark.parametrize("block_rows", [1, 4096])
def test_read_partition_skips_empty_lines(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(graph_module, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "p.txt"
    path.write_bytes(b"\n1\n\n\n0\r\n\r\n 2 \n" * 40 + b"\n")
    assert read_partition(str(path)).parts.tolist() == [1, 0, 2] * 40
    path.write_bytes(b"\n" * 200 + b"\r\n \r")  # empty lines only: no id at all
    with pytest.raises(FileFormatError, match=r"p\.txt:1: empty partition file"):
        read_partition(str(path))


@pytest.mark.parametrize("reader", [read_partition, read_mesh, read_graph])
def test_decode_error_is_positioned_in_the_whole_file(tmp_path, reader):
    # Past the first chunk the line count reads, so its own position would be off.
    path = tmp_path / "f.txt"
    path.write_bytes(b"0\n" * 300_000 + b"\xff\n")
    with open(path) as fh, pytest.raises(UnicodeDecodeError) as whole:
        fh.read()
    with pytest.raises(UnicodeDecodeError) as got:
        reader(str(path))
    assert str(got.value) == str(whole.value)
    assert "position 600000" in str(got.value)


@pytest.mark.parametrize(
    "reader,text,expected",
    [
        (read_partition, b"0\n1\n", lambda p: p.parts.tolist() == [0, 1]),
        (read_mesh, b"2 4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n", lambda m: m.num_elements == 1),
        (read_graph, b"3 2\n2\n1 3\n2\n", lambda g: g.adjacency_list.tolist() == [1, 0, 2, 1]),
    ],
)
def test_readers_take_a_pipe(reader, text, expected):
    # The readers count lines before they parse; a pipe cannot seek back, so it is read whole.
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text)
        os.close(write_end)
        assert expected(reader(f"/dev/fd/{read_end}"))
    finally:
        os.close(read_end)


@pytest.mark.parametrize("sep", INLINE_BREAKS)
def test_read_graph_splits_lines_only_at_line_breaks(tmp_path, sep):
    path = tmp_path / "g.txt"
    path.write_text(f"3 2\n2\n1{sep}3\n2\n")
    g = read_graph(str(path))
    expected = build_graph([(0, 1, 1), (1, 2, 1)], 3)
    assert g.adjacency_offsets.tolist() == expected.adjacency_offsets.tolist()
    assert g.adjacency_list.tolist() == expected.adjacency_list.tolist()


def test_read_graph_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(FileFormatError, match=r"bad\.txt:1: empty graph file$"):
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

    p.write_text("2 1\n2 2\n\n")  # vertex 0 lists vertex 1 twice, vertex 1 lists nothing
    with pytest.raises(FileFormatError, match=r"bad\.txt:2: edge \(0, 1\) not listed symmetrically$"):
        read_graph(str(p))

    p.write_text("2 5\n2\n1\n")
    with pytest.raises(FileFormatError, match="header says 5"):
        read_graph(str(p))

    p.write_text("2 1\n3\n1\n")
    with pytest.raises(FileFormatError, match="out of range"):
        read_graph(str(p))


def test_read_graph_refuses_vertex_counts_whose_keys_wrap_int64(tmp_path, monkeypatch):
    # A file of 2**31 + 1 lines is too large to write here, so its line count
    # is stubbed; the refusal comes before any adjacency line is read.
    p = tmp_path / "big.txt"
    p.write_text(f"{2**31} 0\n")
    monkeypatch.setattr(graph_module, "_count_lines", lambda fh: 2**31 + 1)
    with pytest.raises(ValueError, match=r"^num_vertices must be less than 2\*\*31$"):
        read_graph(str(p))


def test_in_package_graphs_are_checked_for_repeats_at_most_once(tmp_path, monkeypatch):
    """dual_graph (which keeps each element pair once), read_graph, coarsen and
    the interface graph hold keys already known to be distinct, so they build
    with no repeat check."""
    mesh = generate_structured_quad(8, 6)
    blocks = Partition(np.arange(48) % 8 // 4 + np.arange(48) // 24 * 2, 4)
    offsets, parts = _node_parts(mesh, blocks)
    path = str(tmp_path / "g.txt")
    write_graph(dual_graph(mesh), path)
    calls = []
    real = graph_module._check_edges
    monkeypatch.setattr(graph_module, "_check_edges", lambda *a: calls.append(1) or real(*a))
    g = dual_graph(mesh)
    read_graph(path)
    coarsen(g, heavy_edge_match(g, seed=0))
    assert _interface_graph(mesh, blocks, offsets, _pair_nodes(offsets, parts)[2]).num_edges
    assert calls == []


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
