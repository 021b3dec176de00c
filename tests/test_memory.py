"""Memory bounds of the input paths and the FM gain engine, measured with tracemalloc.

Readers hold one block of lines plus the arrays they return (and, for a
graph, a key per neighbor listing), side matching holds packed keys instead
of sorted copies of every side, the node-to-parts map sorts its corner keys
in place, the interface strategy and ``report`` match only the sides of
elements on a multi-rank node, the node strategies list the ranks of only
the nodes on three or more, and the gain engine walks the flat CSR lists it
holds instead of caching a neighbour list per moved vertex. Each bound is a
stated multiple of what the call returns or reads (or, for the node
strategies, ``report`` and the engine, a fixed size) that the whole-file
readers, the chunk line splitter, ``np.unique``, the sort of every side, a
second check of a graph's edges for repeats, the per-vertex neighbour cache
and the lists of the whole node-to-ranks map exceeded.
"""

import tracemalloc

import numpy as np
import pytest

from hierpart import (
    Partition,
    assign_interface_partition,
    assign_lowest_rank,
    assign_parity,
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    read_graph,
    read_mesh,
    read_partition,
    write_graph,
    write_mesh,
    write_ownership,
    write_partition,
)
from hierpart import kway
from hierpart.cli import main
from hierpart.mesh import _local_sides, _node_parts, _shared_sides


def _peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_bytes(value) -> int:
    """The bytes of the numpy arrays ``value`` holds as attributes."""
    return sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray))


@pytest.fixture(scope="module")
def hex40():
    return generate_structured_hex(40, 40, 40)


def test_read_mesh_holds_little_beyond_its_arrays(hex40, tmp_path):
    # 4.0 MB file, 5.5 MiB of arrays; reading the whole file at once peaked at
    # 3.9x, and splitting lines from chunks of 262,144 characters at 1.41x.
    path = str(tmp_path / "m.txt")
    write_mesh(hex40, path)
    mesh, peak = _peak(read_mesh, path)
    assert peak <= 1.3 * _array_bytes(mesh), peak


def test_read_partition_holds_little_beyond_its_ids(hex40, tmp_path):
    # 64,000 ids; reading the whole file at once peaked at 3.2x their bytes,
    # and splitting lines from chunks of 262,144 characters at 2.36x.
    path = str(tmp_path / "p.txt")
    write_partition(Partition(np.arange(hex40.num_elements) % 7, 7), path)
    partition, peak = _peak(read_partition, path)
    assert peak <= 2.2 * partition.parts.nbytes, peak


def test_read_partition_of_many_short_ids_holds_one_block_of_lines(tmp_path):
    # 640,000 ids of up to three digits: a chunk of 262,144 characters split
    # into about 67,000 lines at once, and peaked at 2.04x the ids.
    path = str(tmp_path / "p.txt")
    write_partition(Partition(np.arange(640_000) % 1000, 1000), path)
    partition, peak = _peak(read_partition, path)
    assert peak <= 1.3 * partition.parts.nbytes, peak


def test_read_graph_holds_little_beyond_its_arrays(hex40, tmp_path):
    # 2.1 MiB file, 6.7 MiB of arrays; reading the whole file into a dict of
    # every edge peaked at 11.7x, and handing the keys to build_graph, which
    # sorted them again to look for repeats, at 2.43x. Now 2.02x.
    path = str(tmp_path / "g.txt")
    write_graph(dual_graph(hex40), path)
    graph, peak = _peak(read_graph, path)
    assert peak <= 2.2 * _array_bytes(graph), peak


def test_dual_graph_holds_little_beyond_its_graph(hex40):
    # Sorting a copy of every face peaked at 6.1x the graph's arrays, and
    # checking the element pairs for repeats twice at 2.22x. Now 2.01x.
    graph, peak = _peak(dual_graph, hex40)
    assert peak <= 2.1 * _array_bytes(graph), peak


def test_node_parts_holds_little_beyond_the_element_array(hex40):
    # 16 blocks of 10x20x20; np.unique of the packed corner keys peaked at 2.15x.
    e = np.arange(hex40.num_elements)
    x, y, z = e % 40, e // 40 % 40, e // 1600
    partition = Partition(x // 10 + 4 * (y // 20) + 8 * (z // 20), 16)
    _, peak = _peak(_node_parts, hex40, partition)
    assert peak <= 1.5 * hex40.element_nodes.nbytes, peak


@pytest.mark.parametrize("dim", [2, 3])
def test_shared_sides_holds_its_keys_and_their_order(hex40, dim):
    # Quad 256² and hex 40³: the loops' last key and view of the sort order
    # kept both alive to the end, and the peak was 36.9 and 36.8 bytes a
    # side. Now 22.5 and 26.5.
    mesh = generate_structured_quad(256, 256) if dim == 2 else hex40
    sides = mesh.num_elements * len(_local_sides(mesh))
    _, peak = _peak(_shared_sides, mesh)
    assert peak <= (24 if dim == 2 else 28) * sides, peak / sides


@pytest.fixture(scope="module")
def quad256_blocks():
    """Quad 256² cut into 16 blocks of 64x64."""
    mesh = generate_structured_quad(256, 256)
    x, y = np.arange(mesh.num_elements) % 256, np.arange(mesh.num_elements) // 256
    return mesh, Partition(x // 64 + 4 * (y // 64), 16)


def test_interface_strategy_matches_only_sides_near_an_interface(quad256_blocks):
    # Matching every side peaked at 19.8 MiB, and turning the whole
    # node-to-ranks map into lists at 5.3 MiB; now 3.0.
    _, peak = _peak(assign_interface_partition, *quad256_blocks, 0)
    assert peak <= 4 * 2**20, peak


def test_parity_strategy_lists_the_ranks_of_only_multi_rank_nodes(quad256_blocks):
    # Turning the whole node-to-ranks map into lists peaked at 5.2 MiB; now 3.0.
    _, peak = _peak(assign_parity, *quad256_blocks)
    assert peak <= 4 * 2**20, peak


def test_report_matches_only_sides_near_an_interface(quad256_blocks, tmp_path):
    # Matching every side of the mesh peaked at 13.3 MiB; now 7.0.
    mesh, partition = quad256_blocks
    paths = [str(tmp_path / name) for name in ("m.txt", "p.txt", "n.txt", "r.csv")]
    write_mesh(mesh, paths[0])
    write_partition(partition, paths[1])
    write_ownership(assign_lowest_rank(mesh, partition), paths[2])
    argv = ["report", "--mesh", paths[0], "--elem-part", paths[1], "--node-part", paths[2],
            "--format", "csv", "--out", paths[3]]
    status, peak = _peak(main, argv)
    assert status == 0
    assert peak <= 8 * 2**20, peak


def test_one_fm_pass_holds_under_600_bytes_a_vertex(monkeypatch):
    # One full pass from random sides moves nearly every vertex. Caching a
    # (neighbour, 2 * weight) tuple list per moved vertex peaked at 876-887
    # bytes a vertex on the hex 24³ dual; walking the CSR slices, at 491.
    graph = dual_graph(generate_structured_hex(24, 24, 24))
    sides = np.random.default_rng(0).integers(0, 2, graph.num_vertices)
    monkeypatch.setattr(kway, "_MAX_FM_PASSES", 1)
    _, peak = _peak(kway.fm_refine, graph, Partition(sides, 2), 0.5, 0.03)
    assert peak <= 600 * graph.num_vertices, peak / graph.num_vertices
