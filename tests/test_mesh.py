import tracemalloc

import numpy as np
import pytest

from conftest import INLINE_BREAKS
from hierpart import (
    FileFormatError,
    Mesh,
    Partition,
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    read_mesh,
    write_mesh,
)
from hierpart.mesh import _node_parts, _pair_nodes


class TestQuadGeneration:
    def test_counts(self):
        m = generate_structured_quad(2, 1)
        assert (m.num_elements, m.num_nodes) == (2, 6)
        m = generate_structured_quad(4, 4)
        assert (m.num_elements, m.num_nodes) == (16, 25)

    def test_single_element_connectivity(self):
        m = generate_structured_quad(1, 1)
        assert m.element_nodes[0].tolist() == [0, 1, 3, 2]

    def test_numbering_is_row_major_x_fastest(self):
        m = generate_structured_quad(3, 2)
        # element (i=1, j=1) is id 4; lower-left node is (nx+1)*1 + 1 = 5
        assert m.element_nodes[4].tolist() == [5, 6, 10, 9]
        assert m.node_coords[5].tolist() == [1.0, 1.0]

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            generate_structured_quad(0, 3)
        with pytest.raises(ValueError):
            generate_structured_quad(3, 0)


class TestHexGeneration:
    def test_counts(self):
        assert generate_structured_hex(2, 1, 1).num_elements == 2
        assert generate_structured_hex(2, 1, 1).num_nodes == 12
        assert generate_structured_hex(1, 1, 1).num_nodes == 8
        m = generate_structured_hex(2, 2, 2)
        assert (m.num_elements, m.num_nodes) == (8, 27)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            generate_structured_hex(1, 0, 1)

    def test_bottom_then_top_face(self):
        m = generate_structured_hex(1, 1, 1)
        assert m.element_nodes[0].tolist() == [0, 1, 3, 2, 4, 5, 7, 6]


def _loop_quad_elements(nx, ny):
    """Element connectivity of generate_structured_quad, written as loops."""
    elems = np.empty((nx * ny, 4), dtype=np.int64)
    for j in range(ny):
        for i in range(nx):
            base = j * (nx + 1) + i
            elems[j * nx + i] = (base, base + 1, base + nx + 2, base + nx + 1)
    return elems


def _loop_hex_elements(nx, ny, nz):
    """Element connectivity of generate_structured_hex, written as loops."""
    nxp, nyp = nx + 1, ny + 1
    layer = nxp * nyp
    elems = np.empty((nx * ny * nz, 8), dtype=np.int64)
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                base = k * layer + j * nxp + i
                bottom = (base, base + 1, base + nxp + 1, base + nxp)
                elems[(k * ny + j) * nx + i] = bottom + tuple(n + layer for n in bottom)
    return elems


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (2, 5), (7, 4)])
def test_quad_elements_match_loop(nx, ny):
    got = generate_structured_quad(nx, ny).element_nodes
    expected = _loop_quad_elements(nx, ny)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("nx,ny,nz", [(1, 1, 1), (2, 1, 1), (3, 2, 4), (2, 3, 2)])
def test_hex_elements_match_loop(nx, ny, nz):
    got = generate_structured_hex(nx, ny, nz).element_nodes
    expected = _loop_hex_elements(nx, ny, nz)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def _meshgrid_quad(nx, ny):
    """generate_structured_quad's arrays, built through meshgrid and column_stack."""
    xs, ys = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    base = (j * (nx + 1) + i).ravel()
    return coords, np.column_stack([base, base + 1, base + nx + 2, base + nx + 1])


def _meshgrid_hex(nx, ny, nz):
    """generate_structured_hex's arrays, built through meshgrid and column_stack."""
    nxp, nyp = nx + 1, ny + 1
    zs, ys, xs = np.meshgrid(np.arange(nz + 1), np.arange(nyp), np.arange(nxp), indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()]).astype(np.float64)
    layer = nxp * nyp
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    base = (k * layer + j * nxp + i).ravel()
    bottom = np.column_stack([base, base + 1, base + nxp + 1, base + nxp])
    return coords, np.hstack([bottom, bottom + layer])


@pytest.mark.parametrize(
    "dims", [(1, 1), (3, 2), (2, 5), (7, 4), (1, 1, 1), (2, 1, 1), (3, 2, 4), (2, 3, 2), (5, 1, 3)]
)
def test_generated_arrays_match_meshgrid_formulas(dims):
    mesh = generate_structured_quad(*dims) if len(dims) == 2 else generate_structured_hex(*dims)
    expected = _meshgrid_quad(*dims) if len(dims) == 2 else _meshgrid_hex(*dims)
    for got, want in zip((mesh.node_coords, mesh.element_nodes), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_mesh_invariants_enforced():
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, [[0, 1, 2, 9]], [[0, 0], [1, 0], [1, 1]])
    with pytest.raises(ValueError, match="repeats"):
        Mesh(2, [[0, 1, 2, 2]], [[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(ValueError):
        Mesh(4, [[0, 1, 2, 3]], [[0, 0], [1, 0], [1, 1], [0, 1]])


@pytest.mark.parametrize("dim", [2, 3])
def test_repeat_in_any_pair_of_columns_names_the_first_such_element(dim):
    """Each pair of columns in turn holds the repeat, in elements 2 and 4 of a
    valid block; the message names element 2."""
    width = 4 if dim == 2 else 8
    coords = np.zeros((6 * width, dim))
    for i in range(width):
        for j in range(i + 1, width):
            elems = np.arange(6 * width).reshape(6, width)
            elems[2, j] = elems[2, i]
            elems[4, i] = elems[4, j]
            with pytest.raises(ValueError, match=r"^element 2 repeats a node id$"):
                Mesh(dim, elems, coords)


def test_repeat_check_holds_no_copy_of_the_elements():
    """On hex 40³ (4 MB of element ids) the check peaks at a tenth of that."""
    base = generate_structured_hex(40, 40, 40)
    elems, coords = base.element_nodes, base.node_coords
    tracemalloc.start()
    try:
        Mesh(3, elems, coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * elems.nbytes


class TestDualGraph:
    def test_two_quads_share_one_side(self):
        g = dual_graph(generate_structured_quad(2, 1))
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_square_four_no_diagonal(self):
        g = dual_graph(generate_structured_quad(2, 2))
        assert (g.num_vertices, g.num_edges) == (4, 4)
        # corner-only contact never makes an edge
        assert 3 not in g.adjacency_list[g.adjacency_offsets[0]:g.adjacency_offsets[1]]
        assert 2 not in g.adjacency_list[g.adjacency_offsets[1]:g.adjacency_offsets[2]]

    def test_two_hexes(self):
        g = dual_graph(generate_structured_hex(2, 1, 1))
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_interior_degrees(self):
        g = dual_graph(generate_structured_quad(4, 4))
        assert np.diff(g.adjacency_offsets)[5] == 4  # element (1,1)
        g3 = dual_graph(generate_structured_hex(3, 3, 3))
        assert np.diff(g3.adjacency_offsets)[13] == 6  # center element

    def test_vertex_count_matches_elements(self):
        for m in (generate_structured_quad(3, 5), generate_structured_hex(2, 3, 2)):
            assert dual_graph(m).num_vertices == m.num_elements


    def test_elements_sharing_several_sides_are_one_edge(self):
        # The second quad lists the first one's nodes in another order: all four sides match.
        g = dual_graph(Mesh(2, [[0, 1, 2, 3], [1, 0, 3, 2]], np.zeros((4, 2))))
        g.validate()
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_too_many_nodes_for_int64_side_keys(self):
        # 3,037,000,500² > 2**63; the coordinates are a broadcast view, so nothing is allocated.
        coords = np.broadcast_to(np.zeros(3), (3_037_000_500, 3))
        mesh = Mesh(3, [list(range(8))], coords)
        with pytest.raises(ValueError, match="3037000500 nodes on int64 keys"):
            dual_graph(mesh)
        assert dual_graph(Mesh(3, [list(range(8))], coords[:3_037_000_499])).num_vertices == 1


def _attached(mesh, partition):
    """Each node's parts, as a list, from the compressed map of ``_node_parts``."""
    offsets, parts = _node_parts(mesh, partition)
    return [parts[lo:hi].tolist() for lo, hi in zip(offsets[:-1], offsets[1:])]


def _interface(mesh, partition):
    """``(pairs, multi)``: ``pairs[(a, b)]`` holds the nodes touching exactly
    parts a < b, and ``multi`` the nodes touching three or more parts."""
    offsets, parts = _node_parts(mesh, partition)
    pairs = {}
    for a, b, node in zip(*(column.tolist() for column in _pair_nodes(offsets, parts))):
        pairs.setdefault((a, b), set()).add(node)
    return pairs, np.flatnonzero(np.diff(offsets) > 2).tolist()


class TestInterfaceNodeSets:
    def test_two_element_strip(self, strip_mesh):
        pairs, multi = _interface(strip_mesh, Partition([0, 1], 2))
        assert pairs == {(0, 1): {1, 4}}
        assert multi == []

    def test_single_part_is_empty(self):
        m = generate_structured_quad(3, 3)
        pairs, multi = _interface(m, Partition([0] * 9, 1))
        assert pairs == {} and multi == []

    def test_four_way_corner(self):
        """Center of a 2x2 mesh touches all four parts; mid-edge nodes pair up."""
        m = generate_structured_quad(2, 2)
        pairs, multi = _interface(m, Partition([0, 1, 2, 3], 4))
        assert multi == [4]
        assert set(pairs) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert all(len(nodes) == 1 for nodes in pairs.values())
        assert pairs[(0, 1)] == {1}
        assert pairs[(2, 3)] == {7}

    def test_pair_nodes_touch_exactly_two_parts(self):
        m = generate_structured_quad(4, 4)
        part = Partition([(e % 4) for e in range(16)], 4)
        attached = _attached(m, part)
        assert all(ranks == sorted(set(ranks)) for ranks in attached)  # ascending, no repeats
        a, b, nodes = _pair_nodes(*_node_parts(m, part))
        rows = list(zip(a.tolist(), b.tolist(), nodes.tolist()))
        assert rows and rows == sorted(rows)
        for lo, hi, n in rows:
            assert attached[n] == [lo, hi]
        pairs, multi = _interface(m, part)
        for n in multi:
            assert len(attached[n]) >= 3
        assert sorted(n for ns in pairs.values() for n in ns) == [
            n for n, ranks in enumerate(attached) if len(ranks) == 2
        ]

    def test_length_mismatch(self, strip_mesh):
        with pytest.raises(ValueError):
            _node_parts(strip_mesh, Partition([0], 1))


def test_mesh_file_round_trip(tmp_path):
    for mesh in (generate_structured_quad(3, 2), generate_structured_hex(2, 2, 1)):
        path = str(tmp_path / "m.txt")
        write_mesh(mesh, path)
        again = read_mesh(path)
        assert again.dim == mesh.dim
        assert np.array_equal(again.element_nodes, mesh.element_nodes)
        assert np.array_equal(again.node_coords, mesh.node_coords)


def test_mesh_file_header_and_errors(tmp_path):
    p = tmp_path / "m.txt"
    write_mesh(generate_structured_quad(1, 1), str(p))
    assert p.read_text().splitlines()[0] == "2 4 1"

    p.write_text("")
    with pytest.raises(FileFormatError, match=r"m\.txt:1: empty mesh file$"):
        read_mesh(str(p))
    p.write_text("5 1 1\n0 0\n")
    with pytest.raises(FileFormatError, match="dim"):
        read_mesh(str(p))
    p.write_text("2 4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n")
    with pytest.raises(FileFormatError, match="m.txt:6"):
        read_mesh(str(p))
    p.write_text("2 4 1\n0 0\n1 zz\n1 1\n0 1\n0 1 2 3\n")
    with pytest.raises(FileFormatError, match="m.txt:3"):
        read_mesh(str(p))
    p.write_text("2 4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 9\n")
    with pytest.raises(FileFormatError, match="out of range"):
        read_mesh(str(p))


@pytest.mark.parametrize("bad", [0, 1])  # the first element, a later one
@pytest.mark.parametrize(
    "mesh", [generate_structured_quad(2, 1), generate_structured_hex(2, 1, 1)], ids=["quad", "hex"]
)
def test_read_mesh_names_the_line_of_an_element_that_repeats_a_node_id(tmp_path, mesh, bad):
    path = tmp_path / "m.txt"
    write_mesh(mesh, str(path))
    lines = path.read_text().splitlines()
    line = 2 + mesh.num_nodes + bad
    ids = lines[line - 1].split()
    lines[line - 1] = " ".join(ids[:2] + ids[1:-1])  # the second id twice
    path.write_text("\n".join(lines) + "\n")
    message = rf"^.*m\.txt:{line}: element {bad} repeats a node id$"
    with pytest.raises(FileFormatError, match=message):
        read_mesh(str(path))


@pytest.mark.parametrize("line", [3, 8])  # a coordinate line, an element line
@pytest.mark.parametrize("sep", INLINE_BREAKS)
def test_read_mesh_splits_lines_only_at_line_breaks(tmp_path, sep, line):
    mesh = generate_structured_quad(2, 1)
    path = tmp_path / "m.txt"
    write_mesh(mesh, str(path))
    lines = path.read_text().split("\n")
    lines[line - 1] = lines[line - 1].replace(" ", sep, 1)
    path.write_text("\n".join(lines))
    again = read_mesh(str(path))
    assert again.element_nodes.tobytes() == mesh.element_nodes.tobytes()
    assert again.node_coords.tobytes() == mesh.node_coords.tobytes()


def test_unused_node_is_refused(tmp_path):
    """A node no element uses: a format error naming its line in a file, a
    ValueError for a mesh built in code."""
    path = tmp_path / "m.txt"
    path.write_text("2 5 1\n0 0\n1 0\n1 1\n0 1\n2 2\n0 1 2 3\n")
    with pytest.raises(FileFormatError, match=r"m.txt:6: node 4 belongs to no element$"):
        read_mesh(str(path))
    mesh = Mesh(2, [[0, 1, 2, 3]], [[0, 0], [1, 0], [1, 1], [0, 1], [2, 2]])
    assert dual_graph(mesh).num_vertices == 1  # the element graph needs no nodes
    with pytest.raises(ValueError, match="^node 4 belongs to no element$"):
        _node_parts(mesh, Partition([0], 1))
