import numpy as np
import pytest

from hierpart import (
    FileFormatError,
    Mesh,
    Partition,
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    interface_node_sets,
    read_mesh,
    write_mesh,
)
from hierpart.mesh import node_to_parts


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


def test_mesh_invariants_enforced():
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, [[0, 1, 2, 9]], [[0, 0], [1, 0], [1, 1]])
    with pytest.raises(ValueError, match="repeats"):
        Mesh(2, [[0, 1, 2, 2]], [[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(ValueError):
        Mesh(4, [[0, 1, 2, 3]], [[0, 0], [1, 0], [1, 1], [0, 1]])


class TestDualGraph:
    def test_two_quads_share_one_side(self):
        g = dual_graph(generate_structured_quad(2, 1))
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_square_four_no_diagonal(self):
        g = dual_graph(generate_structured_quad(2, 2))
        assert (g.num_vertices, g.num_edges) == (4, 4)
        # corner-only contact never makes an edge
        assert 3 not in g.neighbors(0)
        assert 2 not in g.neighbors(1)

    def test_two_hexes(self):
        g = dual_graph(generate_structured_hex(2, 1, 1))
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_interior_degrees(self):
        g = dual_graph(generate_structured_quad(4, 4))
        assert g.degree(5) == 4  # element (1,1)
        g3 = dual_graph(generate_structured_hex(3, 3, 3))
        assert g3.degree(13) == 6  # center element

    def test_vertex_count_matches_elements(self):
        for m in (generate_structured_quad(3, 5), generate_structured_hex(2, 3, 2)):
            assert dual_graph(m).num_vertices == m.num_elements


class TestInterfaceNodeSets:
    def test_two_element_strip(self, strip_mesh):
        pairs, multi = interface_node_sets(strip_mesh, Partition([0, 1], 2))
        assert pairs == {(0, 1): {1, 4}}
        assert multi == []

    def test_single_part_is_empty(self):
        m = generate_structured_quad(3, 3)
        pairs, multi = interface_node_sets(m, Partition([0] * 9, 1))
        assert pairs == {} and multi == []

    def test_four_way_corner(self):
        """Center of a 2x2 mesh touches all four parts; mid-edge nodes pair up."""
        m = generate_structured_quad(2, 2)
        pairs, multi = interface_node_sets(m, Partition([0, 1, 2, 3], 4))
        assert multi == [4]
        assert set(pairs) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert all(len(nodes) == 1 for nodes in pairs.values())
        assert pairs[(0, 1)] == {1}
        assert pairs[(2, 3)] == {7}

    def test_pair_nodes_touch_exactly_two_parts(self):
        m = generate_structured_quad(4, 4)
        part = Partition([(e % 4) for e in range(16)], 4)
        pairs, multi = interface_node_sets(m, part)
        from hierpart.mesh import node_to_parts

        attached = node_to_parts(m, part)
        for nodes in pairs.values():
            for n in nodes:
                assert len(attached[n]) == 2
        for n in multi:
            assert len(attached[n]) >= 3

    def test_length_mismatch(self, strip_mesh):
        with pytest.raises(ValueError):
            interface_node_sets(strip_mesh, Partition([0], 1))


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
    with pytest.raises(FileFormatError):
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
        node_to_parts(mesh, Partition([0], 1))
