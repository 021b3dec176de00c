"""End-to-end command-line checks, run in-process through main()."""

import contextlib
import importlib
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart import cli, dual_graph, read_mesh, read_partition, write_graph
from hierpart import graph as graph_module
from hierpart.cli import main


def run(*args):
    return main([str(a) for a in args])


def test_gen_mesh_round_trips(tmp_path):
    out = tmp_path / "m.txt"
    assert run("gen-mesh", "--nx", 3, "--ny", 2, "--out", out) == 0
    mesh = read_mesh(str(out))
    assert mesh.dim == 2 and mesh.num_elements == 6 and mesh.num_nodes == 12

    out3 = tmp_path / "m3.txt"
    assert run("gen-mesh", "--nx", 2, "--ny", 2, "--nz", 2, "--out", out3) == 0
    assert read_mesh(str(out3)).num_elements == 8


def test_partition_forced_singletons(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    part = tmp_path / "p.txt"
    run("gen-mesh", "--nx", 2, "--ny", 2, "--out", mesh)
    assert (
        run("partition", "--mesh", mesh, "--np", 4, "--np2", 2, "--seed", 1, "--out", part)
        == 0
    )
    p = read_partition(str(part))
    assert sorted(p.parts.tolist()) == [0, 1, 2, 3]
    summary = capsys.readouterr().out
    assert "part sizes:  1 1 1 1" in summary
    assert "wall time" in summary


def test_partition_single_part_writes_zeros(tmp_path):
    mesh = tmp_path / "m.txt"
    part = tmp_path / "p.txt"
    run("gen-mesh", "--nx", 3, "--ny", 1, "--out", mesh)
    assert run("partition", "--mesh", mesh, "--np", 1, "--out", part) == 0
    assert part.read_text() == "0\n0\n0\n"


def test_partition_csv_summary(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    run("gen-mesh", "--nx", 4, "--ny", 4, "--out", mesh)
    assert (
        run(
            "partition", "--mesh", mesh, "--np", 4, "--method", "flat",
            "--out", tmp_path / "p.txt", "--format", "csv",
        )
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "edge_cut,num_parts,max_size,min_size,max_over_avg,max_over_min,wall_s"
    assert out[1].split(",")[1] == "4"


def test_report_two_element_strip(tmp_path, capsys):
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
    epart.write_text("0\n1\n")
    assert (
        run("assign-nodes", "--mesh", mesh, "--elem-part", epart,
            "--node-strategy", "lowest-rank", "--out", npart)
        == 0
    )
    assert npart.read_text() == "0\n0\n1\n0\n0\n1\n"
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart) == 0
    text = capsys.readouterr().out
    lines = [ln.split() for ln in text.splitlines()]
    assert lines[1] == ["0", "1", "4", "1"]
    assert lines[2] == ["1", "1", "2", "1"]
    assert "edge cut:      1" in text


def test_report_known_count_fixture(tmp_path, capsys):
    """An 8-rank fixture with node counts 20..8 must report NR 21/8 = 2.625."""
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 10, "--ny", 10, "--out", mesh)
    elem_sizes = [12, 12, 12, 12, 13, 13, 13, 13]
    node_counts = [20, 20, 21, 16, 14, 10, 12, 8]
    epart.write_text("".join(f"{r}\n" for r in np.repeat(np.arange(8), elem_sizes)))
    npart.write_text("".join(f"{r}\n" for r in np.repeat(np.arange(8), node_counts)))
    assert (
        run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart,
            "--format", "csv")
        == 0
    )
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split(",")[:4] == ["pid", "elems", "nodes", "edge_cuts"]
    assert len(rows) == 9
    first = rows[1].split(",")
    assert first[1] == "12" and first[2] == "20"
    assert float(first[5]) == pytest.approx(2.625, abs=1e-6)
    assert float(first[6]) == pytest.approx(13 / 12, abs=1e-6)


def test_report_single_rank(tmp_path, capsys):
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 2, "--ny", 2, "--out", mesh)
    epart.write_text("0\n" * 4)
    npart.write_text("0\n" * 9)
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart) == 0
    text = capsys.readouterr().out
    assert "edge cut:      0" in text
    assert "NR:            1.000000" in text


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_report_unused_part_id_reads_inf(tmp_path, capsys, fmt):
    """An empty rank makes both ratios infinite with a warning, not an error."""
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
    epart.write_text("0\n2\n")
    assert (
        run("assign-nodes", "--mesh", mesh, "--elem-part", epart,
            "--node-strategy", "lowest-rank", "--out", npart)
        == 0
    )
    with pytest.warns(UserWarning) as record:
        assert (
            run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart,
                "--format", fmt)
            == 0
        )
    messages = [str(w.message) for w in record]
    assert "rank(s) [1] own zero nodes; node ratio is infinite" in messages
    assert "part(s) [1] hold zero elements; elem max/min is infinite" in messages
    out = capsys.readouterr().out
    expected = [["0", "1", "4", "1"], ["1", "0", "0", "0"], ["2", "1", "2", "1"]]
    if fmt == "csv":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[:4] for row in rows] == expected
        assert all(row[5:] == ["inf", "inf"] for row in rows)
    else:
        assert [line.split() for line in out.splitlines()[1:4]] == expected
        assert "NR:            inf" in out
        assert "elem max/min:  inf" in out


def test_report_length_mismatch_names_files(tmp_path, capsys):
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
    epart.write_text("0\n1\n0\n")  # 3 entries for a 2-element mesh
    npart.write_text("0\n" * 6)
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart) == 2
    err = capsys.readouterr().err
    assert "p.txt" in err and "m.txt" in err


def test_report_builds_no_graph(tmp_path, capsys, monkeypatch):
    """report counts cuts on the mesh's element pairs, without the CSR dual graph."""
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 4, "--ny", 3, "--out", mesh)
    epart.write_text("0\n1\n" * 6)  # columns alternate: 3 cuts in each of 3 rows
    npart.write_text("0\n1\n" * 10)
    called = []

    def spy(name, original):
        def recording(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)
        return recording

    for short in ("cli", "graph", "hierarchy", "kway", "mesh", "nodes"):
        module = importlib.import_module(f"hierpart.{short}")
        for name in ("build_graph", "_csr", "dual_graph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart,
               "--format", "csv") == 0
    assert called == []
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0,6,10,9,9,1.000000,1.000000",
        "1,6,10,9,9,1.000000,1.000000",
    ]


def test_interface_commands_check_the_element_rows_once(tmp_path, monkeypatch):
    """The interface sub-mesh reuses rows read_mesh checked: one repeat scan per command."""
    mesh, epart, npart = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "n.txt"
    run("gen-mesh", "--nx", 6, "--ny", 5, "--out", mesh)
    run("partition", "--mesh", mesh, "--np", 4, "--np2", 2, "--out", epart)
    module = importlib.import_module("hierpart.mesh")
    original, scanned = module._first_repeat, []

    def spy(element_nodes):
        scanned.append(len(element_nodes))
        return original(element_nodes)

    monkeypatch.setattr(module, "_first_repeat", spy)
    assert run("assign-nodes", "--mesh", mesh, "--elem-part", epart,
               "--node-strategy", "interface", "--out", npart) == 0
    assert scanned == [30]
    scanned.clear()
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart) == 0
    assert scanned == [30]


def test_report_counts_a_folded_pair_once(tmp_path, capsys):
    """Two quads that share all four sides, in two parts: one cut element pair."""
    mesh, epart, npart, out = (tmp_path / name for name in ("m.txt", "p.txt", "n.txt", "o.txt"))
    mesh.write_text("2 4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n1 0 3 2\n")
    epart.write_text("0\n1\n")
    npart.write_text("0\n0\n1\n1\n")
    assert run("report", "--mesh", mesh, "--elem-part", epart, "--node-part", npart,
               "--format", "csv", "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == [
        "0,1,2,1,1,1.000000,1.000000",
        "1,1,2,1,1,1.000000,1.000000",
    ]


# Two elements that share all their sides: the quad ring shares four, the hex pair six.
_FOLDED_MESHES = {
    "quad ring": "2 4 2\n0 0\n1 0\n0 1\n1 1\n0 1 3 2\n1 0 2 3\n",
    "hex pair": "3 8 2\n" + "0 0 0\n" * 8 + "0 1 2 3 4 5 6 7\n1 0 3 2 5 4 7 6\n",
}


@pytest.mark.parametrize("text", _FOLDED_MESHES.values(), ids=_FOLDED_MESHES)
def test_every_command_takes_a_folded_mesh(tmp_path, capsys, monkeypatch, text):
    """The folded pair is one dual edge, every command exits 0, and report's cut
    is partition's and compare's, 1. dual_graph and report run no repeat check."""
    mesh, part, nodes = (tmp_path / name for name in ("m.txt", "p.txt", "n.txt"))
    mesh.write_text(text)
    calls = []
    real = graph_module._check_edges
    monkeypatch.setattr(graph_module, "_check_edges", lambda *a: calls.append(1) or real(*a))
    g = dual_graph(read_mesh(str(mesh)))
    g.validate()
    assert (g.num_vertices, g.num_edges, calls) == (2, 1, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lowest-rank gives rank 1 no nodes: NR is infinite
        assert run("compare", "--mesh", mesh, "--np", 2, "--format", "csv") == 0
        assert {row.split(",")[5] for row in capsys.readouterr().out.splitlines()[1:]} == {"1"}
        for method in ("flat", "hierarch"):
            assert run("partition", "--mesh", mesh, "--np", 2, "--method", method,
                       "--format", "csv", "--out", part) == 0
            assert capsys.readouterr().out.splitlines()[1].split(",")[0] == "1"
        for strategy in sorted(cli._STRATEGIES):
            assert run("assign-nodes", "--mesh", mesh, "--elem-part", part,
                       "--node-strategy", strategy, "--out", nodes) == 0
            calls.clear()
            assert run("report", "--mesh", mesh, "--elem-part", part, "--node-part", nodes,
                       "--format", "csv") == 0
            assert calls == []
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [row.split(",")[3:5] for row in rows] == [["1", "1"], ["1", "1"]]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 320. GiB for an array with shape (215, 200000000)"),
     "Unable to allocate 320. GiB for an array with shape (215, 200000000)"),
    (MemoryError(), "MemoryError"),
], ids=["numpy's message", "no message"])
def test_memory_error_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, error, message):
    """Raised, not allocated: gen-mesh exits 3 with one line and writes no --out."""
    def allocate(nx, ny):
        raise error
    monkeypatch.setattr(cli, "generate_structured_quad", allocate)
    out = tmp_path / "m.txt"
    assert run("gen-mesh", "--nx", 2, "--ny", 2, "--out", out) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_compare_single_part_rows_agree(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    run("gen-mesh", "--nx", 3, "--ny", 3, "--out", mesh)
    assert run("compare", "--mesh", mesh, "--np", 1, "--format", "csv") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 6
    metric_cols = {",".join(r.split(",")[5:]) for r in rows}
    assert metric_cols == {"0,1.000000,1.000000"}


def test_compare_flat_equals_hierarch_when_np2_is_one(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    run("gen-mesh", "--nx", 6, "--ny", 6, "--out", mesh)
    assert run("compare", "--mesh", mesh, "--np", 4, "--np2", 1, "--seed", 3,
               "--format", "csv") == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    by_method = {}
    for r in rows:
        by_method.setdefault(r[0], []).append(r[1:])
    assert by_method["hierarch"] == by_method["flat"]


@pytest.mark.parametrize("np2", [12, 2**63, 2**70])
def test_np2_at_or_past_np_writes_flat_partition(tmp_path, capsys, np2):
    # One group of all 12 parts: stage two is the whole cut, so hierarch is flat.
    mesh, flat, out = tmp_path / "m.txt", tmp_path / "flat.txt", tmp_path / "p.txt"
    run("gen-mesh", "--nx", 20, "--ny", 17, "--out", mesh)
    assert run("partition", "--mesh", mesh, "--np", 12, "--method", "flat", "--seed", 3,
               "--out", flat) == 0
    assert run("partition", "--mesh", mesh, "--np", 12, "--np2", np2, "--seed", 3,
               "--out", out) == 0
    assert run("compare", "--mesh", mesh, "--np", 12, "--np2", np2, "--seed", 3) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == flat.read_bytes()


def test_compare_text_table(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    run("gen-mesh", "--nx", 4, "--ny", 4, "--out", mesh)
    assert run("compare", "--mesh", mesh, "--np", 2, "--seed", 1) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].split() == [
        "method", "strategy", "np", "np2", "seed", "edge-cut", "NR", "elem-ratio"
    ]
    assert len(text.splitlines()) == 7


class TestExitCodes:
    def test_infeasible_is_3(self, tmp_path, capsys):
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        code = run("partition", "--mesh", mesh, "--np", 50, "--out", tmp_path / "p.txt")
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_4(self, tmp_path, capsys):
        code = run("partition", "--graph", tmp_path / "nope.txt", "--np", 2,
                   "--out", tmp_path / "p.txt")
        assert code == 4

    def test_parse_failure_is_4_with_line(self, tmp_path, capsys):
        bad = tmp_path / "g.txt"
        bad.write_text("3 2\n2\n1 3\nbogus\n")
        code = run("partition", "--graph", bad, "--np", 2, "--out", tmp_path / "p.txt")
        assert code == 4
        assert "g.txt:4" in capsys.readouterr().err

    def test_one_sided_repeated_listing_is_4(self, tmp_path, capsys):
        bad = tmp_path / "g.txt"
        bad.write_text("2 1\n2 2\n\n")
        out = tmp_path / "p.txt"
        assert run("partition", "--graph", bad, "--np", 2, "--out", out) == 4
        assert capsys.readouterr().err.endswith("g.txt:2: edge (0, 1) not listed symmetrically\n")
        assert not out.exists()

    def test_conflicting_inputs_is_2(self, tmp_path, capsys):
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        assert run("partition", "--mesh", mesh, "--graph", mesh, "--np", 2,
                   "--out", tmp_path / "p.txt") == 2

    def test_bad_np_is_2(self, tmp_path):
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        assert run("partition", "--mesh", mesh, "--np", 0, "--out", tmp_path / "p.txt") == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.5"])
    @pytest.mark.parametrize("command", ["partition", "compare"])
    def test_bad_tol_is_2(self, tmp_path, capsys, command, tol):
        mesh = tmp_path / "m.txt"
        out = tmp_path / "out.txt"
        run("gen-mesh", "--nx", 2, "--ny", 2, "--out", mesh)
        assert run(command, "--mesh", mesh, "--np", 2, f"--tol={tol}", "--out", out) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--np2=0", "--seed=-1", f"--seed={2**64}"])
    @pytest.mark.parametrize("command", ["partition", "compare"])
    def test_bad_np2_or_seed_is_2(self, tmp_path, capsys, command, flag):
        mesh = tmp_path / "m.txt"
        out = tmp_path / "out.txt"
        run("gen-mesh", "--nx", 2, "--ny", 2, "--out", mesh)
        assert run(command, "--mesh", mesh, "--np", 2, flag, "--out", out) == 2
        assert flag.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, bad_file", [("assign-nodes", "p.txt"), ("report", "p.txt"), ("report", "n.txt")]
    )
    def test_id_past_int64_is_4(self, tmp_path, capsys, command, bad_file):
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        (tmp_path / "p.txt").write_text("0\n1\n")
        (tmp_path / "n.txt").write_text("0\n" * 6)
        (tmp_path / bad_file).write_text(f"0\n{2**63}\n")
        files = ["--elem-part", tmp_path / "p.txt"]
        if command == "report":
            files += ["--node-part", tmp_path / "n.txt"]
        else:
            files += ["--out", tmp_path / "o.txt"]
        assert run(command, "--mesh", mesh, *files) == 4
        assert f"{bad_file}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, omitted",
        [
            ("gen-mesh", "out"),
            ("partition", "out"),
            ("assign-nodes", "mesh"),
            ("assign-nodes", "elem-part"),
            ("assign-nodes", "out"),
            ("report", "mesh"),
            ("report", "elem-part"),
            ("report", "node-part"),
            ("compare", "mesh"),
            ("assign-nodes", "out+elem-part+mesh"),
        ],
    )
    def test_missing_required_flag_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, omitted
    ):
        mesh, part, out = tmp_path / "m.txt", tmp_path / "p.txt", tmp_path / "o.txt"
        run("gen-mesh", "--nx", 4, "--ny", 4, "--out", mesh)
        part.write_text("0\n" * 16)
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        for name in ("read_mesh", "read_partition", "partition_kway", "hierarchical_partition",
                     "generate_structured_quad"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli, "_STRATEGIES", dict.fromkeys(cli._STRATEGIES, refuse))
        before = sorted(tmp_path.iterdir())
        flags = {
            "gen-mesh": {"nx": 2, "ny": 2, "out": out},
            "partition": {"mesh": mesh, "np": 8, "np2": 4, "out": out},
            "assign-nodes": {"mesh": mesh, "elem-part": part, "out": out},
            "report": {"mesh": mesh, "elem-part": part, "node-part": part},
            "compare": {"mesh": mesh, "np": 8, "np2": 4},
        }[command]
        argv = [a for f, v in flags.items() if f not in omitted.split("+") for a in (f"--{f}", v)]
        assert run(command, *argv) == 2
        # With all three missing, the error names the first in the command table's order.
        named = "mesh" if "+" in omitted else omitted
        assert capsys.readouterr() == ("", f"error: --{named} is required for this command\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("method", ["flat", "hierarch"])
    def test_part_count_past_the_vertices_is_3_before_sizing(self, tmp_path, capsys, method):
        # numpy refuses an array of 2**62 entries without allocating it.
        graph, out = tmp_path / "g.txt", tmp_path / "p.txt"
        graph.write_text("2 1\n2\n1\n")
        assert run("partition", "--graph", graph, "--method", method, "--np", 2**62, "--out", out) == 3
        assert capsys.readouterr().err == f"error: cannot cut 2 vertices into {2**62} nonempty parts\n"
        assert not out.exists()

    def test_form_feed_inside_a_mesh_line_splits_tokens_not_lines(self, tmp_path, capsys):
        # str.splitlines() would make line 3 two lines: "expected 2 coordinates", exit 4.
        mesh, out = tmp_path / "m.txt", tmp_path / "p.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        lines = mesh.read_text().split("\n")
        lines[2] = lines[2].replace(" ", "\x0c")
        mesh.write_text("\n".join(lines))
        assert run("partition", "--mesh", mesh, "--np", 2, "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert sorted(read_partition(str(out)).parts.tolist()) == [0, 1]

    @pytest.mark.parametrize("header", ["-1 0", "2 -1"])
    def test_negative_graph_header_is_4_with_line(self, tmp_path, capsys, header):
        graph = tmp_path / "g.txt"
        graph.write_text(f"{header}\n2\n1\n")
        assert run("partition", "--graph", graph, "--out", tmp_path / "p.txt") == 4
        nv, ne = header.split()
        message = f"error: {graph}:1: counts must be >= 0, got {nv} vertices and {ne} edges\n"
        assert capsys.readouterr().err == message

    # A 1-quad mesh whose fifth node belongs to no element.
    UNUSED_NODE_MESH = "2 5 1\n0 0\n1 0\n1 1\n0 1\n2 2\n0 1 2 3\n"

    @pytest.mark.parametrize("command", ["assign-nodes", "report", "partition"])
    def test_unused_mesh_node_is_4(self, tmp_path, capsys, command):
        mesh, part = tmp_path / "m.txt", tmp_path / "p.txt"
        mesh.write_text(self.UNUSED_NODE_MESH)
        part.write_text("0\n")
        (tmp_path / "n.txt").write_text("0\n" * 5)
        files = {
            "assign-nodes": ["--elem-part", part, "--out", tmp_path / "o.txt"],
            "report": ["--elem-part", part, "--node-part", tmp_path / "n.txt"],
            "partition": ["--np", 1, "--out", tmp_path / "o.txt"],
        }[command]
        assert run(command, "--mesh", mesh, *files) == 4
        assert capsys.readouterr().err == f"error: {mesh}:6: node 4 belongs to no element\n"
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("big", [2**63 - 1, 3_000_000_000])
    @pytest.mark.parametrize(
        "command, bad_file", [("assign-nodes", "p.txt"), ("report", "p.txt"), ("report", "n.txt")]
    )
    def test_id_past_the_id_count_is_4(self, tmp_path, capsys, command, bad_file, big):
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        (tmp_path / "p.txt").write_text("0\n1\n")
        (tmp_path / "n.txt").write_text("0\n" * 6)
        (tmp_path / bad_file).write_text(f"0\n{big}\n")
        files = ["--elem-part", tmp_path / "p.txt"]
        if command == "report":
            files += ["--node-part", tmp_path / "n.txt"]
        else:
            files += ["--out", tmp_path / "o.txt"]
        assert run(command, "--mesh", mesh, *files) == 4
        what = "part" if bad_file == "p.txt" else "rank"
        message = f"{bad_file}:2: {what} id {big} exceeds the file's id count 2\n"
        assert capsys.readouterr().err.endswith(message)

    BLANK_COORDS_MESH = "2 6 2\n  \n\t\n \n \n \t \n \n0 1 4 3\n1 2 5 4\n"
    FLOAT_ID_MESH = "2 6 2\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n1.0 2 3 4\n1 2 5 4\n"

    @pytest.mark.parametrize(
        "command, bad_file, text, message",
        [
            ("assign-nodes", "m.txt", BLANK_COORDS_MESH, "2: expected 2 coordinates"),
            ("report", "m.txt", BLANK_COORDS_MESH, "2: expected 2 coordinates"),
            ("assign-nodes", "m.txt", FLOAT_ID_MESH, "8: bad node id"),
            ("report", "m.txt", FLOAT_ID_MESH, "8: bad node id"),
            ("assign-nodes", "p.txt", "\n\n  \n\t\n", "1: empty partition file"),
            ("report", "n.txt", "\n\n  \n\t\n", "1: empty ownership file"),
        ],
        ids=["assign-blank-coords", "report-blank-coords", "assign-float-id", "report-float-id",
             "assign-blank-parts", "report-blank-owners"],
    )
    def test_input_the_c_reader_refuses_is_4_with_one_error_line(
        self, tmp_path, capsys, command, bad_file, text, message
    ):
        # numpy's reader warns "input contained no data" on blank input. A
        # warning that got out would escape main() as an error, or be shown.
        mesh = tmp_path / "m.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        (tmp_path / "p.txt").write_text("0\n1\n")
        (tmp_path / "n.txt").write_text("0\n" * 6)
        (tmp_path / bad_file).write_text(text)
        files = ["--elem-part", tmp_path / "p.txt"]
        if command == "report":
            files += ["--node-part", tmp_path / "n.txt"]
        else:
            files += ["--out", tmp_path / "o.txt"]
        capsys.readouterr()
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter(action)
                assert run(command, "--mesh", mesh, *files) == 4
            assert shown == []
            assert capsys.readouterr().err == f"error: {tmp_path / bad_file}:{message}\n"
            assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize(
        "command, bad_file", [("assign-nodes", "m.txt"), ("report", "n.txt"), ("partition", "g.txt")]
    )
    def test_undecodable_byte_is_4_with_one_error_line(self, tmp_path, capsys, command, bad_file):
        mesh, out = tmp_path / "m.txt", tmp_path / "o.txt"
        run("gen-mesh", "--nx", 2, "--ny", 1, "--out", mesh)
        (tmp_path / "p.txt").write_text("0\n1\n")
        (tmp_path / "n.txt").write_text("0\n" * 6)
        (tmp_path / "g.txt").write_text("2 1\n2\n1\n")
        bad = tmp_path / bad_file
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\xff\n", 1))
        files = {
            "assign-nodes": ["--mesh", mesh, "--elem-part", tmp_path / "p.txt"],
            "report": ["--mesh", mesh, "--elem-part", tmp_path / "p.txt", "--node-part", bad],
            "partition": ["--graph", bad, "--np", 2],
        }[command]
        capsys.readouterr()
        assert run(command, *files, "--out", out) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert re.match(r"error: '[-\w]+' codec can't decode byte 0xff in position \d+: ", err), err
        assert not out.exists()


def test_graph_input_matches_mesh_dual(tmp_path):
    from hierpart import dual_graph, generate_structured_quad, write_graph

    mesh_path, graph_path = tmp_path / "m.txt", tmp_path / "g.txt"
    run("gen-mesh", "--nx", 5, "--ny", 5, "--out", mesh_path)
    write_graph(dual_graph(generate_structured_quad(5, 5)), str(graph_path))
    p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
    assert run("partition", "--mesh", mesh_path, "--np", 4, "--seed", 2, "--out", p1) == 0
    assert run("partition", "--graph", graph_path, "--np", 4, "--seed", 2, "--out", p2) == 0
    assert p1.read_text() == p2.read_text()


# Values a fuzzed integer flag takes: in range, past the 6 elements of the
# fixture mesh, and at or past the 32- and 64-bit limits.
_FUZZ_INTS = [-1, 0, 1, 2, 3, 7, 2**31, 2**63 - 1, 2**63, 2**64, 10**30]
# gen-mesh allocates from its dimensions: numpy refuses 2**63 and up before it
# allocates, but 2**31 would ask for gigabytes, so its dimensions skip it.
_FUZZ_DIMS = [-1, 0, 1, 2, 3, 2**63, 2**64, 10**30]
_FUZZ_TOLS = ["nan", "inf", "-inf", "-0.0", "1e-320", "0.03", "1e308"]


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """A 3x2 quad mesh, its dual as a graph file, a 3-part split, its node owners."""
    tmp = tmp_path_factory.mktemp("tiny")
    files = {flag: str(tmp / name) for flag, name in [
        ("mesh", "m.txt"), ("graph", "g.txt"), ("elem-part", "p.txt"), ("node-part", "n.txt"),
        ("out", "o.txt"),
    ]}
    assert run("gen-mesh", "--nx", 3, "--ny", 2, "--out", files["mesh"]) == 0
    write_graph(dual_graph(read_mesh(files["mesh"])), files["graph"])
    assert run("partition", "--mesh", files["mesh"], "--np", 3, "--out", files["elem-part"]) == 0
    assert run("assign-nodes", "--mesh", files["mesh"], "--elem-part", files["elem-part"],
               "--out", files["node-part"]) == 0
    return files


def _fuzz_values(flag, files):
    if flag in files:
        return [files[flag]]
    if flag in ("nx", "ny", "nz"):
        return _FUZZ_DIMS
    if flag == "tol":
        return _FUZZ_TOLS
    choices = cli._FLAGS[flag].get("choices")
    return [*choices, "bogus"] if choices else _FUZZ_INTS


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_fuzzed_flags_exit_0_2_3_or_4_without_a_traceback(tiny_files, data):
    """Each command runs from a valid baseline with up to three of its flags
    dropped or set from the value sets above; argparse's SystemExit counts as
    its exit code. Only dimensions numpy refuses before it allocates are
    drawn; test_memory_error_exits_3_with_one_error_line raises a MemoryError."""
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)), label="command")
    flags = cli._COMMANDS[command].flags.split()
    given_flags = {"nx": 2, "ny": 2} if command == "gen-mesh" else {}
    for flag in cli._COMMANDS[command].required.split() + (["mesh"] if command == "partition" else []):
        given_flags[flag] = tiny_files[flag]
    changed = data.draw(st.lists(st.sampled_from(flags), max_size=3, unique=True), label="changed")
    for flag in changed:
        value = data.draw(st.sampled_from([None, *_fuzz_values(flag, tiny_files)]), label=flag)
        given_flags.pop(flag, None)
        if value is not None:
            given_flags[flag] = value
    argv = [command, *(f"--{flag}={value}" for flag, value in given_flags.items())]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
