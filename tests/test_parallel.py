"""The fork primitive: the same outputs with and without forked workers,
errors carried back to the caller, no child process left behind, and no
subgraph or worker for pieces that need no partitioning."""

from __future__ import annotations

import faulthandler
import os
import threading
import time
import warnings

import numpy as np
import pytest

from hierpart import (
    FileFormatError,
    Partition,
    TargetWeights,
    assign_interface_partition,
    build_graph,
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    hierarchical_partition,
    partition_kway,
)
from hierpart import kway, nodes
from hierpart.mesh import _node_parts, _pair_nodes

# Lane weight at the fork floor: two lanes this heavy fork when a CPU is spare.
W = kway._MIN_FORK_WEIGHT


def _pair(left, right):
    """``[left(), right()]`` through ``_fork_map``; ``left`` runs in the child when it forks."""
    return kway._fork_map(lambda f: f(), [left, right], [W, W])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs():
    """Flat 16 parts on quad 64², hierarch 12/5 on hex 16³, and interface node
    ownership for a 30-rank block split of quad 64², as bytes."""
    quad = generate_structured_quad(64, 64)
    flat = partition_kway(dual_graph(quad), 16, TargetWeights.uniform(16), seed=3)
    hier = hierarchical_partition(dual_graph(generate_structured_hex(16, 16, 16)), 12, 5, seed=3)
    blocks = Partition(np.arange(quad.num_elements) * 30 // quad.num_elements, 30)
    owner = assign_interface_partition(quad, blocks, seed=3).owner
    return flat.parts.tobytes(), hier.parts.tobytes(), owner.tobytes()


@pytest.fixture(scope="module")
def inline_outputs():
    saved = kway._spare_cpus
    kway._spare_cpus = 0
    try:
        return _outputs()
    finally:
        kway._spare_cpus = saved


@pytest.mark.parametrize("budget", [None, 3], ids=["default", "three"])
def test_outputs_do_not_depend_on_the_budget(monkeypatch, inline_outputs, budget):
    if budget is not None:
        monkeypatch.setattr(kway, "_spare_cpus", budget)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert _outputs() == inline_outputs
    assert bool(forks) == (kway._spare_cpus > 0)
    _no_child_left()


def test_no_fork_without_budget(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called with no spare CPU")

    monkeypatch.setattr(kway, "_spare_cpus", 0)
    monkeypatch.setattr(os, "fork", refuse)
    # Both runs fork once with one spare CPU: their lanes clear the floor.
    hierarchical_partition(dual_graph(generate_structured_hex(8, 8, 8)), 12, 5, seed=1)
    quad = generate_structured_quad(64, 64)
    blocks = Partition(np.arange(quad.num_elements) * 6 // quad.num_elements, 6)
    assign_interface_partition(quad, blocks, seed=1)
    assert _pair(lambda: 1, lambda: 2) == [1, 2]


def test_failed_fork_runs_inline(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(kway, "_spare_cpus", 1)
    monkeypatch.setattr(os, "fork", no_process)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert _pair(lambda: 1, lambda: 2) == [1, 2]
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed again


def test_budget_is_split_and_restored(monkeypatch):
    monkeypatch.setattr(kway, "_spare_cpus", 4)
    seen = _pair(lambda: kway._spare_cpus, lambda: kway._spare_cpus)
    assert seen == [1, 2]  # one CPU for the fork, the other three shared
    assert kway._spare_cpus == 4
    _no_child_left()


def test_fork_map_keeps_item_order(monkeypatch):
    monkeypatch.setattr(kway, "_spare_cpus", 3)
    items = list(range(11))
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    weights = [W * w for w in [1, 9, 1, 1, 5, 1, 1, 1, 2, 1, 1]]
    assert kway._fork_map(lambda x: x * x, items, weights) == [x * x for x in items]
    assert forks
    assert kway._fork_map(lambda x: x, [], []) == []
    _no_child_left()


def test_light_lanes_run_inline(monkeypatch):
    """Below the floor a fork costs more than the lane's work: both lanes
    must reach it before ``_fork_map`` forks."""

    def refuse():
        raise AssertionError("os.fork called for a lane under the floor")

    monkeypatch.setattr(kway, "_spare_cpus", 3)
    monkeypatch.setattr(os, "fork", refuse)
    assert kway._fork_map(lambda x: x + 1, [1, 2], [W - 1, 10 * W]) == [2, 3]
    assert kway._fork_map(lambda x: x + 1, [1, 2, 3], [W // 2, W // 2, W - 1]) == [2, 3, 4]


def _raise(exc):
    raise exc


class TestErrors:
    @pytest.fixture(autouse=True)
    def _one_spare_cpu(self, monkeypatch):
        monkeypatch.setattr(kway, "_spare_cpus", 1)
        yield
        _no_child_left()

    def test_child_exception_reaches_the_caller(self):
        with pytest.raises(ValueError, match=r"^boom in the child$"):
            _pair(lambda: _raise(ValueError("boom in the child")), lambda: 2)

    def test_exception_that_cannot_be_rebuilt_keeps_its_name_and_message(self):
        bad = FileFormatError("m.txt", 3, "bad node id")
        with pytest.raises(RuntimeError, match=r"^FileFormatError: m.txt:3: bad node id$"):
            _pair(lambda: _raise(bad), lambda: 2)

    def test_parent_exception_kills_the_child(self):
        start = time.monotonic()
        with pytest.raises(KeyError):
            _pair(lambda: time.sleep(60), lambda: _raise(KeyError("parent")))
        assert time.monotonic() - start < 30  # reaped without waiting for the sleep

    def test_child_that_dies_without_a_result(self):
        with pytest.raises(ChildProcessError, match="without a result"):
            _pair(lambda: os._exit(3), lambda: 2)

    def test_nested_failure_travels_up(self, monkeypatch):
        monkeypatch.setattr(kway, "_spare_cpus", 3)

        def inner():
            return _pair(lambda: _raise(ZeroDivisionError("deep")), lambda: 0)

        with pytest.raises(ZeroDivisionError, match="deep"):
            _pair(inner, lambda: 1)


@pytest.mark.parametrize("action", ["error", "always"])
def test_no_warning_escapes_a_forking_run(monkeypatch, action):
    """Python 3.12+ warns when a process with other OS threads forks, as one
    with numpy's OpenBLAS pool does; hierpart silences exactly that warning,
    since it makes no calls that could wait on such a thread's lock. Under
    "error" CPython drops that warning itself, so only "always" shows that
    it would otherwise escape."""
    monkeypatch.setattr(kway, "_spare_cpus", 1)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    # A native thread that, like a BLAS pool, is no Python thread.
    faulthandler.dump_traceback_later(600)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            hierarchical_partition(dual_graph(generate_structured_hex(8, 8, 8)), 12, 5, seed=1)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert forks
    assert [str(w.message) for w in caught] == []
    _no_child_left()


def test_no_fork_while_other_python_threads_run(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called beside another Python thread")

    monkeypatch.setattr(kway, "_spare_cpus", 3)
    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _pair(lambda: 1, lambda: 2) == [1, 2]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_cut_subgraphs_scatters_by_group_order_and_zeros_the_rest(monkeypatch):
    """On the path 0-1-...-9 with vertex weights 1-10, each cut sees the
    induced subgraph in its group's order: local vertex j is groups[i][j],
    with that vertex's weight and its neighbours inside the group."""
    monkeypatch.setattr(kway, "_spare_cpus", 0)
    g = build_graph([(v, v + 1, 1) for v in range(9)], 10, range(1, 11))
    groups = [np.array([6, 2, 5, 7]), np.array([9, 8])]
    seen = []

    def cut(sub, i):
        seen.append((i, sub.vertex_weights.tolist()))
        return sub.vertex_weights * 100 + np.diff(sub.adjacency_offsets) * 10 + i

    values = kway._cut_subgraphs(g, groups, cut)
    assert seen == [(0, [7, 3, 6, 8]), (1, [10, 9])]
    # weight * 100 + degree inside the group * 10 + group index; vertices 0, 1, 3, 4 in none
    assert values.tolist() == [0, 0, 300, 0, 0, 610, 720, 810, 911, 1011]
    assert kway._cut_subgraphs(g, [], cut).tolist() == [0] * 10


def test_cut_subgraphs_is_the_same_inline_and_forked(monkeypatch):
    """Five groups of quad 32² (one left out), each in a shuffled order and cut
    into three parts: the same values with no spare CPU and with three."""
    g = dual_graph(generate_structured_quad(32, 32))
    order = np.random.default_rng(4).permutation(g.num_vertices)
    groups = np.array_split(order, 6)[:5]

    def cut(sub, i):
        return partition_kway(sub, 3, None, seed=i).parts

    monkeypatch.setattr(kway, "_spare_cpus", 0)
    inline = kway._cut_subgraphs(g, groups, cut)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(kway, "_spare_cpus", 3)
    assert kway._cut_subgraphs(g, groups, cut).tobytes() == inline.tobytes()
    assert forks
    assert not inline[np.array_split(order, 6)[5]].any()
    _no_child_left()


@pytest.mark.parametrize("k", [2, 3, 4, 7, 16])
def test_one_part_halves_are_not_extracted(monkeypatch, k):
    """Only a half that splits again becomes a subgraph: the k - 1 bisections
    of a k-part cut have k - 2 such halves, the whole graph aside."""
    monkeypatch.setattr(kway, "_spare_cpus", 0)
    calls = []
    real = kway.extract_subgraph
    monkeypatch.setattr(kway, "extract_subgraph", lambda *a: calls.append(1) or real(*a))
    g = dual_graph(generate_structured_quad(16, 16))
    p = partition_kway(g, k, TargetWeights.uniform(k), seed=5)
    assert sorted(set(p.parts.tolist())) == list(range(k))
    assert len(calls) == max(k - 2, 0)


def test_single_node_interfaces_need_no_bisection(monkeypatch):
    """Quads 3 x 2 with ranks ``0 1 1`` over ``2 2 1``: ranks 0-1 and 0-2 meet
    at one node each, ranks 1-2 at two. Only the two-node interface is
    bisected; each single node goes to the lower rank of its pair."""
    monkeypatch.setattr(kway, "_spare_cpus", 0)
    mesh = generate_structured_quad(3, 2)
    blocks = Partition(np.array([0, 1, 1, 2, 2, 1]), 3)
    offsets, parts = _node_parts(mesh, blocks)
    a, b, pair_nodes = _pair_nodes(offsets, parts)
    assert list(zip(a.tolist(), b.tolist(), pair_nodes.tolist())) == [
        (0, 1, 1), (0, 2, 4), (1, 2, 6), (1, 2, 10)
    ]
    sizes = []
    real = nodes.partition_kway

    def counting(g, *args, **kwargs):
        sizes.append(g.num_vertices)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(nodes, "partition_kway", counting)
    owner = assign_interface_partition(mesh, blocks, seed=0).owner
    assert sizes == [2]
    assert owner[1] == 0 and owner[4] == 0
    assert sorted(owner[[6, 10]].tolist()) == [1, 2]
