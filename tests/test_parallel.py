"""The fork-join helper: the same outputs with and without forked workers,
errors carried back to the caller, and no child process left behind."""

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
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    hierarchical_partition,
    partition_kway,
)
from hierpart import kway


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
    hierarchical_partition(dual_graph(generate_structured_hex(6, 6, 6)), 12, 5, seed=1)
    quad = generate_structured_quad(16, 16)
    blocks = Partition(np.arange(quad.num_elements) * 6 // quad.num_elements, 6)
    assign_interface_partition(quad, blocks, seed=1)
    assert kway._fork_join(lambda: 1, lambda: 2) == (1, 2)


def test_failed_fork_runs_inline(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(kway, "_spare_cpus", 1)
    monkeypatch.setattr(os, "fork", no_process)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert kway._fork_join(lambda: 1, lambda: 2) == (1, 2)
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed again


def test_budget_is_split_and_restored(monkeypatch):
    monkeypatch.setattr(kway, "_spare_cpus", 4)
    seen = kway._fork_join(lambda: kway._spare_cpus, lambda: kway._spare_cpus)
    assert seen == (1, 2)  # one CPU for the fork, the other three shared
    assert kway._spare_cpus == 4
    _no_child_left()


def test_fork_map_keeps_item_order(monkeypatch):
    monkeypatch.setattr(kway, "_spare_cpus", 3)
    items = list(range(11))
    assert kway._fork_map(lambda x: x * x, items, [1, 9, 1, 1, 5, 1, 1, 1, 2, 1, 1]) == [
        x * x for x in items
    ]
    assert kway._fork_map(lambda x: x, [], []) == []
    _no_child_left()


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
            kway._fork_join(lambda: _raise(ValueError("boom in the child")), lambda: 2)

    def test_exception_that_cannot_be_rebuilt_keeps_its_name_and_message(self):
        bad = FileFormatError("m.txt", 3, "bad node id")
        with pytest.raises(RuntimeError, match=r"^FileFormatError: m.txt:3: bad node id$"):
            kway._fork_join(lambda: _raise(bad), lambda: 2)

    def test_parent_exception_kills_the_child(self):
        start = time.monotonic()
        with pytest.raises(KeyError):
            kway._fork_join(lambda: time.sleep(60), lambda: _raise(KeyError("parent")))
        assert time.monotonic() - start < 30  # reaped without waiting for the sleep

    def test_child_that_dies_without_a_result(self):
        with pytest.raises(ChildProcessError, match="without a result"):
            kway._fork_join(lambda: os._exit(3), lambda: 2)

    def test_nested_failure_travels_up(self, monkeypatch):
        monkeypatch.setattr(kway, "_spare_cpus", 3)

        def inner():
            return kway._fork_join(lambda: _raise(ZeroDivisionError("deep")), lambda: 0)

        with pytest.raises(ZeroDivisionError, match="deep"):
            kway._fork_join(inner, lambda: 1)


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
            hierarchical_partition(dual_graph(generate_structured_hex(6, 6, 6)), 12, 5, seed=1)
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
        assert kway._fork_join(lambda: 1, lambda: 2) == (1, 2)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
