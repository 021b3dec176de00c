"""Outside-in tracing of hierpart: wrap its public functions without editing source.

``cli``, ``hierarchy``, ``kway`` and ``nodes`` import functions by name, so
wrapping only the defining module would miss most calls. While a
:class:`Tracer` is active, every module-level name in ``hierpart.*`` bound to a
traced function (and every module-level dict entry holding one, such as the
CLI's strategy table) points at a wrapper; leaving the ``with`` block restores
the originals.

Spans are kept in memory as ``[name, start, end, parent_index]`` lists.
Counters for the per-layer ratios are computed after the wrapped call returns,
inside a ``trace.counter`` span, so they count as trace cost and not as the
caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("mesh", "graph", "kway", "hierarchy", "nodes", "cli")


def _public_functions() -> dict[str, object]:
    """``module.name`` -> function, for every function in a module's ``__all__``."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"hierpart.{short}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{short}.{name}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals = _public_functions()

    # -- rebinding ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {
            id(fn): self._wrap(name, fn) for name, fn in self._originals.items()
        }
        for modname, mod in list(sys.modules.items()):
            if modname != "hierpart" and not modname.startswith("hierpart."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[id(item)]
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                start = time.perf_counter()
                counter(args, kwargs, result)
                spans.append(["trace.counter", start, time.perf_counter(), parent])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters, named _count_<module>_<function> ------------------------

    def _count_kway_fm_refine(self, args, kwargs, result):
        g, p = args[0], args[1]
        cut = self._originals["graph.edge_cut"]
        self.counts["fm_refine.vertices"] += g.num_vertices
        self.counts["fm_refine.improved"] += cut(g, result) < cut(g, p)

    def _count_kway_heavy_edge_match(self, args, kwargs, result):
        self.counts["heavy_edge_match.vertices"] += len(result)
        self.counts["heavy_edge_match.matched"] += int(np.count_nonzero(result != np.arange(len(result))))

    def _count_kway_coarsen(self, args, kwargs, result):
        self.counts["coarsen.fine"] += args[0].num_vertices
        self.counts["coarsen.coarse"] += result.graph.num_vertices

    def _count_graph_build_graph(self, args, kwargs, result):
        self.counts["build_graph.edges"] += result.num_edges

    def _count_graph_extract_subgraph(self, args, kwargs, result):
        self.counts["extract_subgraph.vertices"] += len(result[1])

    def _count_hierarchy_discover_exchange(self, args, kwargs, result):
        self.counts["migrated_vertices"] += sum(
            len(ids) for (s, r), ids in result.transfers.items() if s != r
        )

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus time covered by child spans) and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def child_calls(self, name: str, parent_name: str) -> list[list[float]]:
        """Durations of ``name`` spans grouped by their ``parent_name`` parent span, in order."""
        groups: dict[int, list] = defaultdict(list)
        for _, start, end, parent in (s for s in self.spans if s[0] == name):
            if parent >= 0 and self.spans[parent][0] == parent_name:
                groups[parent].append(end - start)
        return [groups[k] for k in sorted(groups)]

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans], fh
            )
