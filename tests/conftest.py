"""Shared fixtures and small random-instance helpers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from hierpart import Graph, Partition, build_graph, generate_structured_quad

# Characters str.splitlines() breaks a line at but iterating over a file does not.
INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _read_lines(path: str) -> list[str]:
    """The lines of a text file, split as iterating over the file splits them.

    Only line breaks end a line (``\\n``, ``\\r\\n`` or ``\\r``); other
    characters ``str.splitlines`` breaks at, such as ``\\x0c``, stay inside
    it. A final line break adds no empty line, so an empty file has none.
    This is the line-split oracle of the block readers, and the whole-file
    read of the graph reader oracle in ``test_loop_oracles``.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


@pytest.fixture
def path4() -> Graph:
    """0-1-2-3 with unit weights; the smallest graph with a unique best cut."""
    return build_graph([(0, 1, 1), (1, 2, 1), (2, 3, 1)], 4)


@pytest.fixture
def strip_mesh():
    return generate_structured_quad(2, 1)


def random_graph(rng: random.Random, max_vertices: int, max_weight: int = 5):
    """Random simple graph as (graph, edge_list); edge_list is the oracle's copy."""
    nv = rng.randint(1, max_vertices)
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(1, max_weight)))
    return build_graph(edges, nv), edges, nv


def random_partition(rng: random.Random, nv: int, num_parts: int) -> Partition:
    return Partition(np.array([rng.randrange(num_parts) for _ in range(nv)]), num_parts)


def random_two_sided(rng: random.Random, nv: int) -> Partition:
    """2-part assignment guaranteed to leave both sides nonempty (nv >= 2)."""
    parts = np.array([rng.randrange(2) for _ in range(nv)])
    i, j = rng.sample(range(nv), 2)
    parts[i], parts[j] = 0, 1
    return Partition(parts, 2)
