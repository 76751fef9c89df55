"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import random
import time

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: deterministic fault-injection differential tests "
        "(tests/test_faults.py) — worker kills, reply drops/delays, "
        "deadline expiry — asserting bit-identical recovery; part of "
        "tier 1 and re-runnable standalone via "
        "`PYTHONPATH=src python -m pytest tests/test_faults.py -m chaos`",
    )

from repro.core.problem import WASOProblem
from repro.graph.generators import (
    dblp_like,
    facebook_like,
    figure1_graph,
    figure3_graph,
    random_social_graph,
)
from repro.graph.social_graph import SocialGraph


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def triangle_graph() -> SocialGraph:
    """Three mutually connected nodes with distinct scores."""
    graph = SocialGraph()
    graph.add_node("a", interest=1.0)
    graph.add_node("b", interest=2.0)
    graph.add_node("c", interest=3.0)
    graph.add_edge("a", "b", 0.5)
    graph.add_edge("b", "c", 0.25)
    graph.add_edge("a", "c", 0.75)
    return graph


@pytest.fixture
def path_graph() -> SocialGraph:
    """Five nodes in a path: 0 - 1 - 2 - 3 - 4 with unit scores."""
    graph = SocialGraph()
    for node in range(5):
        graph.add_node(node, interest=1.0)
    for node in range(4):
        graph.add_edge(node, node + 1, 1.0)
    return graph


@pytest.fixture
def two_components_graph() -> SocialGraph:
    """Two triangles with no bridge; second triangle is better."""
    graph = SocialGraph()
    for node, interest in [(0, 1.0), (1, 1.0), (2, 1.0), (3, 5.0), (4, 5.0), (5, 5.0)]:
        graph.add_node(node, interest=interest)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        graph.add_edge(u, v, 0.1)
    for u, v in [(3, 4), (4, 5), (3, 5)]:
        graph.add_edge(u, v, 2.0)
    return graph


@pytest.fixture
def fig1() -> SocialGraph:
    return figure1_graph()


@pytest.fixture
def fig3() -> SocialGraph:
    return figure3_graph()


@pytest.fixture(scope="session")
def small_facebook() -> SocialGraph:
    """Session-cached Facebook-regime graph for solver tests."""
    return facebook_like(200, seed=99)


@pytest.fixture(scope="session")
def small_dblp() -> SocialGraph:
    return dblp_like(200, seed=99)


@pytest.fixture(scope="session")
def tiny_random() -> SocialGraph:
    """A small connected random graph for exact-solver comparisons."""
    graph = random_social_graph(18, average_degree=4.0, seed=5)
    _connect(graph)
    return graph


def _connect(graph: SocialGraph) -> None:
    """Chain components together so connected-WASO instances exist."""
    components = graph.connected_components()
    anchor = next(iter(components[0]))
    for component in components[1:]:
        graph.add_edge(anchor, next(iter(component)), 0.05)


@pytest.fixture
def connectify():
    """Expose the component-chaining helper to tests."""
    return _connect


@pytest.fixture
def index_cache(tmp_path):
    """Scratch cache directory for saved frozen-index tests.

    Everything the out-of-core storage tests write (saved indexes,
    ingested edge lists) lands here and is torn down with ``tmp_path``
    — nothing may save into a shared session graph, whose adopted
    ``disk_home`` would outlive the directory.
    """
    path = tmp_path / "graph-cache"
    path.mkdir()
    return path


@pytest.fixture
def no_orphans():
    """Assert the test leaves no worker processes behind (5 s grace)."""
    before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaked = set(multiprocessing.active_children()) - before
        if not leaked:
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"orphan worker processes: {leaked}")
        time.sleep(0.02)
