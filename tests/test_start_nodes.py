"""Tests for start-node selection (CBAS phase 1)."""

import heapq
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.start_nodes import default_start_count, select_start_nodes
from repro.ce.probability import SelectionProbabilities
from repro.core.problem import WASOProblem
from repro.core.willingness import FastWillingnessEvaluator, WillingnessEvaluator
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import dblp_like
from repro.graph.social_graph import SocialGraph


class TestDefaultCount:
    def test_ceil_n_over_k(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=7)
        n = small_facebook.number_of_nodes()
        assert default_start_count(problem) == -(-n // 7)

    def test_at_least_one(self, fig3):
        problem = WASOProblem(graph=fig3, k=10)
        assert default_start_count(problem) == 1


class TestSelection:
    def test_orders_by_potential(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 3)
        potentials = [evaluator.node_potential(node) for node in starts]
        # Required-free selection: strictly the top-m by potential.
        all_potentials = sorted(
            (evaluator.node_potential(n) for n in fig3.nodes()), reverse=True
        )
        assert sorted(potentials, reverse=True) == all_potentials[:3]

    def test_required_comes_first(self, fig3):
        problem = WASOProblem(graph=fig3, k=5, required=frozenset({9}))
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 2)
        assert starts[0] == 9

    def test_required_fills_quota(self, fig3):
        problem = WASOProblem(
            graph=fig3, k=5, required=frozenset({1, 2, 9})
        )
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 2)
        assert len(starts) == 2
        assert set(starts) <= {1, 2, 9}

    def test_forbidden_excluded(self, fig3):
        problem = WASOProblem(graph=fig3, k=5, forbidden=frozenset({5, 10}))
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 8)
        assert 5 not in starts
        assert 10 not in starts

    def test_m_larger_than_graph(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 50)
        assert len(starts) == 10
        assert len(set(starts)) == 10

    def test_m_validation(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        with pytest.raises(ValueError):
            select_start_nodes(problem, evaluator, 0)

    def test_deterministic(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        evaluator = WillingnessEvaluator(small_facebook)
        first = select_start_nodes(problem, evaluator, 10)
        second = select_start_nodes(problem, evaluator, 10)
        assert first == second


class _Twin:
    """Distinct nodes sharing one ``repr``: exercises the id tie break."""

    def __repr__(self) -> str:
        return "twin"


def _oracle(problem, evaluator, m):
    """The historical scan: required first, then ``heapq.nlargest``.

    Required nodes are ranked like the rest — (potential, repr)
    descending, graph order among full ties.
    """
    position = {node: i for i, node in enumerate(problem.graph.nodes())}

    def key(node):
        return evaluator.node_potential(node), repr(node)

    required = sorted(
        sorted(problem.required, key=position.__getitem__), key=key, reverse=True
    )
    if len(required) >= m:
        return required[:m]
    scored = (
        (key(node), node)
        for node in problem.candidates()
        if node not in problem.required
    )
    top = heapq.nlargest(m - len(required), scored, key=lambda item: item[0])
    return required + [node for _, node in top]


@st.composite
def _ranked_instance(draw):
    n = draw(st.integers(4, 14))
    labels = []
    for i in range(n):
        kind = draw(st.sampled_from(["int", "str", "twin"]))
        labels.append(i if kind == "int" else f"s{i}" if kind == "str" else _Twin())
    levels = st.sampled_from([0.0, 0.5, 1.0])
    graph = SocialGraph()
    for label in labels:
        graph.add_node(label, draw(levels))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=2 * n)):
        if a != b and not graph.has_edge(labels[a], labels[b]):
            graph.add_edge(labels[a], labels[b], draw(levels))
    picks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    split = draw(st.integers(0, len(picks)))
    required = frozenset(labels[i] for i in picks[:split])
    forbidden = frozenset(labels[i] for i in picks[split:])
    k = draw(st.integers(max(1, len(required)), n))
    problem = WASOProblem(graph=graph, k=k, required=required, forbidden=forbidden)
    m = draw(st.integers(1, n + 2))
    a, b = draw(pairs.filter(lambda pair: pair[0] != pair[1]))
    kind = "set_tightness" if graph.has_edge(labels[a], labels[b]) else "add_edge"
    delta = (kind, labels[a], labels[b], draw(levels))
    return problem, m, delta


class TestCachedStartOrder:
    """The compiled path's cached ranking equals the ``nlargest`` scan."""

    @given(_ranked_instance())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_nlargest_oracle_across_generations(self, instance):
        problem, m, delta = instance
        graph = problem.graph
        distinct = len({repr(node) for node in problem.required})

        def check():
            reference = WillingnessEvaluator(graph)
            want = _oracle(problem, reference, m)
            fast = FastWillingnessEvaluator(graph.compiled())
            assert select_start_nodes(problem, fast, m) == want
            if distinct == len(problem.required):
                assert select_start_nodes(problem, reference, m) == want

        check()
        # Patched potentials: the bumped generation must rank afresh.
        compiled = graph.compiled()
        compiled.start_order()
        compiled.apply_deltas([delta])
        assert graph.compiled() is compiled
        assert compiled.generation == 1
        check()

    def test_order_is_not_pickled(self, small_facebook):
        import pickle

        compiled = small_facebook.compiled()
        order = compiled.start_order()
        assert compiled.start_order() is order
        assert "_start_order" not in compiled.__getstate__()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.start_order().tolist() == order.tolist()


_HASH_SEED_SCRIPT = textwrap.dedent(
    """
    from repro.algorithms.cbas_nd import CBASND
    from repro.core.problem import WASOProblem
    from repro.graph.generators import facebook_like
    from repro.graph.social_graph import SocialGraph

    def relabelled(source):
        graph = SocialGraph()
        for node in source.nodes():
            graph.add_node(f"u{node}", source.interest(node), source.lam(node))
        for u in source.nodes():
            for v, tau in source.neighbor_tightness(u).items():
                if not graph.has_edge(f"u{u}", f"u{v}"):
                    graph.add_edge(f"u{u}", f"u{v}", tau, source.tightness(v, u))
        return graph

    problem = WASOProblem(
        graph=relabelled(facebook_like(120, seed=1)),
        k=8,
        required=frozenset({"u5", "u7", "u9", "u11"}),
    )
    for engine in ("compiled", "reference"):
        solver = CBASND(budget=240, m=6, stages=4, engine=engine)
        result = solver.solve(problem, rng=1)
        print(solver.last_warm_state.starts, sorted(result.members),
              repr(result.willingness))
    # WASO-dis: the frontier is every allowed node, filled in candidate
    # order rather than set order.
    problem = WASOProblem(
        graph=relabelled(facebook_like(200, seed=4)), k=6, connected=False
    )
    for engine in ("compiled", "reference", "vector"):
        solver = CBASND(budget=200, m=5, stages=3, engine=engine)
        result = solver.solve(problem, rng=7)
        print(sorted(result.members), repr(result.willingness))
    """
)


def test_results_do_not_depend_on_hash_seed():
    """String node ids + required nodes, and string-id WASO-dis on every
    engine: same result in every process."""
    source = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(source))
        child = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == 5
    assert lines[0] == lines[1]  # compiled == reference
    assert lines[2] == lines[3]  # compiled == reference, WASO-dis
    assert outputs[0] == outputs[1] == outputs[2]


def test_compiled_solve_call_counts(monkeypatch):
    """Exact gates: a compiled CBAS-ND solve never scans all n nodes.

    Zero dense CE materializations, zero candidate-list builds, and a
    start selection reading at most m + |required| + |forbidden| ranked
    entries.
    """
    graph = dblp_like(20_000, seed=1)
    compiled = graph.compiled()
    calls = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    count(SelectionProbabilities, "_materialize_all")
    count(WASOProblem, "candidates")
    reads = []
    start_order = CompiledGraph.start_order

    class _CountedOrder:
        def __init__(self, order):
            self._order = order

        def __getitem__(self, key):
            part = self._order[key]
            reads.append(len(part))
            return part

    monkeypatch.setattr(
        CompiledGraph, "start_order", lambda self: _CountedOrder(start_order(self))
    )
    result = CBASND(budget=600, m=30, stages=6).solve(
        WASOProblem(graph=graph, k=8), rng=5
    )
    assert len(result.members) == 8
    assert calls == Counter()
    assert sum(reads) <= 30

    ranked = start_order(compiled).tolist()
    nodes = compiled.nodes
    required = frozenset(nodes[i] for i in ranked[5:8])
    forbidden = frozenset(nodes[i] for i in ranked[:4] + ranked[40:42])
    problem = WASOProblem(graph=graph, k=8, required=required, forbidden=forbidden)
    reads.clear()
    starts = select_start_nodes(problem, FastWillingnessEvaluator(compiled), 30)
    assert len(starts) == 30
    assert sum(reads) <= 30 + len(required) + len(forbidden)


def test_vector_solve_does_not_scale_with_n(monkeypatch):
    """Exact gates: a default vector CBAS-ND solve never densifies a CE
    vector or lists the candidates, and its traced allocations stay far
    below one float64 array per start (m · n · 8 B = 4.8 MB here)."""
    graph = dblp_like(20_000, seed=1)
    problem = WASOProblem(graph=graph, k=8)
    # Per-graph caches (compiled index, numpy views, start order) are
    # built once per graph, not per solve.
    CBASND(budget=60, m=4, stages=2, engine="vector").solve(problem, rng=1)
    calls = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    count(SelectionProbabilities, "_materialize_all")
    count(WASOProblem, "candidates")
    solver = CBASND(budget=600, m=30, stages=6, engine="vector")
    tracemalloc.start()
    try:
        result = solver.solve(problem, rng=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.members) == 8
    assert result.stats.extra["vector_batch_draws"] == 600
    assert calls == Counter()
    assert peak <= 3_000_000
