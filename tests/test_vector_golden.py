"""Pinned vector-engine results.

``data/vector_golden.json`` records, for seeded vector-engine CBAS,
CBAS-ND and RGreedy solves, the exact members, ``repr(W)``,
``samples_drawn`` and ``failed_samples``.  The cases cover the batch
kernel's uniform, CE and greedy pick modes, on a dense
(``facebook_like``) and two sparse (``dblp_like``) graphs, plain and with
forbidden nodes (the allowed-mask path) plus two non-adjacent required
nodes (a disconnected seed, so rows go through the bridge check).

The kernel's storage layout (status columns, weight gathering, chunk
packing) may change freely; its results may not.  Regenerate the table
only for a deliberate change of results:

    PYTHONPATH=src python tests/test_vector_golden.py --write
"""

from __future__ import annotations

import json
import sys
from collections import deque
from pathlib import Path

import pytest

from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.rgreedy import RGreedy
from repro.core.problem import WASOProblem
from repro.graph.generators import dblp_like, facebook_like

GOLDEN = Path(__file__).resolve().parent / "data" / "vector_golden.json"

#: The first two graphs run every chunk with node-id status columns,
#: the sparse n=50000 one with compact columns.
GRAPHS = {
    "facebook_like-300": lambda: facebook_like(300, seed=3),
    "dblp_like-5000": lambda: dblp_like(5000, seed=3),
    "dblp_like-50000": lambda: dblp_like(50_000, seed=3),
}

SOLVERS = {
    "cbas": lambda: CBAS(budget=240, m=8, stages=4, engine="vector"),
    "cbas-nd": lambda: CBASND(budget=240, m=8, stages=4, engine="vector"),
    "rgreedy": lambda: RGreedy(budget=120, m=6, engine="vector"),
}

SEEDS = (11, 12)
K = 8

_GRAPH_CACHE: dict = {}


def _graph(name):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = GRAPHS[name]()
    return _GRAPH_CACHE[name]


def _constraints(graph):
    """Two required nodes at distance 2 (a disconnected seed) and
    three forbidden nodes near them, all chosen deterministically."""
    anchor = max(sorted(graph.nodes()), key=graph.degree)
    distance = {anchor: 0}
    queue = deque([anchor])
    while queue:
        node = queue.popleft()
        if distance[node] == 3:
            continue
        for other in sorted(graph.neighbors(node)):
            if other not in distance:
                distance[other] = distance[node] + 1
                queue.append(other)
    partner = min(node for node, hops in distance.items() if hops == 2)
    near = sorted(node for node, hops in distance.items() if hops == 1)
    forbidden = frozenset(near[1:4])
    return frozenset({anchor, partner}), forbidden


def _problem(graph_name, constrained):
    graph = _graph(graph_name)
    if not constrained:
        return WASOProblem(graph=graph, k=K)
    required, forbidden = _constraints(graph)
    return WASOProblem(
        graph=graph, k=K, required=required, forbidden=forbidden
    )


def _cases():
    for graph_name in GRAPHS:
        for constrained in (False, True):
            for solver_name in SOLVERS:
                for seed in SEEDS:
                    yield (
                        f"{solver_name}/{graph_name}/"
                        f"{'constrained' if constrained else 'plain'}/{seed}"
                    )


def _run(case):
    solver_name, graph_name, variant, seed = case.split("/")
    problem = _problem(graph_name, variant == "constrained")
    result = SOLVERS[solver_name]().solve(problem, rng=int(seed))
    return {
        "members": sorted(result.members),
        "willingness": repr(result.willingness),
        "samples_drawn": result.stats.samples_drawn,
        "failed_samples": result.stats.failed_samples,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_vector_result_pinned(golden, case):
    assert _run(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {case: _run(case) for case in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
