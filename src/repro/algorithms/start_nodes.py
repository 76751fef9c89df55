"""Start-node selection (phase 1 of CBAS / CBAS-ND, also used by RGreedy).

The paper sums, for every node, the interest score and the tightness
scores of incident edges, then extracts the ``m`` largest with a heap
(§3.1; the complexity analysis explicitly mentions the heap).  Required
attendees are always promoted to start nodes — the user study's
"with initiator" runs state that CBAS-ND "always chooses the user as a
start node" — ordered among themselves by the same rank, so the start
list never depends on set iteration order.

On a compiled evaluator the ranking is the graph's cached
:meth:`~repro.graph.compiled.CompiledGraph.start_order` (built once per
graph generation): selection walks its prefix and skips required and
forbidden ids, O(m + |required| + |forbidden|) per solve.  The dict
evaluator keeps the heap scan over every candidate, the reference the
compiled path is held to.
"""

from __future__ import annotations

import heapq
import math

from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.graph.social_graph import NodeId

__all__ = ["select_start_nodes", "default_start_count", "ranked_required"]


def default_start_count(problem: WASOProblem) -> int:
    """The paper's default ``m = ⌈n / k⌉`` (start nodes cover the network)."""
    return max(1, math.ceil(problem.graph.number_of_nodes() / problem.k))


def ranked_required(
    problem: WASOProblem,
    evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
) -> list[NodeId]:
    """Required attendees by (potential, ``repr``) descending.

    On a compiled evaluator equal keys fall back to ascending compiled
    id, matching the cached start order exactly.
    """
    required = list(problem.required)
    compiled = getattr(evaluator, "compiled", None)
    if compiled is not None:
        required.sort(key=compiled.index_of.__getitem__)
    return sorted(
        required,
        key=lambda node: (evaluator.node_potential(node), repr(node)),
        reverse=True,
    )


def select_start_nodes(
    problem: WASOProblem,
    evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
    m: int,
) -> list[NodeId]:
    """Pick ``m`` start nodes by descending node potential.

    Node potential is ``a_v·η_v + b_v·Σ τ_vj + Σ b_j·τ_jv`` — the weighted
    interest plus incident weighted tightness; ties break by ``repr``
    descending.  Required nodes come first regardless of score.  Returns
    fewer than ``m`` nodes only when the graph has fewer candidates.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    chosen = ranked_required(problem, evaluator)
    if len(chosen) >= m:
        return chosen[:m]

    compiled = getattr(evaluator, "compiled", None)
    if compiled is not None:
        index_of = compiled.index_of
        skip = {index_of[node] for node in problem.required}
        skip.update(index_of[node] for node in problem.forbidden)
        # At most |skip| entries of the prefix are skipped.
        prefix = compiled.start_order()[: m - len(chosen) + len(skip)]
        nodes = compiled.nodes
        for index in prefix.tolist():
            if index not in skip:
                chosen.append(nodes[index])
                if len(chosen) == m:
                    break
        return chosen

    taken = set(chosen)
    scored = (
        (evaluator.node_potential(node), repr(node), node)
        for node in problem.candidates()
        if node not in taken
    )
    top = heapq.nlargest(m - len(chosen), scored, key=lambda item: (item[0], item[1]))
    chosen.extend(node for _, _, node in top)
    return chosen
