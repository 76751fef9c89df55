"""Numpy views over a :class:`~repro.graph.compiled.CompiledGraph`.

The compiled index stores its CSR topology and per-node/per-edge weights
as plain Python lists (cheap to pickle, fast to index from the scalar
kernels).  The vector kernels need the same data as contiguous numpy
arrays; :class:`VectorGraph` converts each list exactly once and the
module-level cache keys the result by
``(payload_token, generation)`` — the same identity the residency
protocol tracks — so:

* repeated solves on one graph reuse the arrays;
* a stage-pool worker, which receives the *detached* payload
  (``detach()`` shares the lists and the token), builds the arrays once
  per resident graph, not once per solve;
* an out-of-band graph mutation mints a new token and therefore new
  arrays, while an :meth:`~repro.graph.compiled.CompiledGraph.
  apply_deltas` patch bumps the generation — either way the stale numpy
  mirror is never served again (old generations age out of the LRU).

The cache holds a handful of graphs (mirroring the workers' bounded
resident stores) with least-recently-used eviction.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["VectorGraph", "vector_graph_for", "discard_vector_graph"]

#: Graphs kept vectorized at once; matches the spirit of the workers'
#: bounded resident stores (a serving session rotates a few graphs).
_CACHE_LIMIT = 8

_CACHE: "OrderedDict[tuple, VectorGraph]" = OrderedDict()


class VectorGraph:
    """Contiguous numpy mirror of one compiled graph's flat arrays."""

    __slots__ = (
        "token",
        "generation",
        "offsets",
        "targets",
        "pair_w",
        "weighted_interest",
        "potential",
        "degrees",
        "max_degree",
        "number_of_nodes",
    )

    def __init__(self, compiled) -> None:
        self.token = compiled.payload_token
        self.generation = getattr(compiled, "generation", 0)
        self.offsets = np.asarray(compiled.offsets, dtype=np.int64)
        self.targets = np.asarray(compiled.targets, dtype=np.int64)
        self.pair_w = np.asarray(compiled.pair_w, dtype=np.float64)
        self.weighted_interest = np.asarray(
            compiled.weighted_interest, dtype=np.float64
        )
        self.potential = np.asarray(compiled.potential, dtype=np.float64)
        self.degrees = np.diff(self.offsets)
        self.max_degree = int(self.degrees.max()) if self.degrees.size else 0
        self.number_of_nodes = compiled.number_of_nodes


def vector_graph_for(compiled) -> VectorGraph:
    """The (cached) :class:`VectorGraph` for one compiled index."""
    key = (compiled.payload_token, getattr(compiled, "generation", 0))
    graph = _CACHE.get(key)
    if graph is not None:
        _CACHE.move_to_end(key)
        return graph
    graph = VectorGraph(compiled)
    _CACHE[key] = graph
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return graph


def discard_vector_graph(token: str) -> None:
    """Drop one graph's cached arrays, every generation (no-op if absent).

    ``CompiledGraph.close`` (and ``_materialize``, before patching an
    mmap-backed index) calls this ahead of unmapping: the cached numpy
    views alias the mapped buffers zero-copy, so every generation's
    views must be released for the mapping to actually close.
    """
    for key in [key for key in _CACHE if key[0] == token]:
        del _CACHE[key]
