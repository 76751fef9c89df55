"""The in-process workloads: one closed-loop caller on a serial context.

``kernel-dense`` solves over a dense ``facebook_like`` graph with a
large budget, so the draw kernel dominates; ``scan-sparse`` solves over
a sparse ``dblp_like`` graph a hundred times larger, served from a
saved on-disk index, so the per-solve O(n) scans dominate.  Each is the
other's control: an optimisation of one should leave the other flat.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.willingness import WillingnessEvaluator
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import dblp_like, facebook_like
from repro.graph.io import resolve_graph_source
from repro.runtime import ExecutionContext, request_from_spec

import common
from layers import instrument, layer_metrics
from spans import Tracer

WORKLOADS = {
    "kernel-dense": {
        "generator": facebook_like, "n": 1_000, "budget": 3000,
        "m": 30, "stages": 6, "on_disk": False, "setups": 9,
    },
    "scan-sparse": {
        "generator": dblp_like, "n": 100_000, "budget": 600,
        "m": 30, "stages": 6, "on_disk": True, "setups": 3,
    },
}

#: A cheap request per engine that warms every lazy structure (freeze,
#: numpy views, component labels) before the first timed solve.
WARM_SPEC = {"k": 8, "solver": "cbas-nd", "budget": 60, "m": 4, "stages": 2}


def _solve(context, graph, spec):
    return context.solve_many([request_from_spec(graph, spec)])[0]


def _setup(config, graph, workdir: Path, repeat: int, tracer: Tracer):
    """One set-up: freeze (and save + mmap-load), then the first replies.

    Returns ``(served graph, seconds)``.  The caller copies the graph
    beforehand, outside the timed region, so every repeat freezes afresh.
    """
    started = time.perf_counter()
    if config["on_disk"]:
        compiled = CompiledGraph.from_graph(graph)
        index_dir = workdir / f"index-{repeat}"
        with tracer.span("graph.index_save"):
            compiled.save(index_dir)
        with tracer.span("graph.index_load"):
            served = resolve_graph_source(str(index_dir))
    else:
        served = graph
        served.compiled()
    context = ExecutionContext(mode="serial")
    for engine in common.ENGINES:
        _solve(context, served, {**WARM_SPEC, "engine": engine, "seed": repeat})
    return served, time.perf_counter() - started


def _closed_loop(context, graph, specs, seconds: float, min_solves: int):
    """Solve ``specs`` in order, each after the previous one returned,
    until ``seconds`` have passed, at least ``min_solves`` are done and
    the last request block is complete (so every run solves the same
    mix of work)."""
    outcomes = []
    started = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        try:
            result = _solve(context, graph, spec)
        except Exception as error:  # counted as failed, never hidden
            result = error
        outcomes.append((spec, result, time.perf_counter() - t0))
        if (
            len(outcomes) >= min_solves
            and len(outcomes) % common.BLOCK == 0
            and time.perf_counter() - started >= seconds
        ):
            break
    return outcomes, time.perf_counter() - started


def _check(graph, outcomes, errors: list) -> None:
    """Feasibility and the W oracle for every solved request."""
    reference = WillingnessEvaluator(graph)
    for spec, result, _ in outcomes:
        if isinstance(result, Exception):
            continue
        members = result.solution.members
        label = f"request seed={spec['seed']} engine={spec['engine']}"
        if len(members) != spec["k"]:
            errors.append(f"{label}: {len(members)} members, k={spec['k']}")
        if not graph.is_connected_subset(members):
            errors.append(f"{label}: group is not connected")
        if not set(spec.get("required", ())) <= members:
            errors.append(f"{label}: a required member is missing")
        if members & set(spec.get("forbidden", ())):
            errors.append(f"{label}: a forbidden member was chosen")
        if not common.willingness_matches(
            result.solution.willingness, reference.value(members), spec["engine"]
        ):
            errors.append(
                f"{label}: W {result.solution.willingness!r} != reference "
                f"{reference.value(members)!r}"
            )


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """Run one in-process workload; returns ``(attempted, failed,
    errors, metrics)``."""
    config = WORKLOADS[workload]
    graph = config["generator"](config["n"], seed=common.GRAPH_SEED)
    tracer = Tracer()
    if traced:
        instrument(tracer)
        tracer.enabled = True
    setups = []
    served = None
    try:
        for repeat in range(config["setups"]):
            if config["on_disk"] and served is not None:
                # Unmap the previous repeat's index (and drop the numpy
                # views over it) so every repeat loads cold.
                served.compiled().close()
            source = graph if config["on_disk"] else graph.copy()
            served, elapsed = _setup(config, source, workdir, repeat, tracer)
            setups.append(elapsed)
        since = tracer.mark()
        stream = common.solve_specs(
            seed, budget=config["budget"], m=config["m"], stages=config["stages"]
        )
        context = ExecutionContext(mode="serial")
        errors: list = []
        if not traced:
            outcomes, wall = _closed_loop(
                context, served, stream, seconds, common.MIN_SOLVES
            )
            _check(graph, outcomes, errors)
            return (len(outcomes), _failed(outcomes), errors,
                    common.inproc_metrics(outcomes, wall, setups))
        # Traced run: every request is solved untraced and then again
        # traced, back to back, so the overhead compares identical work.
        plain, replayed = [], []
        started = time.perf_counter()
        for spec in stream:
            tracer.request_id = len(plain)
            for enabled, log in ((False, plain), (True, replayed)):
                tracer.enabled = enabled
                log.extend(_closed_loop(context, served, [spec], 0.0, 1)[0])
            if (
                len(plain) >= common.MIN_SOLVES // 2
                and len(plain) % common.BLOCK == 0
                and time.perf_counter() - started >= seconds
            ):
                break
        tracer.enabled = False
        outcomes = plain + replayed
        plain_wall = sum(latency for _, _, latency in plain)
        traced_wall = sum(latency for _, _, latency in replayed)
        _check(graph, outcomes, errors)
        metrics = layer_metrics(tracer, since)
        metrics.update(common.setup_layer_metrics(
            tracer, since, config["setups"],
            workdir / f"index-{config['setups'] - 1}" if config["on_disk"] else None,
        ))
        metrics.update({name: 0 for name in common.SERVE_ONLY})
        # The traced solves' summed wall time (they alternate with untraced ones).
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        common.check_self_time(metrics, errors)
        common.dump_trace(tracer, workload, seed)
        return len(outcomes), _failed(outcomes), errors, metrics
    finally:
        tracer.restore()


def _failed(outcomes) -> int:
    return sum(isinstance(result, Exception) for _, result, _ in outcomes)
