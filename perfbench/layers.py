"""Which program entry points the traced run wraps, and what it counts.

Every wrap names the attribute through which the program itself calls
the layer: module-level functions are patched in the module that
imported them (``repro.algorithms.cbas.select_start_nodes``, not the
defining module), methods on the class that defines them.
"""

from __future__ import annotations

import statistics

from repro.algorithms import cbas as cbas_module
from repro.algorithms.sampling import ExpansionSampler
from repro.ce.probability import SelectionProbabilities
from repro.graph.compiled import CompiledGraph
from repro.parallel.pool import ResidentSolvePool
from repro.parallel.stage_pool import ShardedStageExecutor, StagePool
from repro.runtime import context as context_module
from repro.runtime.context import ExecutionContext
from repro.serving.admission import AdmissionController

from common import percentile
from spans import Tracer

#: Modes a pooled result may have run in.
POOLED = ("solve", "stage")


def _count_draws(tracer, args, kwargs, batch, token) -> None:
    tracer.counts["draw.samples"] += len(batch)
    tracer.counts["draw.useful"] += sum(s is not None for s in batch)


def _count_vector_draws(tracer, args, kwargs, batches, token) -> None:
    for batch in batches:
        _count_draws(tracer, args, kwargs, batch, token)


def _count_route(tracer, args, kwargs, mode, token) -> None:
    # Only the per-request routing decision inside ``solve_many``; the
    # daemon re-resolves the mode afterwards for its latency model.
    parent = tracer.current().parent
    if parent is not None and parent.name == "solve_many":
        tracer.counts["router." + mode] += 1
        parent.marks.append(mode)


def _solve_many_before(tracer, args, kwargs):
    tracer.samples["solve_many.batch_size"].append(len(args[1]))
    return None


def _solve_many_after(tracer, args, kwargs, results, token) -> None:
    # A forced mode skips the router, so no decision was marked.
    forced = args[2] if len(args) > 2 else kwargs.get("mode")
    routes = tracer.current().marks or [forced] * len(results)
    for mode, result in zip(routes, results):
        if mode in POOLED and result.stats.elapsed_seconds == 0.0:
            tracer.counts["pool.zero_elapsed_results"] += 1


def _collect_after(tracer, args, kwargs, result, token) -> None:
    pool = args[0]
    tracer.counts["pool.payload_bytes"] += pool.batch_payload_bytes
    tracer.counts["pool.graph_patch_bytes"] += pool.batch_patch_bytes


def _ensure_resident_after(tracer, args, kwargs, result, token) -> None:
    pool = args[0]
    tracer.counts["pool.payload_bytes"] += pool.last_install_bytes
    tracer.counts["pool.graph_patch_bytes"] += pool.last_patch_bytes


def _stage_rpcs_before(tracer, args, kwargs):
    return args[1].stats.extra.get("shard_rpcs", 0)


def _stage_after(tracer, args, kwargs, result, rpcs_before) -> None:
    extra = args[1].stats.extra
    tracer.counts["stage.shard_rpcs"] += extra.get("shard_rpcs", 0) - rpcs_before
    tracer.counts["stage.shard_patch_bytes"] += sum(
        extra.get("shard_patch_bytes", [])[-1:]
    )


def _deltas_after(tracer, args, kwargs, result, token) -> None:
    tracer.counts["graph.delta_ops"] += len(args[1])


def _take_batch_after(tracer, args, kwargs, result, token) -> None:
    batch, _rejected = result
    now = tracer.current().start
    if batch:
        # The dispatch loop solves this batch next, on its worker thread.
        tracer.request_id = [entry.id for entry in batch]
        tracer.samples["daemon.batch_size"].append(len(batch))
    for entry in batch:
        tracer.samples["admission.queue_wait"].append(now - entry.arrived_at)


def instrument(tracer: Tracer) -> None:
    """Install every layer wrap on ``tracer`` (undo with ``restore``)."""
    tracer.wrap(CompiledGraph, "from_graph", "graph.freeze")
    tracer.wrap(CompiledGraph, "apply_deltas", "graph.apply_deltas",
                after=_deltas_after)
    tracer.wrap(cbas_module, "select_start_nodes", "start_nodes")
    tracer.wrap(ExpansionSampler, "draw_batch", "draw", after=_count_draws)
    tracer.wrap(ExpansionSampler, "draw_batch_vector", "draw",
                after=_count_vector_draws)
    tracer.wrap(SelectionProbabilities, "update", "ce.refit")
    tracer.wrap(SelectionProbabilities, "update_from_counts", "ce.refit")
    tracer.wrap(SelectionProbabilities, "_materialize_all", "ce.materialize")
    for name in ("apportion", "uniform_weights", "gaussian_weights"):
        tracer.wrap(cbas_module, name, "ocba")
    tracer.wrap(context_module, "choose_mode", "router", after=_count_route)
    tracer.wrap(ExecutionContext, "solve_many", "solve_many",
                before=_solve_many_before, after=_solve_many_after)
    tracer.wrap(ResidentSolvePool, "collect", "pool.collect",
                after=_collect_after)
    tracer.wrap(StagePool, "ensure_resident", "pool.ensure_resident",
                after=_ensure_resident_after)
    tracer.wrap(ShardedStageExecutor, "begin_solve", "stage.begin_solve",
                before=_stage_rpcs_before, after=_stage_after)
    tracer.wrap(ShardedStageExecutor, "run_stage", "stage.round_trip",
                before=_stage_rpcs_before, after=_stage_after)
    tracer.wrap(AdmissionController, "take_batch", "admission.take_batch",
                after=_take_batch_after)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, since: int) -> dict:
    """The per-layer numbers the spans and counters after ``since`` give."""
    self_s = tracer.self_times(since)
    counts = tracer.counts
    samples = counts["draw.samples"]
    waits = tracer.samples["admission.queue_wait"]
    return {
        "graph.apply_deltas_calls": tracer.calls("graph.apply_deltas", since),
        "graph.apply_deltas_s": self_s.get("graph.apply_deltas", 0.0),
        "graph.delta_ops": counts["graph.delta_ops"],
        "start_nodes.calls": tracer.calls("start_nodes", since),
        "start_nodes.self_s": self_s.get("start_nodes", 0.0),
        "draw.calls": tracer.calls("draw", since),
        "draw.samples": samples,
        "draw.useful_ratio": counts["draw.useful"] / samples if samples else 0.0,
        "draw.self_s": self_s.get("draw", 0.0),
        "ce.refit_calls": tracer.calls("ce.refit", since),
        "ce.refit_self_s": self_s.get("ce.refit", 0.0),
        "ce.materialize_self_s": self_s.get("ce.materialize", 0.0),
        "ocba.calls": tracer.calls("ocba", since),
        "ocba.self_s": self_s.get("ocba", 0.0),
        "router.serial": counts["router.serial"],
        "router.solve": counts["router.solve"],
        "router.stage": counts["router.stage"],
        "solve_many.calls": tracer.calls("solve_many", since),
        "solve_many.batch_size_mean": _mean(tracer.samples["solve_many.batch_size"]),
        "solve_many.self_s": self_s.get("solve_many", 0.0),
        "pool.graph_patch_bytes": counts["pool.graph_patch_bytes"],
        "pool.payload_bytes": counts["pool.payload_bytes"],
        "pool.zero_elapsed_results": counts["pool.zero_elapsed_results"],
        "stage.shard_rpcs": counts["stage.shard_rpcs"],
        "stage.shard_patch_bytes": counts["stage.shard_patch_bytes"],
        "stage.round_trip_s": sum(tracer.durations("stage.round_trip", since)),
        "admission.queue_wait_p50_s": percentile(waits, 0.5),
        "admission.queue_wait_p90_s": percentile(waits, 0.9),
        "daemon.batch_size_mean": _mean(tracer.samples["daemon.batch_size"]),
        "trace.spans": len(tracer.spans) - since,
        "trace.self_s": sum(self_s.values()),
    }
