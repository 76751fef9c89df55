"""Inputs, output oracles and result assembly shared by the workloads."""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import statistics
from pathlib import Path

#: Where a traced run writes its spans, one JSON line each.
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench-traces"
#: Graph generator seed.  The graph is fixed per workload and the
#: ``--seed`` drives the request stream, so runs on different seeds
#: differ in their requests, not in the graph they plan over.
GRAPH_SEED = 1
#: Set-ups per run of the serving workload; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Closed-loop solves a timed phase holds at the least, whatever the
#: clock says, so ``willingness_mean`` always has its full prefix.
MIN_SOLVES = 40
#: ``willingness_mean`` averages the first this-many requests: four
#: whole blocks of the (k, engine) grid, identical work on every run.
WILLINGNESS_PREFIX = 40
ENGINES = ("compiled", "vector")
K_RANGE = range(8, 13)
#: Requests per block of the request stream: every (k, engine) pair once.
BLOCK = len(K_RANGE) * len(ENGINES)
#: The vector engine's W tolerance oracle (the test suite's bound).
VECTOR_W_TOLERANCE = 1e-9
#: The compiled engine accumulates W by incremental deltas, so it agrees
#: with the from-scratch reference evaluator to rounding, not bit for bit.
COMPILED_W_TOLERANCE = 1e-12

#: Per-layer metrics only the serving workload can produce.
SERVE_ONLY = (
    "pool.graph_installs",
    "pool.worker_restarts",
    "admission.shed",
    "admission.queue_timeouts",
    "daemon.batches",
    "serving.mutate_p50_s",
    "loadgen.late_max_s",
)


def solve_specs(seed: int, budget: int, m: int, stages: int, order_seed=None, **extra):
    """Endless seeded stream of CBAS-ND request specs.

    Requests come in blocks of ten holding every (k, engine) pair of the
    grid once, so any whole number of blocks is the same mix of work
    whatever the seed.  ``order_seed`` (default: ``seed``) shuffles each
    block; ``seed`` draws the solver seeds.
    """
    rng = random.Random(seed)
    order = rng if order_seed is None else random.Random(order_seed)
    grid = [(k, engine) for k in K_RANGE for engine in ENGINES]
    while True:
        block = list(grid)
        order.shuffle(block)
        for k, engine in block:
            yield {
                "k": k,
                "solver": "cbas-nd",
                "budget": budget,
                "m": m,
                "stages": stages,
                "engine": engine,
                "seed": rng.randrange(2**31),
                **extra,
            }


def willingness_matches(reported: float, recomputed: float, engine: str) -> bool:
    tolerance = VECTOR_W_TOLERANCE if engine == "vector" else COMPILED_W_TOLERANCE
    return math.isclose(reported, recomputed, rel_tol=tolerance, abs_tol=tolerance)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live child.

    Read from ``VmHWM`` in ``/proc`` while the pool workers are alive:
    ``RUSAGE_CHILDREN`` only covers children already reaped.
    """
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # exited between listing and reading
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup_layer_metrics(tracer, until: int, setups: int, index_dir=None) -> dict:
    """Graph-layer set-up costs, per set-up, from the set-up spans."""
    spans = tracer.spans[:until]

    def per_setup(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name) / setups

    return {
        "graph.freeze_s": per_setup("graph.freeze"),
        "graph.index_save_s": per_setup("graph.index_save"),
        "graph.index_load_s": per_setup("graph.index_load"),
        "graph.index_bytes": dir_bytes(index_dir) if index_dir else 0,
    }


def dump_trace(tracer, workload: str, seed: int) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"{workload}-seed{seed}.jsonl")


def check_self_time(metrics: dict, errors: list) -> None:
    """Self times cannot add up to more than the traced wall time."""
    if metrics["trace.self_s"] > metrics["trace.wall_s"]:
        errors.append(
            f"traced self time {metrics['trace.self_s']:.6f}s exceeds "
            f"the traced wall time {metrics['trace.wall_s']:.6f}s"
        )


def inproc_metrics(outcomes, wall: float, setups) -> dict:
    """End-to-end metrics of a closed-loop timed phase."""
    ok = [(spec, res, lat) for spec, res, lat in outcomes if not isinstance(res, Exception)]
    # A failed solve misses every latency limit.
    latencies = [lat if not isinstance(res, Exception) else math.inf
                 for _, res, lat in outcomes]
    prefix = [res.solution.willingness for _, res, _ in outcomes[:WILLINGNESS_PREFIX]
              if not isinstance(res, Exception)]
    return {
        "setup_s": statistics.median(setups),
        "solves_per_s": len(ok) / wall,
        "solve_p50_s": percentile(latencies, 0.5),
        "solve_p90_s": percentile(latencies, 0.9),
        "ok_frac": len(ok) / len(outcomes),
        "willingness_mean": statistics.fmean(prefix) if prefix else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
