"""The serving workload: an in-process daemon under open-loop load.

Two tenants, each a ``facebook_like`` graph of 10^4 nodes, are served by
a :class:`~repro.serving.ServingDaemon` with its default routing and
admission settings and two pool workers.  A load generator in its own
process sends a seeded open-loop schedule over one TCP connection: a
``nominal`` phase below half the daemon's capacity, timed for latency,
then a Poisson ``overload`` phase at over three times it, timed for
goodput and shedding.  Tenant ``static`` only solves; tenant ``stream``
also receives delta batches that cancel out in pairs, so writes land
beside reads and the graph keeps its size.  This is the only workload
that crosses admission, dispatch, the router, both resident pools,
graph residency and ``apply_deltas``.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

from repro.core.willingness import WillingnessEvaluator
from repro.graph.generators import facebook_like
from repro.runtime import request_from_spec
from repro.serving import ServingDaemon

import common
from layers import instrument, layer_metrics
from spans import Tracer

TENANT_N = 10_000
SOLVE = {"budget": 300, "m": 20, "stages": 4}
WORKERS = 2
#: (name, lines per second, share of ``--seconds``).  The daemon
#: completes about 7-9 solves/s on two CPUs.  ``overload`` is a Poisson
#: stream at over 3x that, so the default 64-deep admission queue fills
#: within about 3 s and sheds.  ``nominal`` loads it to about 45% for
#: latency, with evenly spaced arrivals (gaps jittered by
#: ``NOMINAL_JITTER``): the daemon answers a batch only when all of it
#: is solved, so Poisson bursts at this load amplified the machine's
#: noise into run-to-run latency spreads of 30-50% on identical inputs.
PHASES = (("nominal", 4.0, 0.75), ("overload", 32.0, 0.2))
NOMINAL_JITTER = 0.25
#: Seed of the schedule's shape: the arrival instants and which
#: (k, engine) each solve line carries.  It is fixed so that every
#: ``--seed`` meets the same bursts of the same work; ``--seed`` draws
#: the solver seeds and the mutations.
SHAPE_SEED = 7
#: Every fifth ``stream`` line is a mutate batch.
MUTATE_EVERY = 5
#: Served ``static`` replies re-solved directly per run, chosen by seed
#: (re-solving every one would double the run).
STATIC_CHECKS = 8
#: Requests of the honest-timing probe (traced runs only).
PROBE_REQUESTS = 4
#: Admission outcomes that are load shedding, not failures.
SHED_KINDS = ("shed", "queue_timeout", "deadline")
LOADGEN = Path(__file__).with_name("loadgen.py")


def _mutation_batches(graph, rng: random.Random):
    """Endless delta batches over ``graph`` that cancel out in pairs.

    The first of a pair adds two absent edges and halves one tightness;
    the second removes those edges and restores the tightness, so before
    every pair the graph is the original one.
    """
    nodes = sorted(graph.nodes())
    while True:
        added: list = []
        while len(added) < 2:
            u, v = rng.sample(nodes, 2)
            if v not in graph.neighbor_tightness(u) and {u, v} not in added:
                added.append({u, v})
        pairs = [sorted(edge) for edge in added]
        source = rng.choice(nodes)
        target = rng.choice(sorted(graph.neighbor_tightness(source)))
        tau = graph.neighbor_tightness(source)[target]
        yield [["add_edge", u, v, 0.5] for u, v in pairs] + [
            ["set_tightness", source, target, tau / 2]
        ]
        yield [["remove_edge", u, v] for u, v in pairs] + [
            ["set_tightness", source, target, tau]
        ]


def _schedule(seed: int, seconds: float, stream_graph):
    """Phase name and ``[due_offset, line]`` list per phase."""
    rng = random.Random(seed)
    arrivals = random.Random(SHAPE_SEED)
    mutations = _mutation_batches(stream_graph, random.Random(rng.randrange(2**31)))
    specs = {
        tenant: common.solve_specs(
            rng.randrange(2**31), order_seed=SHAPE_SEED + offset, tenant=tenant, **SOLVE
        )
        for offset, tenant in enumerate(("static", "stream"))
    }
    phases, stream_lines = [], 0
    for name, rate, share in PHASES:
        lines, due = [], 0.0
        for index in range(round(rate * share * seconds)):
            due += (
                arrivals.expovariate(rate) if name == "overload"
                else arrivals.uniform(1 - NOMINAL_JITTER, 1 + NOMINAL_JITTER) / rate
            )
            if index % 2 == 0:
                line = next(specs["static"])
            else:
                stream_lines += 1
                if stream_lines % MUTATE_EVERY == 0:
                    line = {"kind": "mutate", "tenant": "stream",
                            "deltas": next(mutations)}
                else:
                    line = next(specs["stream"])
            lines.append([due, {"id": f"{name}-{index}", **line}])
        phases.append((name, lines))
    return phases


async def _warm(host: str, port: int, repeat: int) -> None:
    """First replies: one solve per tenant and engine, in one burst."""
    reader, writer = await asyncio.open_connection(host, port)
    lines = [
        {"id": f"warm-{tenant}-{engine}", "tenant": tenant, "k": 8,
         "solver": "cbas-nd", "engine": engine, "seed": repeat, **SOLVE}
        for tenant in ("static", "stream") for engine in common.ENGINES
    ]
    writer.write("".join(json.dumps(line) + "\n" for line in lines).encode())
    await writer.drain()
    for _ in lines:
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up request failed: {reply}")
    writer.close()
    await writer.wait_closed()


def _solve_records(records):
    return [r for r in records if r["line"].get("kind") != "mutate"]


def _reply(record):
    return record["replies"][0][1] if len(record["replies"]) == 1 else None


def _latency(record) -> float:
    """Due-to-reply seconds; a refused or failed request misses every limit."""
    reply = _reply(record)
    if reply is None or not reply.get("ok"):
        return math.inf
    return record["replies"][0][0] - record["due"]


def _goodput(records) -> float:
    """Ok solve replies per second while the overload backlog lasts:
    from the phase start to its last ok reply."""
    done = [r["replies"][0][0] for r in _solve_records(records)
            if (_reply(r) or {}).get("ok")]
    return len(done) / max(done) if done else 0.0


def _check_replies(phases, stray, static_graph, errors: list):
    """Exactly one reply per line, sane solves, ordered mutations."""
    reference = WillingnessEvaluator(static_graph)
    generations = []
    for _, records in phases:
        for record in records:
            line, replies = record["line"], record["replies"]
            if len(replies) != 1:
                errors.append(f"line {record['id']}: {len(replies)} replies")
                continue
            reply = replies[0][1]
            if line.get("kind") == "mutate":
                if not reply.get("ok") or reply.get("applied") != len(line["deltas"]):
                    errors.append(f"mutate {record['id']}: applied {reply.get('applied')}")
                generations.append(reply.get("generation"))
                continue
            if not reply.get("ok"):
                continue
            members = [int(node) for node in reply["members"]]
            if len(members) != line["k"]:
                errors.append(f"line {record['id']}: {len(members)} members, k={line['k']}")
            if line["tenant"] != "static":
                continue
            if not static_graph.is_connected_subset(members):
                errors.append(f"line {record['id']}: group is not connected")
            if not common.willingness_matches(
                reply["willingness"], reference.value(members), line["engine"]
            ):
                errors.append(f"line {record['id']}: W differs from the reference")
    if stray:
        errors.append(f"replies to no sent line: {stray[:5]}")
    if any(b <= a for a, b in zip(generations, generations[1:])):
        errors.append(f"mutate generations not strictly increasing: {generations}")


def _check_admission(daemon, errors: list) -> None:
    c = daemon.admission.counters
    settled = c["completed"] + c["failed"] + c["queue_timeouts"] + c["deadline_missed"]
    if c["received"] != c["admitted"] + c["shed"] or c["admitted"] != settled:
        errors.append(f"admission counters do not balance: {c}")
    if daemon.admission.depth or daemon.counters["invalid"]:
        errors.append(f"queue not drained or invalid lines: {daemon.status()}")


async def _check_static(daemon, graph, phases, seed: int, errors: list) -> float:
    """Served ``static`` replies equal a direct ``solve_many`` of their
    specs on the daemon's context; returns the call's wall seconds."""
    served = [
        record for _, records in phases for record in _solve_records(records)
        if record["line"]["tenant"] == "static" and (_reply(record) or {}).get("ok")
    ]
    chosen = random.Random(seed).sample(served, min(STATIC_CHECKS, len(served)))
    requests = [
        request_from_spec(
            graph, {k: v for k, v in r["line"].items() if k not in ("id", "tenant")}
        )
        for r in chosen
    ]
    started = time.perf_counter()
    direct = await asyncio.to_thread(daemon.context.solve_many, requests)
    elapsed = time.perf_counter() - started
    for record, result in zip(chosen, direct):
        reply = _reply(record)
        if (sorted(map(str, result.solution.members)) != reply["members"]
                or result.solution.willingness != reply["willingness"]):
            errors.append(f"line {record['id']}: served reply differs from direct solve_many")
    return elapsed


async def _drive(daemon, schedule, workdir: Path):
    """Run the load generator over ``schedule``; returns (phases, stray)."""
    path = workdir / "schedule.json"
    path.write_text(json.dumps([lines for _, lines in schedule]))
    host, port = daemon.address
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(LOADGEN), host, str(port), str(path),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        limit=1 << 26,
    )
    phases = []
    try:
        for name, lines in schedule:
            ready = json.loads(await proc.stdout.readline())
            assert ready["event"] == "ready", ready
            proc.stdin.write(b"go\n")
            await proc.stdin.drain()
            done = json.loads(await proc.stdout.readline())
            by_id = {str(line["id"]): line for _, line in lines}
            for record in done["records"]:
                record["line"] = by_id[record["id"]]
            phases.append((name, done["records"]))
        stray = json.loads(await proc.stdout.readline())["stray"]
        proc.stdin.close()
    finally:
        if proc.returncode is None:
            try:
                await asyncio.wait_for(proc.wait(), 10)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
    return phases, stray


def _phase_metrics(phases) -> dict:
    """End-to-end numbers of the nominal and overload phases."""
    (_, nominal), (_, overload) = phases
    latencies = [_latency(r) for r in _solve_records(nominal)]
    overload_solves = _solve_records(overload)
    static_w = [
        _reply(r)["willingness"] for r in _solve_records(nominal)
        if r["line"]["tenant"] == "static" and (_reply(r) or {}).get("ok")
    ][: common.WILLINGNESS_PREFIX]
    return {
        "solves_per_s": _goodput(overload),
        "solve_p50_s": common.percentile(latencies, 0.5),
        "solve_p90_s": common.percentile(latencies, 0.9),
        "ok_frac": sum(_latency(r) < math.inf for r in overload_solves)
        / len(overload_solves),
        "willingness_mean": statistics.fmean(static_w) if static_w else 0.0,
    }


async def _run(static, stream, seed: int, seconds: float, traced: bool, workdir: Path):
    tracer = Tracer()
    if traced:
        instrument(tracer)
        tracer.enabled = True
    daemon = None
    try:
        setups = []
        for repeat in range(common.SETUP_REPEATS):
            if daemon is not None:
                await daemon.shutdown()
            graphs = {"static": static.copy(), "stream": stream.copy()}
            started = time.perf_counter()
            daemon = ServingDaemon(graphs, workers=WORKERS)
            host, port = await daemon.start()
            await _warm(host, port, repeat)
            setups.append(time.perf_counter() - started)
        since = tracer.mark()
        pools = (daemon.context.stage_pool(), daemon.context.solve_pool())
        installs = sum(p.installs for p in pools)
        restarts = sum(p.worker_restarts for p in pools)
        counters = dict(daemon.admission.counters)
        batches = daemon.counters["batches"]
        started = time.perf_counter()
        phases, stray = await _drive(
            daemon, _schedule(seed, seconds, stream), workdir
        )
        traced_wall = time.perf_counter() - started
        tracer.enabled = False
        rss = common.peak_rss_mb()
        errors: list = []
        static_graph = daemon.graphs["static"]
        _check_replies(phases, stray, static_graph, errors)
        _check_admission(daemon, errors)
        records = [r for _, rs in phases for r in rs]
        failed = sum(
            1 for r in records
            if _reply(r) is None
            or (not _reply(r)["ok"] and _reply(r)["error"]["kind"] not in SHED_KINDS)
        )
        plain_check_s = await _check_static(daemon, static_graph, phases, seed, errors)
        if not traced:
            metrics = _phase_metrics(phases)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = rss
            return len(records), failed, errors, metrics
        metrics = layer_metrics(tracer, since)
        metrics.update(common.setup_layer_metrics(tracer, since, common.SETUP_REPEATS))
        admission = daemon.admission.counters
        metrics.update({
            "pool.graph_installs": sum(p.installs for p in pools) - installs,
            "pool.worker_restarts": sum(p.worker_restarts for p in pools) - restarts,
            "admission.shed": admission["shed"] - counters["shed"],
            "admission.queue_timeouts":
                admission["queue_timeouts"] - counters["queue_timeouts"],
            "daemon.batches": daemon.counters["batches"] - batches,
            "serving.mutate_p50_s": common.percentile(
                [_latency(r) for r in phases[0][1] if r["line"].get("kind") == "mutate"],
                0.5,
            ),
            "loadgen.late_max_s": max(r["sent"] - r["due"] for r in records),
            "trace.wall_s": traced_wall,
        })
        common.check_self_time(metrics, errors)
        # The overhead: the same direct batch again, traced this time.
        tracer.mark()
        tracer.enabled = True
        traced_check_s = await _check_static(daemon, static_graph, phases, seed, errors)
        metrics["trace.overhead_frac"] = traced_check_s / plain_check_s - 1.0
        # Honest-timing probe: pooled solve-mode results, counted by the
        # wall clock they record (never used as a timing).
        tracer.mark()
        probe = [
            request_from_spec(static_graph, spec)
            for spec, _ in zip(common.solve_specs(seed, **SOLVE), range(PROBE_REQUESTS))
        ]
        await asyncio.to_thread(daemon.context.solve_many, probe, "solve")
        tracer.enabled = False
        metrics["pool.zero_elapsed_results"] += tracer.counts["pool.zero_elapsed_results"]
        common.dump_trace(tracer, "serve-mixed", seed)
        return len(records), failed, errors, metrics
    finally:
        tracer.enabled = False
        if daemon is not None:
            await daemon.shutdown()
        tracer.restore()


def run(seed: int, seconds: float, traced: bool, workdir: Path):
    """Run the serving workload; returns ``(attempted, failed, errors,
    metrics)``."""
    static = facebook_like(TENANT_N, seed=common.GRAPH_SEED)
    stream = facebook_like(TENANT_N, seed=common.GRAPH_SEED + 1)
    return asyncio.run(_run(static, stream, seed, seconds, traced, workdir))
