"""The unified runtime layer: one object owns everything between a
request and a :class:`~repro.core.solution.GroupSolution`.

Before this layer existed the execution machinery was scattered: engine
selection lived on every solver constructor, worker pools behind the
solvers that used them, warm states on the
:class:`~repro.online.replanning.OnlinePlanner`, and the choice between
the parallel modes in a rule-of-thumb comment.  :class:`ExecutionContext`
consolidates all of it:

* **engine selection** — ``engine="compiled"|"reference"``, inherited by
  every solver the context builds;
* **pool lifecycle** — one :class:`~repro.parallel.pool.WorkerPool`
  serves both ``"solve"`` and ``"stage"`` mode.  It is created lazily,
  stays resident across solves, batches, and re-planning rounds — each
  graph's detached arrays are shipped **at most once per (graph,
  worker) pair**, per the residency protocol in
  :mod:`repro.parallel.residency` — is reference-counted across
  co-owners (:meth:`acquire` / :meth:`release`), and is torn down by
  :meth:`close` or ``with``-exit;
* **mode routing** — ``mode="auto"`` resolves per request through the
  cost model in :mod:`repro.runtime.router`; ``"serial"`` / ``"solve"``
  / ``"stage"`` force a mode;
* **warm-state storage** — :class:`~repro.algorithms.cbas.CBASWarmState`
  snapshots keyed by caller token, so online re-planning and repeated
  requests share one place (and one resident pool) for cross-solve
  state;
* **the batched front door** — :meth:`solve_many` multiplexes a list of
  heterogeneous :class:`~repro.runtime.requests.SolveRequest`\\ s over
  one shared compiled graph, with results bit-identical to solving the
  requests one by one.

Construction stays cheap: a context created and never used for parallel
work starts no processes.  Solvers constructed *without* a context get a
private serial one, which keeps the historical direct-call behaviour —
``CBASND().solve(problem, rng=7)`` remains bit-identical to every
previous release.

The context is not thread-safe: like the pool it serves one solve at a
time (concurrency comes from the worker processes underneath).
"""

from __future__ import annotations

import inspect
import os
import time
import traceback
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import (
    RngLike,
    Solver,
    SolveResult,
    SolveStats,
    coerce_rng,
)
from repro.algorithms.stage_exec import SerialStageExecutor, StageExecutor
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.core.willingness import evaluator_for as _evaluator_for
from repro.core.willingness import validate_engine
from repro.exceptions import BatchExecutionError, RequestFailure
from repro.parallel.residency import record_recovery, record_shipping
from repro.runtime.requests import SolveRequest
from repro.runtime.router import choose_mode, validate_mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool

__all__ = ["ExecutionContext"]

#: Engines whose worker-side solves run on the resident compiled arrays;
#: every other solve ships its dict problem with each request.
RESIDENT_ENGINES = ("compiled", "vector")

#: ``solve_many``'s per-batch shipping and recovery keys, which a
#: best-of split reports for the batch as a whole.
_BATCH_KEYS = (
    "graph_shipped",
    "graph_installs",
    "batch_payload_bytes",
    "graph_patch_bytes",
    "worker_restarts",
    "chunk_retries",
    "degraded_to_serial",
    "deadline_missed",
)


def _factory_params(name: str):
    """Constructor parameters of a registry solver (VAR_KEYWORD aware)."""
    from repro.algorithms.registry import solver_factory

    signature = inspect.signature(solver_factory(name))
    params = signature.parameters
    open_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    return params, open_kwargs


class ExecutionContext:
    """Owns engines, the pool, routing, and warm state for a serving session.

    Parameters
    ----------
    engine:
        Default execution engine for solvers built through the context.
    mode:
        Routing policy: ``"auto"`` (cost-model router, the default),
        or a forced ``"serial"`` / ``"solve"`` / ``"stage"``.
    workers:
        Worker count of the pool (``None`` = one per CPU).  The
        auto-router caps it by the CPU count; an explicit mode honours
        it as given (oversubscription is the caller's choice).
    executor:
        Explicit :class:`~repro.algorithms.stage_exec.StageExecutor`
        override — every staged solve runs on it, bypassing the router.
        This is the one way to pin a stage strategy (tests inject a
        traced :class:`~repro.parallel.stage_pool.ShardedStageExecutor`).
    pool:
        A caller-owned :class:`~repro.parallel.pool.WorkerPool` to run
        on instead of lazily creating an owned one; a shared pool is
        never closed by this context.
    cpu_count:
        Override for ``os.cpu_count()`` (tests).
    max_retries:
        Crash-retry budget for the owned pool (``None`` = the pool's
        default, :data:`~repro.parallel.residency.DEFAULT_MAX_RETRIES`).
        Once the pool exhausts it, the context goes *degraded*: the
        affected requests re-run serially in-parent
        (``degraded_to_serial`` in their stats) and the router sends
        everything serial until :meth:`close` discards the pool.
    """

    def __init__(
        self,
        engine: str = "compiled",
        mode: str = "auto",
        workers: Optional[int] = None,
        executor: Optional[StageExecutor] = None,
        pool: "Optional[WorkerPool]" = None,
        cpu_count: Optional[int] = None,
        max_retries: Optional[int] = None,
    ) -> None:
        self.engine = validate_engine(engine)
        self.mode = validate_mode(mode)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries is not None and max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.workers = workers
        self.max_retries = max_retries
        self._cpu_count = cpu_count
        self._executor_override = executor
        self._serial_executor = SerialStageExecutor()
        self._vector_executor: Optional[StageExecutor] = None
        self._pool = pool
        self._owns_pool = pool is None
        self._warm_states: dict = {}
        self._mode_force: Optional[str] = None
        self._degraded = False
        self._refs = 1

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def cpu_count(self) -> int:
        return self._cpu_count or os.cpu_count() or 1

    @property
    def effective_workers(self) -> int:
        """Worker count the pool is sized with."""
        return self.workers if self.workers is not None else self.cpu_count

    @property
    def degraded(self) -> bool:
        """Has the pool exhausted its crash-retry budget?

        While degraded the router sends everything serial (in-parent
        execution is the floor dying workers cannot take out); the
        serving daemon reports the flag on its health endpoint.
        :meth:`close` discards the pool and clears it.
        """
        return self._degraded

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    def evaluator_for(self, problem: WASOProblem, engine: Optional[str] = None):
        """Willingness evaluator for ``problem`` on the context's engine."""
        return _evaluator_for(problem.graph, engine or self.engine)

    # ------------------------------------------------------------------
    # Pool (lazy, resident, shared)
    # ------------------------------------------------------------------
    def solve_pool(self) -> "WorkerPool":
        """The resident worker pool, created on first use.

        One pool serves both parallel modes: ``solve_many`` chunks and
        best-of splits as well as stage-sharded solves.  Its workers
        cache detached compiled-graph arrays keyed by payload token
        (:mod:`repro.parallel.residency`), so a serving session ships
        each graph at most once per worker, whichever mode uses it.
        """
        if self._pool is None:
            from repro.parallel.pool import WorkerPool

            kwargs = {}
            if self.max_retries is not None:
                kwargs["max_retries"] = self.max_retries
            self._pool = WorkerPool(max(1, self.effective_workers), **kwargs)
            self._owns_pool = True
        return self._pool

    #: The same pool under its stage-mode name (one pool serves both).
    stage_pool = solve_pool

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def resolve_mode(
        self,
        problem: WASOProblem,
        budget: int,
        batch_size: int = 1,
        mode: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> str:
        """Resolve the execution mode for one request.

        Precedence: explicit ``mode`` argument, then the mode pinned by
        an enclosing :meth:`solve` call, then the context default; an
        ``"auto"`` outcome runs the cost-model router with the request's
        engine (the vector engine shifts the serial-vs-parallel
        break-even).
        """
        choice = mode if mode is not None else (self._mode_force or self.mode)
        validate_mode(choice)
        if choice != "auto":
            return choice
        return choose_mode(
            n=problem.graph.number_of_nodes(),
            budget=budget,
            batch_size=batch_size,
            workers=self.workers,
            cpu_count=self.cpu_count,
            healthy=not self._degraded,
            engine=engine or self.engine,
        )

    def executor_for(
        self,
        solver: Solver,
        problem: WASOProblem,
        mode: Optional[str] = None,
    ) -> StageExecutor:
        """Stage-execution strategy for one solve.

        Called by the staged solvers (:class:`~repro.algorithms.cbas.
        CBAS` and subclasses) for every solve.  The ``executor``
        override wins; otherwise routes to the stage-sharded strategy
        only when the resolved mode is ``"stage"`` and the solver can
        actually shard (compiled engine, shard-protocol hooks);
        everything else — including ``"solve"`` mode, which splits
        *above* the stage loop — runs the serial in-process strategy.
        """
        if self._executor_override is not None:
            return self._executor_override
        solver_engine = getattr(solver, "engine", None)
        resolved = self.resolve_mode(
            problem,
            getattr(solver, "budget", 0) or 0,
            mode=mode,
            engine=solver_engine,
        )
        if (
            resolved == "stage"
            and solver_engine in ("compiled", "vector")
            and hasattr(solver, "_shard_mode")
        ):
            from repro.parallel.stage_pool import ShardedStageExecutor

            return ShardedStageExecutor(pool=self.solve_pool())
        if solver_engine == "vector" and hasattr(solver, "_shard_mode"):
            # Vector-engine staged solves go through the batch kernel;
            # the executor is stateless (per-solve state lives on the
            # sampler) so one cached instance serves every solve.
            if self._vector_executor is None:
                from repro.vector.stage_exec import VectorSerialStageExecutor

                self._vector_executor = VectorSerialStageExecutor()
            return self._vector_executor
        return self._serial_executor

    @contextmanager
    def _forced_mode(self, mode: str):
        """Pin the resolved mode for the duration of one solve call."""
        previous = self._mode_force
        self._mode_force = mode
        try:
            yield
        finally:
            self._mode_force = previous

    # ------------------------------------------------------------------
    # Solver construction
    # ------------------------------------------------------------------
    def make_solver(self, name: str, **kwargs) -> Solver:
        """Build a registry solver wired to this context.

        Context-aware solvers receive ``context=self`` (and therefore
        the context's engine and routing); solvers without execution
        state (exact / IP) are built as-is.
        """
        from repro.algorithms.registry import make_solver

        params, open_kwargs = _factory_params(name)
        if "context" in params or open_kwargs:
            kwargs.setdefault("context", self)
        return make_solver(name, **kwargs)

    def _stage_capable(self, name: str, kwargs: dict) -> bool:
        """Can a ``name`` solver actually run stage-sharded?

        Stage mode needs the compiled engine plus the shard-protocol
        hooks; a request routed "stage" without them would degrade to a
        sequential inline solve, so :meth:`solve_many` demotes it to the
        multiplexer instead.
        """
        from repro.algorithms.registry import solver_factory

        params, open_kwargs = _factory_params(name)
        if "engine" not in params and not open_kwargs:
            return False
        if kwargs.get("engine", self.engine) not in ("compiled", "vector"):
            return False
        factory = solver_factory(name)
        if isinstance(factory, type):
            return hasattr(factory, "_shard_mode")
        # Function factories (e.g. cbas-nd-g) wrap a solver class; probe
        # with a throwaway instance (constructors are cheap).
        try:
            return hasattr(factory(**kwargs), "_shard_mode")
        except Exception:
            return False

    def _dispatch_engine(self, name: str, kwargs: dict) -> Optional[str]:
        """Engine a worker-side build of ``name`` would run, or ``None``.

        Workers build solvers from ``(name, kwargs)`` without a context,
        so the context's engine must be made explicit in the shipped
        kwargs for engine-aware solvers; solvers with no engine knob
        (exact / IP) return ``None`` and ship the full dict graph.
        """
        params, open_kwargs = _factory_params(name)
        if "engine" not in params and not open_kwargs:
            return None
        kwargs.setdefault("engine", self.engine)
        return kwargs["engine"]

    # ------------------------------------------------------------------
    # Warm-state storage (online re-planning, repeated requests)
    # ------------------------------------------------------------------
    def store_warm_state(self, key, state) -> None:
        """Remember cross-solve warm state under ``key``."""
        self._warm_states[key] = state

    def warm_state(self, key):
        """Warm state previously stored under ``key`` (or ``None``)."""
        return self._warm_states.get(key)

    def clear_warm_state(self, key) -> None:
        self._warm_states.pop(key, None)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: WASOProblem,
        solver: "str | Solver" = "cbas-nd",
        rng: RngLike = None,
        mode: Optional[str] = None,
        **solver_kwargs,
    ) -> SolveResult:
        """Solve one problem through the runtime layer.

        ``solver`` is a registry name (built through the context) or a
        pre-configured :class:`~repro.algorithms.base.Solver` instance.
        ``mode`` overrides the context's routing for this call.
        """
        if isinstance(solver, str):
            name: Optional[str] = solver
            instance: Optional[Solver] = None
            # An explicit budget kwarg lets solve-level routing skip
            # building a throwaway instance just to read its default.
            budget = int(solver_kwargs.get("budget") or 0)
            if budget <= 0:
                instance = self.make_solver(name, **solver_kwargs)
                budget = getattr(instance, "budget", 0) or 0
        else:
            name = None
            instance = solver
            if solver_kwargs:
                raise ValueError(
                    "solver kwargs only apply when the solver is built by "
                    "name; configure the instance instead"
                )
            budget = getattr(instance, "budget", 0) or 0
        resolved = self.resolve_mode(problem, budget, mode=mode)
        if resolved == "solve":
            if name is not None and budget > 0:
                return self._solve_level(
                    problem, name, solver_kwargs, budget, rng
                )
            if mode == "solve" and name is None:
                raise ValueError(
                    "mode='solve' splits the budget across fresh solver "
                    "instances; pass the solver by registry name"
                )
            # Budget-less solvers / pre-built instances under a
            # solve-mode context default: nothing to split, run serial.
            resolved = "serial"
        if instance is None:
            instance = self.make_solver(name, **solver_kwargs)
        with self._forced_mode(resolved):
            foreign = (
                getattr(instance, "context", None) is not None
                and instance.context is not self
            )
            if not foreign:
                return instance.solve(problem, rng=rng)
            # A pre-built solver carries its own (usually private serial)
            # context; it must execute through *this* one for the call,
            # or the routed mode would be silently ignored.
            previous = instance.context
            instance.context = self
            try:
                return instance.solve(problem, rng=rng)
            finally:
                instance.context = previous

    def _solve_level(
        self,
        problem: WASOProblem,
        name: str,
        solver_kwargs: dict,
        budget: int,
        rng: RngLike,
    ) -> SolveResult:
        """Best-of split: ``budget`` divided over W independent solves.

        The slices run as one :meth:`solve_many` batch (so they share
        its wire format, residency and recovery); the first maximum in
        slice order wins.  Sample counts are summed, ``stages`` is the
        slices' maximum, and ``elapsed_seconds`` is the parent's wall
        time for the whole split.  A single slice runs inline.
        """
        from repro.parallel.pool import split_budget

        started = time.perf_counter()
        workers = max(1, min(self.effective_workers, budget))
        if workers > 1:
            # A caller-shared pool may be smaller than the context's
            # worker setting; never split past its processes.
            workers = min(workers, self.solve_pool().workers)
        generator = coerce_rng(rng)
        seeds = [generator.randrange(2**31) for _ in range(workers)]
        shares = split_budget(budget, workers)
        requests = [
            SolveRequest(
                problem, name, seed, {**solver_kwargs, "budget": share}
            )
            for seed, share in zip(seeds, shares)
        ]
        if workers == 1:
            return self._solve_request(requests[0])
        results = self.solve_many(requests, mode="solve")
        best = max(results, key=lambda result: result.willingness)
        engine = self._dispatch_engine(name, dict(solver_kwargs))
        batch_extra = results[0].stats.extra
        stats = SolveStats(
            samples_drawn=sum(r.stats.samples_drawn for r in results),
            failed_samples=sum(r.stats.failed_samples for r in results),
            stages=max(r.stats.stages for r in results),
            extra={
                "workers": workers,
                "worker_budgets": shares,
                "payload": (
                    "compiled-arrays"
                    if engine in RESIDENT_ENGINES
                    else "dict-graph"
                ),
                **{
                    key: batch_extra[key]
                    for key in _BATCH_KEYS
                    if key in batch_extra
                },
            },
        )
        stats.elapsed_seconds = time.perf_counter() - started
        return SolveResult(solution=best.solution, stats=stats)

    # ------------------------------------------------------------------
    def solve_many(
        self,
        requests,
        mode: Optional[str] = None,
    ) -> list[SolveResult]:
        """Solve a batch of heterogeneous requests; the serving front door.

        ``requests`` is a list of :class:`~repro.runtime.requests.
        SolveRequest` (or plain ``(problem, solver-name)``-style dicts
        are *not* accepted here — build them with
        :func:`~repro.runtime.requests.request_from_spec`).  Routing is
        per request, and every parallel route runs on the one resident
        pool, in this order: pool-worthy requests are shipped as chunks
        (``mode="solve"``, each inside one worker as a plain serial
        solve); requests the router judges too small to win their
        dispatch round trip run inline in the parent while the chunks
        are in flight; the chunks are collected; then large solves run
        stage-sharded on the now-idle pool.  Compiled-engine requests
        ship only their O(1) payload spec once a worker holds the
        graph's detached arrays, so a serving session pickles each
        graph at most once per (graph, worker) pair; every multiplexed
        result records the batch's shipping in ``stats.extra``
        (``graph_shipped`` / ``graph_installs`` /
        ``batch_payload_bytes``).

        Results come back in request order and are bit-identical to
        calling :meth:`solve` once per request (stats excepted only in
        ``elapsed_seconds`` and the pool-warmth accounting keys).  A
        failing request never discards the rest of the batch: the batch
        drains fully, completed results record the failed indices in
        ``stats.extra["failed_requests"]``, and a
        :class:`~repro.exceptions.BatchExecutionError` carrying the
        partial ``results`` and per-request ``failures`` is raised.

        The dispatch layer is self-healing (see :mod:`repro.parallel.
        residency`): a worker crash respawns the worker and retries its
        chunk bit-identically; exhausted retries degrade the affected
        requests to in-parent serial execution instead of failing them;
        a request whose :attr:`~repro.runtime.requests.SolveRequest.
        deadline_s` expires mid-dispatch is cancelled and fails with a
        ``kind="deadline"`` :class:`~repro.exceptions.RequestFailure`.
        Recovery events surface in the surviving results'
        ``stats.extra`` (``worker_restarts`` / ``chunk_retries`` /
        ``degraded_to_serial`` / ``deadline_missed``), written only
        when non-zero.
        """
        requests = [self._coerce_request(r) for r in requests]
        if not requests:
            return []
        import random as _random

        shared_rng = any(isinstance(r.rng, _random.Random) for r in requests)
        batch = len(requests)
        # Per-request deadlines, as absolute monotonic instants from the
        # moment the batch starts executing.
        batch_start = time.monotonic()
        deadlines = [
            batch_start + r.deadline_s if r.deadline_s is not None else None
            for r in requests
        ]
        routed = []
        for request in requests:
            route = self.resolve_mode(
                request.problem,
                request.budget,
                batch_size=batch,
                mode=mode,
                engine=request.solver_kwargs.get("engine"),
            )
            if route == "stage" and not self._stage_capable(
                request.solver, request.solver_kwargs
            ):
                # Large but unshardable (reference engine, no shard
                # hooks): multiplexing is the only parallelism it has.
                route = "solve"
            routed.append(route)
        failures: dict[int, str] = {}
        results: list[Optional[SolveResult]] = [None] * batch
        if shared_rng or all(route == "serial" for route in routed):
            # Stateful generators must consume their streams in request
            # order — and a fully serial batch has nothing to dispatch.
            self._run_in_parent(
                requests, range(batch), deadlines, results, failures, "serial"
            )
            return self._finish_batch(results, failures)

        # Distinct graphs are frozen and detached at most once (lazily —
        # an all-stage or all-reference batch never pays the detach);
        # detached clones share the frozen arrays, and the resident pool
        # pickles them only into workers that do not hold them yet.
        detached_graphs: dict[int, object] = {}
        graphs: dict = {}  # payload token -> detached CompiledGraph
        entries = []  # multiplexed requests, as chunk entry dicts
        stage_indices = []
        inline_indices = []
        for index, (request, route) in enumerate(zip(requests, routed)):
            if route == "stage":
                stage_indices.append(index)
                continue
            if route == "serial":
                # The router judged this request too small (or too
                # opaque — budget-less) to win its dispatch round trip:
                # honour that and solve it in-parent while the chunks
                # are in flight, instead of multiplexing it anyway.
                inline_indices.append(index)
                continue
            kwargs = dict(request.solver_kwargs)
            engine = self._dispatch_engine(request.solver, kwargs)
            problem = request.problem
            if engine in RESIDENT_ENGINES:
                detached = detached_graphs.get(id(problem.graph))
                if detached is None:
                    detached = problem.compiled().detach()
                    detached_graphs[id(problem.graph)] = detached
                payload = problem.payload_spec()
                graphs[payload["token"]] = detached
            else:
                # Reference / engine-less solvers have no resident
                # representation: the dict problem ships per request.
                payload = problem
            entries.append(
                {
                    "index": index,
                    "problem": payload,
                    "solver": request.solver,
                    "kwargs": kwargs,
                    "seed": request.rng,
                    "deadline": deadlines[index],
                }
            )

        if entries:
            pool = self.solve_pool()
            restarts, retries, missed = (
                pool.worker_restarts, pool.retries, pool.deadline_missed
            )
            installs = pool.installs
            pool.begin_batch()
            workers = max(
                1, min(self.effective_workers, pool.workers, len(entries))
            )
            # Round-robin chunking: one chunk per worker; each graph is
            # installed only where the worker's residency ledger says it
            # is missing, then referenced by token.
            for worker in range(workers):
                pool.ship(worker, entries[worker::workers], graphs)

        # Serial-routed requests run inline while the chunks are in
        # flight; a failure here must not abandon the in-flight chunks
        # (they are collected below regardless).
        predispatch_missed = self._run_in_parent(
            requests, inline_indices, deadlines, results, failures, "serial"
        )

        if entries:
            for chunk_outcomes in pool.collect():
                for outcome in chunk_outcomes:
                    if outcome[0] == "error":
                        failures[outcome[1]] = outcome[2]
                        continue
                    (_, index, members, willingness, drawn, failed,
                     stages, extra, elapsed) = outcome
                    results[index] = SolveResult(
                        solution=GroupSolution(
                            members=members, willingness=willingness
                        ),
                        stats=SolveStats(
                            samples_drawn=drawn,
                            failed_samples=failed,
                            stages=stages,
                            elapsed_seconds=elapsed,
                            extra=extra,
                        ),
                    )
            # Graceful degradation: a request whose dispatch died with
            # the retry budget exhausted is not lost — it re-runs
            # serially in-parent (bit-identically: the seed is in the
            # request), the pool is flagged unhealthy, and the router
            # sends everything serial until close() discards the pool.
            degraded = 0
            if not pool.healthy:
                self._degraded = True
                crashed = [
                    index
                    for index, failure in failures.items()
                    if getattr(failure, "kind", None) == "worker_crash"
                ]
                for index in crashed:
                    try:
                        results[index] = self._solve_request(requests[index])
                    except Exception:
                        failures[index] = traceback.format_exc()
                    else:
                        del failures[index]
                        degraded += 1
            # Per-batch shipping and recovery accounting on every
            # multiplexed result, through the shared residency module
            # (the stage path records the same keys from its executor).
            # Recovery keys appear only when something actually happened,
            # so fault-free stats are unchanged.
            installs = pool.installs - installs
            for entry in entries:
                result = results[entry["index"]]
                if result is not None:
                    record_shipping(
                        result.stats.extra,
                        shipped=installs > 0,
                        payload_bytes=pool.batch_payload_bytes,
                        installs=installs,
                        patch_bytes=pool.batch_patch_bytes,
                    )
                    record_recovery(
                        result.stats.extra,
                        restarts=pool.worker_restarts - restarts,
                        retries=pool.retries - retries,
                        degraded=degraded,
                        deadline_missed=pool.deadline_missed - missed
                        + predispatch_missed,
                    )

        # Large solves run stage-sharded last, on the now-idle pool, so a
        # mixed batch never needs more processes than the pool has.
        self._run_in_parent(
            requests, stage_indices, deadlines, results, failures, "stage"
        )
        return self._finish_batch(results, failures)

    def _run_in_parent(
        self, requests, indices, deadlines, results, failures, mode
    ) -> int:
        """Solve ``requests[indices]`` from the parent in ``mode``;
        returns how many had already missed their deadline."""
        missed = 0
        for index in indices:
            expired = self._expired_failure(requests[index], deadlines[index])
            if expired is not None:
                failures[index] = expired
                missed += 1
                continue
            try:
                results[index] = self._solve_request(requests[index], mode)
            except Exception:
                failures[index] = traceback.format_exc()
        return missed

    @staticmethod
    def _expired_failure(
        request: SolveRequest, deadline: "Optional[float]"
    ) -> "Optional[RequestFailure]":
        """A ``kind="deadline"`` failure when ``deadline`` already passed.

        The in-parent paths (serial batches, stage-routed and
        inline-routed requests) cannot cancel a solve mid-flight, so
        their deadline enforcement happens here, at the dispatch
        boundary — matching the pool, which likewise never abandons a
        reply that already arrived.
        """
        if deadline is None or time.monotonic() < deadline:
            return None
        return RequestFailure(
            f"request deadline of {request.deadline_s}s expired before "
            "dispatch",
            kind="deadline",
        )

    @staticmethod
    def _finish_batch(
        results: "list[Optional[SolveResult]]", failures: "dict[int, str]"
    ) -> list[SolveResult]:
        """Return a fully-solved batch, or raise after it has drained."""
        if failures:
            failed = sorted(failures)
            for result in results:
                if result is not None:
                    result.stats.extra["failed_requests"] = failed
            raise BatchExecutionError(failures, results)
        assert all(result is not None for result in results)
        return results

    @staticmethod
    def _coerce_request(request) -> SolveRequest:
        if isinstance(request, SolveRequest):
            return request
        raise TypeError(
            "solve_many takes SolveRequest objects; build them with "
            "repro.runtime.request_from_spec "
            f"(got {type(request).__name__})"
        )

    def _solve_request(
        self, request: SolveRequest, mode: Optional[str] = None
    ) -> SolveResult:
        return self.solve(
            request.problem,
            solver=request.solver,
            rng=request.rng,
            mode=mode or "serial",
            **request.solver_kwargs,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> "ExecutionContext":
        """Register a co-owner; pair every call with :meth:`release`."""
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one ownership reference; the last one closes the pool."""
        self._refs -= 1
        if self._refs <= 0:
            self.close()

    def close(self) -> None:
        """Tear down the owned pool (idempotent; the context stays
        usable — a later parallel solve lazily recreates it).
        Discarding the pool also clears the degraded flag: a fresh pool
        is trusted again."""
        pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.close()
        self._owns_pool = True
        self._degraded = False

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionContext(engine={self.engine!r}, mode={self.mode!r}, "
            f"workers={self.effective_workers}, "
            f"pool={'up' if self._pool is not None else 'down'})"
        )
