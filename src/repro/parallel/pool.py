"""The resident worker pool: one set of processes for every parallel mode.

CPython threads cannot exploit the paper's OpenMP parallelism (GIL), so
the repo parallelises with W long-lived worker *processes* — one
:class:`WorkerPool`, the process analogue of the paper's single OpenMP
team (Fig. 5(d)).  Three clients share it:

* ``ExecutionContext.solve_many``'s multiplexer ships whole-solve
  chunks (:meth:`WorkerPool.ship` / :meth:`WorkerPool.collect`), each
  request a full-strength serial solve inside one worker;
* :func:`parallel_solve` splits one budget ``T`` into ``W`` best-of
  slices on the same chunk path — portfolio throughput, but each worker
  refits its CE vectors from only ``T/W`` of the evidence;
* :class:`~repro.parallel.stage_pool.ShardedStageExecutor` shards the
  draws *inside* every CBAS / CBAS-ND stage (:meth:`WorkerPool.
  ensure_resident`, :meth:`WorkerPool.start_solve`, :meth:`WorkerPool.
  run_stage`), so every Eq. (4) refit sees the full merged elite set.

Every worker runs one loop (:func:`_worker_main`) holding one
:class:`~repro.parallel.residency.ResidentGraphStore` and the current
stage-sharded solve's state.  The parent mirrors each worker's store with
one :class:`~repro.parallel.residency.ResidencyLedger`, so a graph a
batch made resident is already resident for a stage-sharded solve: a
serving session pickles each frozen graph **at most once per (graph,
worker) pair**, and later chunks, stages and re-plans ship only the O(1)
:meth:`~repro.core.problem.WASOProblem.payload_spec` plus seeds and
budgets.  Only solvers configured with ``engine="reference"`` (or without
an engine knob) ship the dict problem per request — the dict path has no
resident representation.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import random
import time
import traceback
from typing import Optional

from repro.algorithms.base import RngLike, SolveResult, SolveStats, coerce_rng
from repro.algorithms.sampling import (
    ExpansionSampler,
    seed_for_start,
    summarize_shard,
)
from repro.ce.probability import SelectionProbabilities
from repro.core.problem import WASOProblem, problem_from_payload_spec
from repro.core.solution import GroupSolution
from repro.core.willingness import FastWillingnessEvaluator
from repro.exceptions import (
    DeadlineExpiredError,
    RequestFailure,
    WorkerCrashError,
)
from repro.graph.compiled import CompiledGraph
from repro.parallel.residency import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RESIDENT_GRAPHS,
    ResidencyLedger,
    ResidentGraphStore,
    apply_graph_patch,
    plan_graph_message,
    record_recovery,
    record_shipping,
)

__all__ = [
    "WorkerPool",
    "parallel_solve",
    "split_budget",
    "worker_payload_bytes",
]


def split_budget(total_budget: int, workers: int) -> list[int]:
    """Per-worker budget shares summing exactly to ``total_budget``.

    The remainder of ``total_budget // workers`` lands one sample at a
    time on the first workers instead of being silently dropped.
    """
    share, remainder = divmod(total_budget, workers)
    shares = [share + 1 if index < remainder else share for index in range(workers)]
    assert sum(shares) == total_budget, (shares, total_budget)
    return shares


def worker_payload_bytes(problem: WASOProblem) -> dict:
    """Pickled payload sizes: slim compiled arrays vs the dict graph.

    ``compiled_arrays_bytes`` measures the detached flat-array payload —
    what the pool installs into a worker exactly once per session;
    ``dict_graph_bytes`` measures the problem over the plain dict-backed
    graph (compiled cache excluded), i.e. the historical payload.  An
    already array-backed (detached) problem *is* the slim payload, so it
    reports its own pickled size with ``dict_graph_bytes=None`` — there
    is no dict graph left to measure.  Benchmarks gate on the slim
    number only.
    """
    graph = problem.graph
    if not hasattr(graph, "_compiled_cache"):
        # Already detached: the problem is the compiled-arrays payload.
        slim = len(pickle.dumps(problem))
        return {"compiled_arrays_bytes": slim, "dict_graph_bytes": None}
    slim = len(pickle.dumps(problem.detached()))
    cache = graph._compiled_cache
    graph._compiled_cache = None
    try:
        full = len(pickle.dumps(problem))
    finally:
        graph._compiled_cache = cache
    return {"compiled_arrays_bytes": slim, "dict_graph_bytes": full}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _apply_patch(vector: SelectionProbabilities, patch: tuple) -> None:
    """Replay one parent-side vector change on a worker mirror."""
    kind = patch[0]
    if kind == "round":
        vector.apply_round(patch[1], patch[2])
    elif kind == "full":
        vector.restore(patch[1])
    else:  # pragma: no cover - protocol guard
        raise ValueError(f"unknown vector patch kind {kind!r}")


class _WorkerSolveState:
    """One stage-sharded solve's worker-resident execution state.

    Rebuilt per solve from the resident compiled arrays plus the small
    solve spec: the problem, the shared sampler (whose per-seed cache
    amortizes across all stages of the solve), and — for CBAS-ND — one
    mirror probability vector per start node, kept in sync with the
    parent by replaying refit patches.
    """

    def __init__(self, compiled, spec: dict) -> None:
        self.solve_id = spec["solve_id"]
        problem = problem_from_payload_spec(compiled, spec["problem"])
        self.engine = spec.get("engine", "compiled")
        if self.engine == "vector":
            from repro.vector import VectorWillingnessEvaluator

            evaluator = VectorWillingnessEvaluator(compiled)
        else:
            evaluator = FastWillingnessEvaluator(compiled)
        self.sampler = ExpansionSampler(problem, evaluator)
        if self.engine == "vector":
            # Shared solve-level Philox base key: every shard's uniforms
            # are a pure function of (key, start, planned draw ordinal),
            # not of which worker draws them.
            self.sampler.vector_key = spec["vector_key"]
        self.seeds = [seed_for_start(problem, start) for start in spec["starts"]]
        self.mode = spec["mode"]
        self.max_failures = spec["max_failures"]
        self.vectors: "list[SelectionProbabilities] | None" = None
        if self.mode == "ce":
            # Bit-identical to the parent's cold vectors: same candidate
            # order (compiled node order minus forbidden), same k, same
            # rebuilt index_of.  Warm vectors ship their arrays.
            template = SelectionProbabilities(
                problem.candidates(),
                problem.k,
                index_of=compiled.index_of,
                size=compiled.number_of_nodes,
                backend="numpy" if self.engine == "vector" else "list",
            )
            vectors = []
            for initial in spec["vectors"]:
                vector = template.replicate()
                if initial is not None:
                    vector.restore(initial)
                vectors.append(vector)
            self.vectors = vectors

    def run_entry(self, entry: dict):
        """Draw one shard and reduce it to a :class:`ShardSummary`."""
        index = entry["start"]
        weight_array = None
        if self.vectors is not None:
            vector = self.vectors[index]
            for patch in entry["sync"]:
                _apply_patch(vector, patch)
            weight_array = vector.array
        carry = entry["failures"]
        if self.engine == "vector":
            # Positional randomness: no per-shard RNG seed at all — the
            # entry's planned first-draw ordinal addresses the Philox
            # stream directly.
            batch = self.sampler.draw_batch_vector(
                [
                    {
                        "start_key": index,
                        "seed": self.seeds[index],
                        "first_draw": entry["first_draw"],
                        "count": entry["count"],
                        "failures": carry,
                    }
                ],
                mode=self.mode,
                weight_rows=(
                    [weight_array] if self.mode == "ce" else None
                ),
                max_failures=self.max_failures,
            )[0]
        else:
            rng = random.Random(entry["seed"])
            batch = self.sampler.draw_batch(
                self.seeds[index],
                rng,
                entry["count"],
                weight_array=weight_array,
                failures=carry,
                max_failures=self.max_failures,
            )
        return summarize_shard(
            batch,
            entry["keep_rank"],
            max_failures=self.max_failures,
            carry_failures=carry,
        )


def _run_solve_entry(store: ResidentGraphStore, entry: dict):
    """Execute one whole-solve entry; failures are captured per entry.

    Returns ``("ok", index, members, willingness, samples_drawn,
    failed_samples, stages, extra, elapsed_seconds)`` — the last being
    the solve's own wall time — or ``("error", index, traceback)``, so
    one failing request never discards its chunk-mates' results (the
    parent re-raises after the batch drains).
    """
    index = entry["index"]
    try:
        problem = entry["problem"]
        if isinstance(problem, dict):
            compiled = store.get(problem["token"])
            problem = problem_from_payload_spec(compiled, problem)
        solver = entry.get("solver_obj")
        if solver is None:
            from repro.algorithms.registry import make_solver

            solver = make_solver(entry["solver"], **entry["kwargs"])
        result = solver.solve(problem, rng=entry["seed"])
        stats = result.stats
        return (
            "ok",
            index,
            result.solution.members,
            result.solution.willingness,
            stats.samples_drawn,
            stats.failed_samples,
            stats.stages,
            stats.extra,
            stats.elapsed_seconds,
        )
    except BaseException:
        return ("error", index, traceback.format_exc())


def _worker_main(conn) -> None:
    """The worker loop: resident graphs, whole-solve chunks, stage RPCs."""
    store = ResidentGraphStore()
    solve: "Optional[_WorkerSolveState]" = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "close":
            break
        try:
            if kind == "graph":
                _, token, compiled, evict = message
                store.install(token, compiled, evict)
                reply = ("ok", token)
            elif kind == "graph_path":
                # Zero-copy install: the parent sent a frozen index's
                # manifest path (O(1) bytes); map the shared arrays
                # here.  verify=False — the parent checked the manifest
                # when it loaded the graph, and the path round-trips a
                # content-derived token, so a mismatch is impossible
                # short of on-disk corruption mid-session.
                _, token, path, evict = message
                compiled = CompiledGraph.load(path, mmap=True, verify=False)
                if compiled.payload_token != token:
                    raise RuntimeError(
                        f"frozen index at {path!r} resolves to token "
                        f"{compiled.payload_token!r}, expected {token!r}"
                    )
                store.install(token, compiled, evict)
                reply = ("ok", token)
            elif kind == "graph_patch":
                # Sparse upgrade of a resident graph: replay the
                # parent's delta batches against the arrays already
                # here — O(|delta|) bytes instead of a full re-install.
                _, token, generation, batches = message
                apply_graph_patch(store, token, generation, batches)
                reply = ("ok", token)
            elif kind == "chunk":
                _, entries = message
                reply = (
                    "ok",
                    [_run_solve_entry(store, entry) for entry in entries],
                )
            elif kind == "solve":
                _, spec = message
                token = spec["problem"]["token"]
                solve = _WorkerSolveState(store.get(token), spec)
                reply = ("ok", solve.solve_id)
            elif kind == "stage":
                _, solve_id, entries = message
                if solve is None or solve.solve_id != solve_id:
                    raise RuntimeError(
                        f"stage request for unknown solve {solve_id!r}"
                    )
                reply = ("ok", [solve.run_entry(entry) for entry in entries])
            else:
                raise RuntimeError(f"unknown pool message {kind!r}")
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _chunk_graphs(entries: "list[dict]", graphs: dict) -> dict:
    """The resident graphs (token → detached arrays) ``entries`` use."""
    return {
        entry["problem"]["token"]: graphs[entry["problem"]["token"]]
        for entry in entries
        if isinstance(entry["problem"], dict)
    }


class WorkerPool:
    """W persistent worker processes with resident graph payloads.

    Create it once per serving session, run any number of chunk batches
    and stage-sharded solves on it (one dispatch at a time), and
    :meth:`close` it when done (also usable as a context manager).  Each
    worker caches detached compiled-graph arrays keyed by payload token,
    bounded to ``resident_graphs`` entries with parent-driven LRU
    eviction (:mod:`repro.parallel.residency`); one
    :class:`~repro.parallel.residency.ResidencyLedger` per worker mirrors
    that cache, so every install decision is local to the parent.

    Every message goes through :meth:`_send`, which queues an in-flight
    record on the worker (an ``install``, a ``solve`` spec, a ``chunk``
    or a ``stage`` shard); replies arrive in send order per pipe, so the
    head record is what the next reply answers.  Waits are supervised:
    a dead worker surfaces as a crash instead of a hung ``recv``, and a
    chunk entry's ``"deadline"`` (an absolute ``time.monotonic()``
    instant) bounds the wait for its reply.  Either way :meth:`_recover`
    — the pool's one recovery path — respawns the worker and re-sends
    what it owed, bit-identically (every dispatch carries its seeds).
    Expired entries fail as ``kind="deadline"``; work that exhausts
    ``max_retries`` fails as ``kind="worker_crash"`` (chunk entries) or
    runs through the executor's ``fallback`` (stage shards), and the
    pool goes ``healthy = False`` so callers can degrade to serial
    execution.  Only *protocol* errors (a live worker replying with a
    message-level error, i.e. a bug rather than a crash) are terminal:
    the pool closes itself and raises.

    ``fault_plan`` (default ``None``) is the test-only hook for
    :class:`~repro.parallel.faults.FaultPlan`: kills before a named send,
    reply drops and delays, keyed by ``(worker, rpc)`` where ``rpc``
    counts the sends to that worker slot (monotone across respawns).
    """

    def __init__(
        self,
        workers: int,
        resident_graphs: int = DEFAULT_RESIDENT_GRAPHS,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self._ledgers = [
            ResidencyLedger(resident_graphs) for _ in range(workers)
        ]
        self._mp = multiprocessing.get_context()
        self._procs = []
        self._conns = []
        for _ in range(workers):
            proc, conn = self._spawn_worker()
            self._procs.append(proc)
            self._conns.append(conn)
        #: Sends per worker slot (the fault plans' ``rpc`` coordinate).
        self._sends = [0] * workers
        #: In-flight records per worker, in send order.
        self._inflight: "list[list[dict]]" = [[] for _ in range(workers)]
        #: Replies of chunk and stage records, by record id.
        self._results: dict = {}
        self._chunk_order: "list[int]" = []
        self._ids = itertools.count()
        #: The current stage-sharded solve: its graph (token → detached
        #: arrays) and spec, kept so recovery can rebuild a worker.
        self._stage_graphs: dict = {}
        self._spec: "Optional[dict]" = None
        #: Pickled bytes (and sparse ``graph_patch`` bytes among them)
        #: sent since the last :meth:`begin_batch`.
        self.batch_payload_bytes = 0
        self.batch_patch_bytes = 0
        #: Wire bytes of the most recent :meth:`ensure_resident` (and
        #: the sparse patches among them).
        self.last_install_bytes = 0
        self.last_patch_bytes = 0
        #: Lifetime recovery accounting (clients snapshot deltas).
        self.worker_restarts = 0
        self.retries = 0
        self.fallback_shards = 0
        self.deadline_missed = 0
        #: Sticky health flag: cleared when work exhausts its retries.
        self.healthy = True
        self.fault_plan = None
        self._closed = False

    def _spawn_worker(self):
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def installs(self) -> int:
        """(graph, worker) installs over the session: the ledger sum."""
        return sum(ledger.installs for ledger in self._ledgers)

    def resident_tokens(self, worker: int) -> tuple:
        """Tokens resident in ``worker`` (least recently used first)."""
        return self._ledgers[worker].resident_tokens()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")

    # ------------------------------------------------------------------
    # Whole-solve chunks
    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """Reset the per-batch byte accounting."""
        if self._chunk_order or any(self._inflight):
            raise RuntimeError(
                "cannot begin a batch while replies are outstanding; "
                "collect() the previous dispatch first"
            )
        self.batch_payload_bytes = 0
        self.batch_patch_bytes = 0

    def ship(self, worker: int, entries: "list[dict]", graphs: dict) -> None:
        """Send one chunk of whole-solve entries to ``worker``.

        ``entries`` is a list of entry dicts (``index`` / ``problem`` /
        ``solver``+``kwargs`` or ``solver_obj`` / ``seed``, plus an
        optional ``deadline``); an entry whose ``problem`` is a
        payload-spec dict references ``graphs[token]`` — the detached
        compiled arrays — which are installed first *only* where the
        worker's ledger says they are missing or stale.  Replies are
        deferred: call :meth:`collect` after every chunk is shipped.
        """
        self._check_open()
        entries = list(entries)
        needed = _chunk_graphs(entries, graphs)
        self._plan_installs([worker], needed)
        record = {
            "kind": "chunk",
            "id": next(self._ids),
            "entries": entries,
            "graphs": needed,
            "retries": 0,
        }
        self._send(worker, ("chunk", entries), record)
        self._chunk_order.append(record["id"])

    def collect(self) -> "list[list]":
        """Drain every outstanding reply; one outcome list per chunk, in
        shipping order.

        Per-request solve failures come back inside the outcomes as
        ``("error", index, failure)``, where ``failure`` is the
        worker-side traceback string or — for an expired deadline or a
        crash that exhausted its retries — a structured
        :class:`~repro.exceptions.RequestFailure`.
        """
        for worker in range(self.workers):
            self._drain(worker)
        order, self._chunk_order = self._chunk_order, []
        return [self._results.pop(chunk_id, []) for chunk_id in order]

    # ------------------------------------------------------------------
    # Stage-sharded solves
    # ------------------------------------------------------------------
    def ensure_resident(self, problem) -> bool:
        """Make ``problem``'s frozen graph resident in every worker.

        Returns ``True`` when full graph arrays were shipped, ``False``
        when every worker already held this freeze — including when
        stale copies were brought current with sparse ``graph_patch``
        messages (``last_patch_bytes``; a patch is not an install).
        Identical installs pickle once for all workers.
        """
        self._check_open()
        compiled = problem.compiled()
        self._stage_graphs = {compiled.payload_token: compiled.detach()}
        # A solve boundary: a crash recovered during this install must
        # not replay the previous solve's spec, which can name an older
        # graph generation — start_solve ships the new one.
        self._spec = None
        installs = self.installs
        self.last_install_bytes, self.last_patch_bytes = self._plan_installs(
            range(self.workers), self._stage_graphs, stage=True
        )
        shipped = self.installs > installs
        for worker in range(self.workers):
            self._drain(worker)
        return shipped

    def start_solve(self, spec: dict) -> None:
        """Set up per-solve worker state (problem spec, CE mirrors)."""
        self._spec = spec
        data = pickle.dumps(("solve", spec))
        for worker in range(self.workers):
            self._send(worker, data, {"kind": "solve", "retries": 0})
        for worker in range(self.workers):
            self._drain(worker)

    def run_stage(
        self, worker_entries: "list[list[dict]]", rebuild=None, fallback=None
    ):
        """Execute one stage: ``worker_entries[w]`` goes to worker ``w``.

        Returns, per worker, the :class:`~repro.algorithms.sampling.
        ShardSummary` list aligned with that worker's entries.
        ``rebuild(worker, entries)`` refreshes a shard before it is
        re-sent to a respawned worker (its CE mirrors restart from the
        solve spec); ``fallback(worker, entries)`` computes a shard in
        the parent once its retries are exhausted — without it an
        exhausted shard is terminal.
        """
        if len(worker_entries) != self.workers:
            raise ValueError(
                f"expected entries for {self.workers} workers, "
                f"got {len(worker_entries)}"
            )
        ids = []
        for worker, entries in enumerate(worker_entries):
            record = {
                "kind": "stage",
                "id": next(self._ids),
                "entries": entries,
                "retries": 0,
                "rebuild": rebuild,
                "fallback": fallback,
            }
            self._send(
                worker, ("stage", self._spec["solve_id"], entries), record
            )
            ids.append(record["id"])
        for worker in range(self.workers):
            self._drain(worker)
        return [self._results.pop(record_id) for record_id in ids]

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send(self, worker: int, message, record: dict) -> int:
        """Send ``message`` (pickled unless already bytes) to ``worker``
        and queue the ``record`` its reply answers; returns the size.

        Never raises: a send into a dead worker's pipe leaves the same
        observable state as a lost one — no reply will come — so the
        crash surfaces at the next :meth:`_recv` liveness check.
        """
        data = message if isinstance(message, bytes) else pickle.dumps(message)
        self._sends[worker] += 1
        record["seq"] = self._sends[worker]
        plan = self.fault_plan
        if plan is not None and plan.kill_before_send(worker, record["seq"]):
            self._procs[worker].kill()
            self._procs[worker].join(timeout=5.0)
        self._inflight[worker].append(record)
        self.batch_payload_bytes += len(data)
        try:
            self._conns[worker].send_bytes(data)
        except (BrokenPipeError, OSError):
            pass
        return len(data)

    def _plan_installs(
        self, workers, graphs: dict, retries: int = 0, stage: bool = False
    ) -> "tuple[int, int]":
        """Send each of ``workers`` whichever of ``graphs`` (token →
        detached arrays) its ledger says it lacks or holds stale.

        The one install planner: chunk shipping, :meth:`ensure_resident`
        and recovery (where the reset ledger answers "ship" for
        everything) all go through it.  Every token in ``graphs`` is
        pinned against eviction — the installs travel ahead of the work
        that uses them.  Returns ``(bytes sent, patch bytes among them)``.
        """
        pickled: dict = {}
        sent = patched = 0
        for worker in workers:
            ledger = self._ledgers[worker]
            for token, graph in graphs.items():
                ship, evictions = ledger.plan(token, pinned=graphs)
                # Full install vs sparse generation patch vs nothing;
                # path-installable graphs ship the manifest path (O(1)
                # bytes at any size) and the worker maps the arrays.
                message, kind = plan_graph_message(
                    ledger, token, graph, ship, evictions, lambda: graph
                )
                if message is None:
                    continue
                if kind == "install":
                    # Identical installs (the eviction list is the only
                    # per-worker part) share one pickle.
                    key = (token, message[3])
                    if key not in pickled:
                        pickled[key] = pickle.dumps(message)
                    data = pickled[key]
                else:
                    data = pickle.dumps(message)
                size = self._send(
                    worker,
                    data,
                    {"kind": "install", "stage": stage, "retries": retries},
                )
                sent += size
                if kind == "patch":
                    patched += size
        self.batch_patch_bytes += patched
        return sent, patched

    def _recv(self, worker: int, deadline: "Optional[float]" = None):
        """Wait for ``worker``'s next reply with liveness and deadline.

        Raises :class:`~repro.exceptions.WorkerCrashError` when the
        process is dead with no buffered reply, and
        :class:`~repro.exceptions.DeadlineExpiredError` when
        ``deadline`` passes first.  A reply that is already available is
        delivered even past the deadline — only a *missing* reply
        expires.
        """
        conn = self._conns[worker]
        disposition = None
        if self.fault_plan is not None:
            disposition = self.fault_plan.reply_disposition(
                worker, self._inflight[worker][0]["seq"]
            )
        held = None
        hold_until = 0.0
        while True:
            ready = held is None and conn.poll(0)
            if not ready:
                now = time.monotonic()
                if held is not None and now >= hold_until:
                    return held
                if deadline is not None and now >= deadline:
                    raise DeadlineExpiredError(worker)
                if held is None:
                    if not self._procs[worker].is_alive() and not conn.poll(0):
                        raise WorkerCrashError(worker)
                    if not conn.poll(0.02):
                        continue
                else:
                    time.sleep(min(0.02, hold_until - now))
                    continue
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(worker) from None
            if disposition == "drop":
                # Injected reply loss: the wait continues (and starves
                # into its deadline, if any).
                disposition = None
                continue
            if disposition is not None:
                # Injected delay: hold the reply, then deliver — unless
                # the deadline fires first.
                held = reply
                hold_until = time.monotonic() + float(disposition)
                disposition = None
                continue
            return reply

    def _drain(self, worker: int) -> None:
        """Await every reply ``worker`` owes, recovering crashes."""
        inflight = self._inflight[worker]
        while inflight:
            deadline = min(
                (
                    entry["deadline"]
                    for record in inflight
                    if record["kind"] == "chunk"
                    for entry in record["entries"]
                    if entry.get("deadline") is not None
                ),
                default=None,
            )
            try:
                status, payload = self._recv(worker, deadline)
            except WorkerCrashError:
                self._recover(worker, expired=False)
                continue
            except DeadlineExpiredError:
                self._recover(worker, expired=True)
                continue
            record = inflight.pop(0)
            if status == "error":
                self._fail(
                    f"pool worker {worker} replied with a protocol error; "
                    f"the pool has been closed:\n{payload}"
                )
            if record["kind"] == "chunk":
                self._results.setdefault(record["id"], []).extend(payload)
            elif record["kind"] == "stage":
                self._results[record["id"]] = payload

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, worker: int, expired: bool) -> None:
        """Respawn ``worker`` and re-send (or settle) what it owed.

        The pool's one recovery path, in order:

        1. respawn the worker and reset its ledger (it holds nothing);
        2. re-install the graphs its pending records reference;
        3. re-send the current solve spec if stage work was pending;
        4. re-send each pending chunk and stage shard — shards through
           the executor's ``rebuild`` hook.

        ``expired`` marks a deadline cancellation (the worker may be
        alive but late — respawning kills it): chunk entries whose
        deadline passed fail as ``kind="deadline"``.  Work that already
        used ``max_retries`` retries is settled instead of re-sent
        (:meth:`_settle`), and a worker that keeps dying with only
        setup messages pending closes the pool.
        """
        records = list(self._inflight[worker])
        self._inflight[worker].clear()
        old = self._procs[worker]
        if old.is_alive():
            old.kill()
        old.join(timeout=5.0)
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - already broken
            pass
        self._procs[worker], self._conns[worker] = self._spawn_worker()
        self._ledgers[worker].reset()
        self.worker_restarts += 1

        now = time.monotonic()
        setup_retries = -1
        stage = work = False
        resend = []
        for record in records:
            kind = record["kind"]
            if kind in ("solve", "stage") or record.get("stage", False):
                stage = True
            if kind in ("install", "solve"):
                setup_retries = max(setup_retries, record["retries"])
                continue
            work = True
            if kind == "chunk" and expired:
                live = []
                for entry in record["entries"]:
                    deadline = entry.get("deadline")
                    if deadline is not None and now >= deadline:
                        self.deadline_missed += 1
                        self._fail_entry(
                            record, entry, "deadline",
                            f"request deadline expired mid-dispatch "
                            f"(worker {worker}); the dispatch was cancelled",
                        )
                    else:
                        live.append(entry)
                record["entries"] = live
                if not live:
                    continue
            if record["retries"] >= self.max_retries:
                self._settle(worker, record)
                continue
            record["retries"] += 1
            self.retries += 1
            resend.append(record)
        if not work and setup_retries >= self.max_retries:
            self._fail(
                f"pool worker {worker} keeps dying during setup; the pool "
                "has been closed"
            )

        graphs = dict(self._stage_graphs) if stage else {}
        for record in resend:
            if record["kind"] == "chunk":
                graphs.update(
                    _chunk_graphs(record["entries"], record["graphs"])
                )
        attempt = max([setup_retries + 1] + [r["retries"] for r in resend])
        if attempt:
            # Bounded backoff: enough to let a transient cause (memory
            # pressure, a dying sibling) clear, never enough to wedge.
            time.sleep(min(0.01 * (2 ** (attempt - 1)), 0.1))
        self._plan_installs(
            [worker], graphs, retries=setup_retries + 1, stage=stage
        )
        if stage and self._spec is not None:
            self._send(
                worker,
                ("solve", self._spec),
                {"kind": "solve", "retries": setup_retries + 1},
            )
        for record in resend:
            if record["kind"] == "chunk":
                self._send(worker, ("chunk", record["entries"]), record)
                continue
            if record["rebuild"] is not None:
                record["entries"] = record["rebuild"](
                    worker, record["entries"]
                )
            message = ("stage", self._spec["solve_id"], record["entries"])
            self._send(worker, message, record)

    def _settle(self, worker: int, record: dict) -> None:
        """Resolve retry-exhausted work without the worker."""
        self.healthy = False
        if record["kind"] == "chunk":
            for entry in record["entries"]:
                self._fail_entry(
                    record, entry, "worker_crash",
                    f"pool worker died mid-dispatch and the retry budget "
                    f"is exhausted ({record['retries']} of "
                    f"{self.max_retries} retries used)",
                )
            return
        if record["fallback"] is None:
            self._fail(
                f"pool worker {worker} keeps dying mid-stage and no "
                "fallback was provided; the pool has been closed"
            )
        self.fallback_shards += 1
        self._results[record["id"]] = record["fallback"](
            worker, record["entries"]
        )

    def _fail_entry(self, record: dict, entry: dict, kind: str, reason: str):
        failure = RequestFailure(
            reason, kind=kind, retries=record["retries"], index=entry["index"]
        )
        self._results.setdefault(record["id"], []).append(
            ("error", entry["index"], failure)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _fail(self, reason: str) -> None:
        """Tear the pool down after a protocol-level failure and raise."""
        self.close()
        raise RuntimeError(reason)

    def close(self) -> None:
        """Shut the workers down (idempotent, hang-free).

        Dead or wedged workers must never block shutdown: the graceful
        ``("close",)`` send is best-effort, the join budget is shared
        across all workers rather than paid per process, and stragglers
        are escalated terminate → kill.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.join(timeout=max(0.05, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"WorkerPool(workers={self.workers}, {state})"


#: The solve-level name of :class:`WorkerPool`, kept because the
#: benchmark's traced run (``perfbench/layers.py``) imports it.
ResidentSolvePool = WorkerPool


# ----------------------------------------------------------------------
# Best-of budget split
# ----------------------------------------------------------------------
def parallel_solve(
    problem: WASOProblem,
    solver_factory,
    total_budget: int,
    workers: int,
    rng: RngLike = None,
    pool: "Optional[WorkerPool]" = None,
) -> SolveResult:
    """Split ``total_budget`` across ``workers`` processes and merge.

    ``solver_factory(budget)`` must build a solver configured with the
    given per-worker budget.  ``workers == 1`` runs inline (no process
    overhead), so speedup measurements have an honest baseline.

    ``pool`` reuses a caller-owned :class:`WorkerPool` (it must offer at
    least ``workers`` processes and is *not* shut down here), so a
    serving session ships each graph once per worker instead of once per
    call; by default a fresh pool is created and torn down per call.
    The result's ``elapsed_seconds`` is the parent's wall time for the
    whole split.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if total_budget < workers:
        raise ValueError(
            f"budget {total_budget} cannot be split over {workers} workers"
        )
    generator = coerce_rng(rng)
    seeds = [generator.randrange(2**31) for _ in range(workers)]

    if workers == 1:
        return solver_factory(total_budget).solve(problem, rng=seeds[0])

    started = time.perf_counter()
    shares = split_budget(total_budget, workers)
    solvers = [solver_factory(share) for share in shares]
    # Freeze the compiled index once before building payloads.
    problem.compiled()
    compiled_only = all(
        getattr(s, "engine", None) == "compiled" for s in solvers
    )
    if compiled_only:
        # Compiled-only workers never touch the dict graph: install the
        # detached flat arrays once per (graph, worker) and ship only
        # the O(1) problem spec afterwards.
        payload = problem.payload_spec()
        graphs = {payload["token"]: problem.compiled().detach()}
    else:
        # Reference-engine workers need the dict graph; the frozen index
        # cache rides along so they still skip the re-freeze.
        payload = problem
        graphs = {}

    owned = pool is None
    if owned:
        pool = WorkerPool(workers)
    elif pool.workers < workers:
        raise ValueError(
            f"pool offers {pool.workers} workers, {workers} requested"
        )
    try:
        installs, restarts, retries = (
            pool.installs, pool.worker_restarts, pool.retries
        )
        pool.begin_batch()
        for index, (solver, seed) in enumerate(zip(solvers, seeds)):
            entry = {
                "index": index,
                "problem": payload,
                "solver_obj": solver,
                "seed": seed,
            }
            pool.ship(index, [entry], graphs)
        replies = pool.collect()
        installs = pool.installs - installs
        restarts = pool.worker_restarts - restarts
        retries = pool.retries - retries
        shipped_bytes = pool.batch_payload_bytes
        patch_bytes = pool.batch_patch_bytes
    finally:
        if owned:
            pool.close()

    outcomes = [outcome for chunk in replies for outcome in chunk]
    failures = [outcome[2] for outcome in outcomes if outcome[0] == "error"]
    if failures:
        raise RuntimeError(
            "parallel_solve worker failed:\n" + "\n".join(failures)
        )
    best_members, best_value = None, -float("inf")
    stats = SolveStats()
    for _, _, members, value, drawn, failed, *_ in sorted(
        outcomes, key=lambda outcome: outcome[1]
    ):
        stats.samples_drawn += drawn
        stats.failed_samples += failed
        if value > best_value:
            best_members, best_value = members, value
    stats.extra["workers"] = workers
    stats.extra["worker_budgets"] = shares
    stats.extra["payload"] = (
        "compiled-arrays" if compiled_only else "dict-graph"
    )
    record_shipping(
        stats.extra,
        shipped=installs > 0,
        payload_bytes=shipped_bytes,
        installs=installs,
        patch_bytes=patch_bytes,
    )
    record_recovery(stats.extra, restarts=restarts, retries=retries)
    stats.elapsed_seconds = time.perf_counter() - started
    solution = GroupSolution(members=best_members, willingness=best_value)
    return SolveResult(solution=solution, stats=stats)
