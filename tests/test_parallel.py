"""Tests for solve-level execution on the worker pool and its residency."""

import pickle
import random

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.registry import make_solver
from repro.core.problem import WASOProblem
from repro.parallel import WorkerPool, split_budget, worker_payload_bytes
from repro.runtime import ExecutionContext

pytestmark = pytest.mark.usefixtures("no_orphans")

#: Solver configuration of the best-of splits below.
_SPLIT = dict(m=5, stages=3)


def _split(context, problem, rng, budget=60, **kwargs):
    """One forced ``mode="solve"`` best-of split through ``context``."""
    return context.solve(
        problem, "cbas-nd", rng=rng, mode="solve", budget=budget,
        **{**_SPLIT, **kwargs},
    )


class TestBudgetSplit:
    def test_even_split(self):
        assert split_budget(60, 3) == [20, 20, 20]

    def test_remainder_spread_over_first_workers(self):
        assert split_budget(61, 2) == [31, 30]
        assert split_budget(65, 4) == [17, 16, 16, 16]

    @pytest.mark.parametrize(
        "total,workers", [(7, 3), (100, 7), (13, 13), (999, 8)]
    )
    def test_shares_always_sum_to_total(self, total, workers):
        shares = split_budget(total, workers)
        assert sum(shares) == total
        assert max(shares) - min(shares) <= 1


class TestParallelSolve:
    def test_single_worker_inline(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=1) as context:
            result = _split(context, problem, 4)
            # One slice runs in the parent: no pool is ever started.
            assert context._pool is None
        assert result.solution.is_feasible(problem)

    def test_two_workers(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            result = _split(context, problem, 4)
        assert result.solution.is_feasible(problem)
        assert result.stats.extra["workers"] == 2
        assert result.stats.samples_drawn > 0

    def test_remainder_budget_not_dropped(self, small_facebook):
        """total_budget % workers lands on the first workers."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            result = _split(context, problem, 4, budget=61)
        assert result.stats.extra["worker_budgets"] == [31, 30]
        assert sum(result.stats.extra["worker_budgets"]) == 61

    def test_compiled_workers_get_slim_payload(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            result = _split(context, problem, 4)
        assert result.stats.extra["payload"] == "compiled-arrays"
        assert result.solution.is_feasible(problem)

    def test_reference_workers_fall_back_to_dict_payload(
        self, small_facebook
    ):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            result = _split(context, problem, 4, engine="reference")
        assert result.stats.extra["payload"] == "dict-graph"
        assert result.solution.is_feasible(problem)

    def test_slim_payload_smaller_than_dict_graph(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        problem.compiled()
        sizes = worker_payload_bytes(problem)
        assert sizes["compiled_arrays_bytes"] < sizes["dict_graph_bytes"]
        # And strictly below what the pool used to ship (dict graph with
        # the frozen-index cache riding along).
        with_cache = len(pickle.dumps(problem))
        assert sizes["compiled_arrays_bytes"] < with_cache

    def test_payload_bytes_on_detached_problem(self, small_facebook):
        """Regression: an already array-backed problem — exactly what the
        resident pools ship — must report its slim size instead of
        raising (``dict_graph_bytes`` has nothing left to measure)."""
        problem = WASOProblem(graph=small_facebook, k=5)
        both = worker_payload_bytes(problem)
        detached_only = worker_payload_bytes(problem.detached())
        assert detached_only["dict_graph_bytes"] is None
        assert detached_only["compiled_arrays_bytes"] > 0
        # The detached problem *is* the slim payload: same bytes.
        assert (
            detached_only["compiled_arrays_bytes"]
            == both["compiled_arrays_bytes"]
        )

    def test_reuses_caller_owned_pool(self, small_facebook):
        """A shared pool serves several runs and is not shut down."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with WorkerPool(2) as shared:
            with ExecutionContext(pool=shared) as context:
                first = _split(context, problem, 4)
                second = _split(context, problem, 5)
            assert first.solution.is_feasible(problem)
            assert second.solution.is_feasible(problem)
            # The pool survives the context: it still accepts work.
            shared.begin_batch()
            shared.ship(0, [], {})
            assert shared.collect() == [[]]


class TestResidentSolvePool:
    def test_graph_ships_once_per_worker_across_calls(self, small_facebook):
        """The tentpole property: repeated best-of solves on one graph
        install the detached arrays exactly once per worker."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with WorkerPool(2) as pool, ExecutionContext(pool=pool) as context:
            first = _split(context, problem, 4)
            assert pool.installs == 2  # one per (graph, worker) pair
            assert first.stats.extra["graph_shipped"] is True
            assert first.stats.extra["graph_installs"] == 2
            second = _split(context, problem, 5)
            assert pool.installs == 2  # nothing re-shipped
            assert second.stats.extra["graph_shipped"] is False
            assert second.stats.extra["graph_installs"] == 0
            # The warm call ships only specs + seeds + solver configs.
            slim = worker_payload_bytes(problem)["compiled_arrays_bytes"]
            assert second.stats.extra["batch_payload_bytes"] < slim
            assert first.stats.extra["batch_payload_bytes"] > slim

    def test_eviction_forces_reshipping(self, small_facebook):
        """A capacity-1 cache alternating two graphs re-ships on every
        switch — and still solves correctly afterwards."""
        from repro.graph.generators import facebook_like

        problem_a = WASOProblem(graph=small_facebook, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=9), k=4)
        with WorkerPool(2, resident_graphs=1) as pool, ExecutionContext(
            pool=pool
        ) as context:
            for expected_installs, problem, seed in (
                (2, problem_a, 1),   # cold: ship A
                (2, problem_a, 2),   # warm: nothing
                (4, problem_b, 3),   # B evicts A
                (6, problem_a, 4),   # A must be re-shipped
            ):
                result = _split(context, problem, seed, budget=40)
                assert result.solution.is_feasible(problem)
                assert pool.installs == expected_installs
            token_a = problem_a.payload_token()
            assert pool.resident_tokens(0) == (token_a,)

    def test_reference_solvers_ship_dict_problems(self, small_facebook):
        """The dict path has no resident representation: reference-engine
        workers get the full problem, and no graph is installed."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with WorkerPool(2) as pool, ExecutionContext(pool=pool) as context:
            result = _split(context, problem, 4, engine="reference")
            assert result.stats.extra["payload"] == "dict-graph"
            assert result.stats.extra["graph_installs"] == 0
            assert pool.installs == 0
            assert result.solution.is_feasible(problem)

    def test_warm_vector_split_stays_resident(self, small_facebook):
        """Regression: vector-engine slices run on the resident compiled
        arrays like compiled ones — a warm split ships only specs, never
        the dict graph."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2, engine="vector") as context:
            _split(context, problem, 4)
            warm = _split(context, problem, 5)
        assert warm.stats.extra["payload"] == "compiled-arrays"
        assert warm.stats.extra["graph_installs"] == 0
        assert warm.stats.extra["batch_payload_bytes"] < 1024

    def test_multiple_chunks_per_worker_parse_correctly(
        self, small_facebook
    ):
        """Regression: a worker shipped several chunks in one batch must
        have its interleaved install-ack / chunk-reply stream parsed by
        send-order tags, not by draining all acks first."""
        from repro.graph.generators import facebook_like

        problem_a = WASOProblem(graph=small_facebook, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=9), k=4)
        kwargs = dict(budget=30, m=4, stages=2)
        with WorkerPool(1) as pool:
            pool.begin_batch()
            for index, problem in enumerate((problem_a, problem_b)):
                spec = problem.payload_spec()
                pool.ship(
                    0,
                    [{
                        "index": index,
                        "problem": spec,
                        "solver": "cbas-nd",
                        "kwargs": kwargs,
                        "seed": 7,
                    }],
                    {spec["token"]: problem.compiled().detach()},
                )
            outcomes = pool.collect()
        assert len(outcomes) == 2
        for index, (chunk, problem) in enumerate(
            zip(outcomes, (problem_a, problem_b))
        ):
            status, echoed, members, value = chunk[0][:4]
            assert status == "ok" and echoed == index
            direct = CBASND(**kwargs).solve(problem, rng=7)
            assert members == direct.members and value == direct.willingness

    def test_split_clamped_to_a_smaller_shared_pool(self, small_facebook):
        """A shared pool smaller than the context's worker setting caps
        the split instead of dispatching past its processes."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with WorkerPool(2) as pool, ExecutionContext(
            workers=4, pool=pool
        ) as context:
            result = _split(context, problem, 4)
        assert result.stats.extra["workers"] == 2
        assert result.stats.extra["worker_budgets"] == [30, 30]

    def test_closed_pool_rejected(self, small_facebook):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.ship(0, [], {})

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, resident_graphs=0)


class TestSolveModeSplit:
    """The best-of split as callers reach it: ``mode="solve"``."""

    def test_solver_interface(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(mode="solve", workers=2) as context:
            result = context.solve(
                problem, "cbas-nd", rng=9, budget=60, m=5, stages=3
            )
        assert result.solution.is_feasible(problem)
        assert result.stats.extra["workers"] == 2
        # The split reports the parent's wall time, not zero, and the
        # stages its slices ran.
        assert result.stats.elapsed_seconds > 0
        assert result.stats.stages == 3

    @pytest.mark.parametrize("engine", ["compiled", "reference", "vector"])
    def test_split_equals_first_max_of_serial_slices(
        self, small_facebook, engine
    ):
        """Oracle: the split is the first maximum of W direct serial
        solves, each on its budget share with its seed drawn in order
        from the caller's rng."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            split = _split(context, problem, 4, budget=61, engine=engine)
        seeds = random.Random(4)
        slices = [
            make_solver(
                "cbas-nd", budget=share, engine=engine, **_SPLIT
            ).solve(problem, rng=seeds.randrange(2**31))
            for share in split_budget(61, 2)
        ]
        best = max(slices, key=lambda result: result.willingness)
        assert split.members == best.members
        assert split.willingness == best.willingness
        assert split.stats.samples_drawn == sum(
            r.stats.samples_drawn for r in slices
        )
        assert split.stats.failed_samples == sum(
            r.stats.failed_samples for r in slices
        )
        assert split.stats.stages == max(r.stats.stages for r in slices)

    def test_quality_comparable_to_serial(self, small_facebook):
        """Splitting the budget must not collapse quality (statistical)."""
        problem = WASOProblem(graph=small_facebook, k=6)
        serial = CBASND(budget=120, m=6, stages=4).solve(problem, rng=2)
        with ExecutionContext(mode="solve", workers=2) as context:
            parallel = context.solve(
                problem, "cbas-nd", rng=2, budget=120, m=6, stages=4
            )
        assert parallel.willingness >= serial.willingness * 0.5
