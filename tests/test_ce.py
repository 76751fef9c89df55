"""Tests for the cross-entropy probability machinery."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sampling import Sample
from repro.ce.convergence import BacktrackController
from repro.ce.probability import SelectionProbabilities, elite_threshold


def _sample(members, willingness):
    return Sample(members=frozenset(members), willingness=willingness)


class TestEliteThreshold:
    def test_paper_example2_quantile(self):
        """Example 2: W = <9.2, 8.9, 8.9, 7.9, 5.9>, rho=0.5 -> gamma=8.9."""
        values = [9.2, 8.9, 8.9, 7.9, 5.9]
        assert elite_threshold(values, 0.5) == pytest.approx(8.9)

    def test_rho_one_is_minimum(self):
        assert elite_threshold([3.0, 1.0, 2.0], 1.0) == 1.0

    def test_tiny_rho_is_maximum(self):
        assert elite_threshold([3.0, 1.0, 2.0], 0.01) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            elite_threshold([], 0.5)
        with pytest.raises(ValueError):
            elite_threshold([1.0], 0.0)
        with pytest.raises(ValueError):
            elite_threshold([1.0], 1.5)


class TestInitialization:
    def test_homogeneous_initialization(self):
        probs = SelectionProbabilities(range(10), k=5)
        # (k - 1) / |V| = 4/10.
        for node in range(10):
            assert probs.probability(node) == pytest.approx(0.4)

    def test_unknown_node_zero(self):
        probs = SelectionProbabilities(range(3), k=2)
        assert probs.probability(99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionProbabilities([], k=2)
        with pytest.raises(ValueError):
            SelectionProbabilities(range(3), k=0)


class TestUpdateEquation4:
    def test_elite_frequencies_with_full_smoothing(self):
        """With w = 1 the vector equals the elite membership frequency."""
        probs = SelectionProbabilities(range(4), k=2)
        samples = [
            _sample({0, 1}, 10.0),
            _sample({0, 2}, 9.0),
            _sample({2, 3}, 1.0),  # below gamma
        ]
        # rho = 0.5 over 3 samples -> rank ceil(1.5) = 2 -> gamma = 9.0.
        probs.update(samples, rho=0.5, smoothing=1.0)
        assert probs.probability(0) == pytest.approx(1.0)
        assert probs.probability(1) == pytest.approx(0.5)
        assert probs.probability(2) == pytest.approx(0.5)
        assert probs.probability(3) == pytest.approx(0.0)

    def test_paper_example2_smoothed_vector(self):
        """Example 2's smoothing arithmetic:
        p = 0.6*<2/3,1/3,1,...> + 0.4*<4/9,...> = <5.2/9, 3.4/9, 1, ...>."""
        # The paper's Example sets the initial vector to 4/9 on every node
        # except the start node v3 (probability 1).  (Its Definition 3 says
        # (k-1)/|V| = 4/10 instead — a printed inconsistency; we follow the
        # worked example here by installing the vector explicitly.)
        probs = SelectionProbabilities(range(1, 11), k=5)
        for node in range(1, 11):
            probs.set_probability(node, 4.0 / 9.0)
        probs.set_probability(3, 1.0)
        elites_and_low = [
            _sample({1, 3, 4, 5, 6}, 8.9),
            _sample({1, 2, 3, 4, 5}, 8.9),
            _sample({2, 3, 5, 6, 8}, 5.9),
            _sample({2, 3, 4, 5, 7}, 7.9),
            _sample({3, 5, 6, 7, 10}, 9.2),
        ]
        probs.update(elites_and_low, rho=0.5, smoothing=0.6)
        # gamma = 8.9; elites = samples 1, 2, 5; frequencies:
        # v1: 2/3, v2: 1/3, v3: 1, v4: 2/3, v5: 1, v6: 2/3, v7: 1/3,
        # v8..v10: 0 except v10: 1/3.
        assert probs.probability(1) == pytest.approx(0.6 * 2 / 3 + 0.4 * 4 / 9)
        assert probs.probability(2) == pytest.approx(0.6 * 1 / 3 + 0.4 * 4 / 9)
        assert probs.probability(3) == pytest.approx(1.0)
        assert probs.probability(5) == pytest.approx(0.6 * 1.0 + 0.4 * 4 / 9)
        assert probs.probability(8) == pytest.approx(0.6 * 0.0 + 0.4 * 4 / 9)

    def test_smoothing_keeps_probabilities_interior(self):
        probs = SelectionProbabilities(range(4), k=2)
        samples = [_sample({0, 1}, 10.0)]
        probs.update(samples, rho=0.5, smoothing=0.9)
        for node in range(4):
            assert 0.0 < probs.probability(node) < 1.0 or node in (0, 1)
        # Nodes absent from elites keep a residue of the old probability.
        assert probs.probability(3) > 0.0

    def test_gamma_monotone_across_stages(self):
        probs = SelectionProbabilities(range(4), k=2)
        probs.update([_sample({0, 1}, 10.0)], rho=0.5, smoothing=0.5)
        first_gamma = probs.gamma
        probs.update([_sample({2, 3}, 1.0)], rho=0.5, smoothing=0.5)
        assert probs.gamma == first_gamma  # did not decrease

    def test_update_below_gamma_is_noop(self):
        probs = SelectionProbabilities(range(4), k=2)
        probs.update([_sample({0, 1}, 10.0)], rho=0.5, smoothing=0.5)
        before = probs.as_dict()
        movement = probs.update(
            [_sample({2, 3}, 1.0)], rho=0.5, smoothing=0.5
        )
        assert movement == 0.0
        assert probs.as_dict() == before

    def test_empty_samples_noop(self):
        probs = SelectionProbabilities(range(4), k=2)
        assert probs.update([], rho=0.5, smoothing=0.5) == 0.0

    def test_movement_is_squared_distance(self):
        probs = SelectionProbabilities(range(2), k=2)
        before = probs.as_dict()
        movement = probs.update(
            [_sample({0, 1}, 5.0)], rho=1.0, smoothing=1.0
        )
        expected = sum(
            (1.0 - before[node]) ** 2 for node in range(2)
        )
        assert movement == pytest.approx(expected)

    def test_validation(self):
        probs = SelectionProbabilities(range(3), k=2)
        with pytest.raises(ValueError):
            probs.update([_sample({0}, 1.0)], rho=0.0, smoothing=0.5)
        with pytest.raises(ValueError):
            probs.update([_sample({0}, 1.0)], rho=0.5, smoothing=2.0)


class TestSnapshots:
    def test_snapshot_restore(self):
        probs = SelectionProbabilities(range(3), k=2)
        before = probs.as_dict()
        saved = probs.snapshot()
        probs.update([_sample({0, 1}, 3.0)], rho=1.0, smoothing=1.0)
        assert probs.as_dict() != before
        probs.restore(saved)
        assert probs.as_dict() == before

    def test_restore_rejects_length_mismatch(self):
        probs = SelectionProbabilities(range(3), k=2)
        with pytest.raises(ValueError):
            probs.restore([0.5])

    def test_kl_distance_zero_for_identical(self):
        first = SelectionProbabilities(range(5), k=3)
        second = SelectionProbabilities(range(5), k=3)
        assert first.kl_distance(second) == pytest.approx(0.0, abs=1e-9)

    def test_kl_distance_positive_when_different(self):
        first = SelectionProbabilities(range(5), k=3)
        second = SelectionProbabilities(range(5), k=3)
        second.update([_sample({0, 1, 2}, 5.0)], rho=1.0, smoothing=1.0)
        assert first.kl_distance(second) > 0.0


class TestCompiledDomain:
    """Array-backed vectors in the compiled int-id domain."""

    def _paired_vectors(self):
        # Compiled id space: nodes "a".."f" -> ids 0..5; candidates skip
        # the forbidden node "e" (id 4), whose slot must stay 0.0.
        index_of = {name: i for i, name in enumerate("abcdef")}
        candidates = [n for n in "abcdf"]
        local = SelectionProbabilities(candidates, k=3)
        compiled = SelectionProbabilities(
            candidates, k=3, index_of=index_of, size=len(index_of)
        )
        return local, compiled, index_of

    def test_array_exposed_only_in_compiled_domain(self):
        local, compiled, index_of = self._paired_vectors()
        assert local.array is None
        assert local.index_map is None
        assert compiled.index_map is index_of
        assert len(compiled.array) == len(index_of)

    def test_non_candidate_slots_stay_zero(self):
        _, compiled, index_of = self._paired_vectors()
        assert compiled.array[index_of["e"]] == 0.0
        assert compiled.probability("e") == 0.0
        samples = [_sample({"a", "b", "c"}, 5.0)]
        compiled.update(samples, rho=1.0, smoothing=0.9)
        assert compiled.array[index_of["e"]] == 0.0

    def test_domains_bit_identical_after_updates(self):
        local, compiled, index_of = self._paired_vectors()
        stages = [
            [_sample({"a", "b", "c"}, 9.0), _sample({"b", "c", "d"}, 4.0)],
            [_sample({"a", "c", "f"}, 11.0), _sample({"a", "b", "f"}, 10.0)],
        ]
        for samples in stages:
            movement_local = local.update(samples, rho=0.5, smoothing=0.7)
            movement_compiled = compiled.update(
                samples, rho=0.5, smoothing=0.7
            )
            assert movement_local == movement_compiled
            assert local.gamma == compiled.gamma
            assert local.as_dict() == compiled.as_dict()
        # Array slot content equals the dict view through the id mapping.
        for node, value in compiled.as_dict().items():
            assert compiled.array[index_of[node]] == value

    def test_indices_fast_path_matches_member_translation(self):
        _, via_members, index_of = self._paired_vectors()
        _, via_indices, _ = self._paired_vectors()
        members = {"a", "c", "f"}
        with_ids = Sample(
            members=frozenset(members),
            willingness=7.0,
            indices=tuple(index_of[n] for n in members),
        )
        without_ids = _sample(members, 7.0)
        assert without_ids.indices is None
        via_members.update([without_ids], rho=1.0, smoothing=0.8)
        via_indices.update([with_ids], rho=1.0, smoothing=0.8)
        assert via_members.as_dict() == via_indices.as_dict()

    def test_snapshot_restore_preserves_array_identity(self):
        _, compiled, _ = self._paired_vectors()
        borrowed = compiled.array
        saved = compiled.snapshot()
        compiled.update([_sample({"a", "b", "c"}, 3.0)], rho=1.0, smoothing=1.0)
        compiled.restore(saved)
        # In-place restore: a sampler's borrowed reference stays valid.
        assert compiled.array is borrowed
        assert compiled.snapshot() == saved

    def test_set_probability_unknown_node(self):
        _, compiled, _ = self._paired_vectors()
        with pytest.raises(KeyError):
            compiled.set_probability("zzz", 0.5)


class TestBacktrackController:
    def test_disabled_by_default(self):
        controller = BacktrackController(threshold=None)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.0)

    def test_backtracks_below_threshold(self):
        controller = BacktrackController(threshold=0.5, max_backtracks=2)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        before = probs.as_dict()
        probs.update([_sample({0, 1}, 5.0)], rho=1.0, smoothing=1.0)
        assert controller.observe(probs, movement=0.1)
        assert probs.as_dict() == before
        assert controller.backtracks_used == 1

    def test_no_backtrack_above_threshold(self):
        controller = BacktrackController(threshold=0.5)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.9)

    def test_budget_of_backtracks(self):
        controller = BacktrackController(threshold=1e9, max_backtracks=1)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert controller.observe(probs, movement=0.0)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BacktrackController(threshold=-1.0)
        with pytest.raises(ValueError):
            BacktrackController(threshold=1.0, max_backtracks=-1)

    def test_no_observe_before_remember(self):
        controller = BacktrackController(threshold=0.5)
        probs = SelectionProbabilities(range(3), k=2)
        assert not controller.observe(probs, movement=0.0)


class TestLazyDecay:
    """The sparse form's (1−w) decay must equal the eager pass bitwise.

    The eager reference below replays the historical implementation:
    every update multiplies the whole array by ``keep`` with one
    comprehension, then overwrites the touched slots.  The sparse path
    (compute_movement=False) must produce the exact same floats —
    successive factored multiplies, never an accumulated scale product.
    """

    @staticmethod
    def _eager_reference(rounds, length, k=3):
        probs = [0.0] * length
        initial = (k - 1) / length
        for slot in range(length):
            probs[slot] = initial
        for smoothing, counts, size in rounds:
            keep = 1.0 - smoothing
            old = {slot: probs[slot] for slot in counts}
            probs[:] = [keep * value for value in probs]
            for slot in sorted(counts):
                probs[slot] = smoothing * (counts[slot] / size) + keep * old[slot]
        return probs

    @staticmethod
    def _rounds(count, length, seed=0):
        rng = __import__("random").Random(seed)
        rounds = []
        for _ in range(count):
            touched = rng.sample(range(length), 4)
            counts = {slot: rng.randrange(1, 4) for slot in touched}
            rounds.append((rng.choice([0.9, 0.7, 0.5]), counts, 3))
        return rounds

    def test_lazy_matches_eager_without_reads(self):
        length = 32
        rounds = self._rounds(6, length)
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        for smoothing, counts, size in rounds:
            vector.update_from_counts(counts, size, smoothing)
        assert vector.snapshot() == self._eager_reference(rounds, length)

    def test_lazy_matches_eager_with_interleaved_reads(self):
        """Per-slot reads between rounds must not perturb materialization."""
        length = 32
        rounds = self._rounds(6, length, seed=1)
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        rng = __import__("random").Random(9)
        for smoothing, counts, size in rounds:
            vector.update_from_counts(counts, size, smoothing)
            # Probe a few slots (reference-path style single reads) and
            # occasionally the whole array (compiled-path draws).
            for slot in rng.sample(range(length), 3):
                vector.probability(slot)
            if rng.random() < 0.5:
                assert vector.array is not None
        assert vector.snapshot() == self._eager_reference(rounds, length)

    def test_movement_path_matches_lazy_values(self):
        """compute_movement=True (eager) and False (lazy) agree bitwise."""
        length = 16
        rounds = self._rounds(5, length, seed=2)
        lazy = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        eager = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        for smoothing, counts, size in rounds:
            lazy.update_from_counts(counts, size, smoothing)
            eager.update_from_counts(
                counts, size, smoothing, compute_movement=True
            )
        assert lazy.snapshot() == eager.snapshot()

    def test_replicate_preserves_pending_rounds(self):
        length = 8
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        vector.update_from_counts({0: 1, 1: 1, 2: 1}, 1, 0.9)
        clone = vector.replicate()
        assert clone.snapshot() == vector.snapshot()

    def test_cross_engine_draws_bit_identical_under_lazy_decay(self):
        """Seeded CBAS-ND runs stay engine-identical with lazy decay.

        Many stages on a small budget maximize pending-round depth (some
        starts skip stages, accumulating multiple lazy rounds) — the
        regime most likely to expose a decay that is *almost* the eager
        value.  Both engines share the lazy implementation, but they
        read through different paths (flat array vs per-node dict
        probes), so any materialization drift would desynchronize the
        weighted draws and the resulting groups.
        """
        from repro.algorithms.cbas_nd import CBASND
        from repro.core.problem import WASOProblem
        from repro.graph.generators import facebook_like

        graph = facebook_like(150, seed=21)
        problem = WASOProblem(graph=graph, k=5)
        for seed in (3, 11):
            compiled = CBASND(budget=160, m=8, stages=8, engine="compiled")
            reference = CBASND(budget=160, m=8, stages=8, engine="reference")
            got = compiled.solve(problem, rng=seed)
            want = reference.solve(problem, rng=seed)
            assert got.members == want.members
            assert got.willingness == want.willingness
            # And the surviving CE vectors themselves agree bitwise.
            for start, vector in compiled.last_warm_state.vectors.items():
                twin = reference.last_warm_state.vectors[start]
                assert vector.as_dict() == twin.as_dict()


_LENGTH = 12

_vector_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("round"),
            st.sampled_from([0.9, 0.7, 0.5, 1.0, 0.0]),
            st.lists(st.integers(0, 63), min_size=1, max_size=5),
            st.integers(1, 4),
            st.booleans(),
        ),
        st.tuples(st.just("read"), st.integers(0, 63)),
        st.tuples(st.just("replicate")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(
            st.just("set"),
            st.integers(0, 63),
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300]),
        ),
    ),
    max_size=25,
)


class TestSparseFormProperties:
    """Generated interleavings against a dense eager model.

    The model is :meth:`TestLazyDecay._eager_reference` unrolled so reads,
    replicas, snapshots, hand-set slots and non-candidate (forbidden)
    slots can interleave with the refit rounds; a mirror vector replays
    every round patch the way pool workers do.
    """

    @staticmethod
    def _model_round(model, smoothing, counts, size):
        keep = 1.0 - smoothing
        old = {slot: model[slot] for slot in counts}
        total_sq = sum([value * value for value in model])
        model[:] = [keep * value for value in model]
        touched_sq = 0.0
        touched_term = 0.0
        for slot in sorted(counts):
            new = smoothing * (counts[slot] / size) + keep * old[slot]
            model[slot] = new
            touched_sq += old[slot] * old[slot]
            touched_term += (new - old[slot]) ** 2
        return smoothing * smoothing * (total_sq - touched_sq) + touched_term

    @given(
        candidates=st.sets(
            st.integers(0, _LENGTH - 1), min_size=1, max_size=_LENGTH
        ),
        k=st.integers(1, 5),
        ops=_vector_ops,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_model(self, candidates, k, ops):
        slots = sorted(candidates)
        index_of = {slot: slot for slot in range(_LENGTH)}

        def build():
            return SelectionProbabilities(slots, k, index_of=index_of)

        vector, mirror = build(), build()
        count = len(slots)
        initial = min(1.0, (k - 1) / count) if count > 1 else 1.0
        if initial <= 0.0:
            initial = 1.0 / count
        model = [initial if slot in candidates else 0.0 for slot in range(_LENGTH)]
        saved = None
        for op in ops:
            kind = op[0]
            if kind == "round":
                _, smoothing, raw, size, movement_on = op
                counts = {}
                for value in raw:
                    slot = slots[value % count]
                    counts[slot] = min(size, counts.get(slot, 0) + 1)
                want = self._model_round(model, smoothing, counts, size)
                patch, movement = vector.update_from_counts(
                    counts, size, smoothing, compute_movement=movement_on
                )
                assert movement == (want if movement_on else 0.0)
                mirror.apply_round(patch[1], patch[2])
            elif kind == "read":
                slot = op[1] % _LENGTH
                assert vector.probability(slot) == model[slot]
                assert vector.array[slot] == model[slot]
            elif kind == "replicate":
                vector = vector.replicate()
            elif kind == "snapshot":
                saved = vector.snapshot()
                assert saved == model
            elif kind == "restore" and saved is not None:
                vector.restore(saved)
                mirror.restore(saved)
                model = list(saved)
            elif kind == "set":
                slot = slots[op[1] % count]
                vector.set_probability(slot, op[2])
                mirror.set_probability(slot, op[2])
                model[slot] = op[2]
        assert vector.snapshot() == model
        assert mirror.snapshot() == model
        assert len(vector.array) == _LENGTH
        assert [vector.array[slot] for slot in range(_LENGTH)] == model
        assert vector.as_dict() == {slot: model[slot] for slot in slots}

    @given(
        rounds=st.lists(
            st.tuples(
                st.sampled_from([0.9, 0.7, 0.5]),
                st.dictionaries(
                    st.integers(0, 15), st.integers(1, 3), min_size=1,
                    max_size=4,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rounds_match_eager_reference(self, rounds):
        rounds = [(smoothing, counts, 3) for smoothing, counts in rounds]
        vector = SelectionProbabilities(
            range(16), 3, index_of={i: i for i in range(16)}
        )
        for smoothing, counts, size in rounds:
            vector.update_from_counts(counts, size, smoothing)
        assert vector.snapshot() == TestLazyDecay._eager_reference(rounds, 16)


class TestForProblem:
    """``for_problem`` builds the constructor's vector without a scan."""

    def test_matches_constructor(self):
        from repro.core.problem import WASOProblem
        from repro.graph.generators import facebook_like

        graph = facebook_like(60, seed=4)
        problem = WASOProblem(
            graph=graph, k=5, forbidden=frozenset({3, 17, 41})
        )
        compiled = graph.compiled()
        built = SelectionProbabilities(
            problem.candidates(),
            problem.k,
            index_of=compiled.index_of,
            size=compiled.number_of_nodes,
        )
        fast = SelectionProbabilities.for_problem(problem, compiled)
        assert fast.index_map is compiled.index_of
        assert fast.snapshot() == built.snapshot()
        assert list(fast.as_dict().items()) == list(built.as_dict().items())
        assert fast.probability(17) == 0.0
        other = SelectionProbabilities.for_problem(problem)
        assert fast.kl_distance(other) == built.kl_distance(other)
