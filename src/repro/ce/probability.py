"""Node-selection probability vectors and the cross-entropy update.

CBAS-ND maintains, per start node, a probability ``p_j`` of selecting each
node ``v_j`` during expansion (Definition 3).  After each stage the vector
is refitted to the *elite* samples — those whose willingness reaches the
top-ρ quantile ``γ`` (Definition 5) — via the paper's Eq. (4):

    p_j ← Σ_q 1{W(X_q) ≥ γ} · x_{q,j}  /  Σ_q 1{W(X_q) ≥ γ}

which §4.3 proves is the minimizer of the Kullback–Leibler distance to the
optimal importance-sampling density.  A smoothing step
``p ← w·p_new + (1 − w)·p_old`` keeps every probability strictly inside
(0, 1) so no node is permanently locked in or out.

Array layout and id-domain contract
-----------------------------------
A vector has one slot per id in one of two domains:

* **Compiled domain** — constructed with ``index_of=`` (the
  :attr:`~repro.graph.compiled.CompiledGraph.index_of` mapping of the
  problem's frozen index, shared, never copied) or by
  :meth:`SelectionProbabilities.for_problem`: one slot per *graph* node,
  indexed by compiled int id.  :attr:`array` then exposes a read-only
  slot view the fast sampler weights frontier draws with, and the elite
  refit counts membership straight off
  :attr:`~repro.algorithms.sampling.Sample.indices`.  Slots of
  non-candidate (forbidden) nodes read ``0.0``.
* **Local domain** — the default (reference engine, hand-built tests):
  slots are candidate positions in input order and
  :meth:`probability` probes a node→slot dict.  :attr:`array` is ``None``.

Both domains run the identical Eq. (4) arithmetic over the candidates in
the same (input) order, so the probability values — and therefore seeded
solver runs — are bit-identical whichever domain backs the vector.
:meth:`as_dict` is the thin dict view in either domain; the execution
stack itself never converts back to node ids mid-solve.

Sparse form
-----------
Every candidate slot no elite sample has touched holds the same value:
the prior ``(k − 1)/|V|`` decayed by each round's ``1 − w``.  The vector
stores it once as the scalar ``base``, plus a dict of the slots that
differ (elite-touched slots, ``0.0`` non-candidates).  A refit round is
O(|touched|): the dict values and ``base`` are multiplied by the keep
factor, then the round's elite slots get the Eq. (4) formula.  ``base``
goes through exactly the left-to-right chain ``((p·k₁)·k₂)·…`` an eager
pass applies to each slot, so every value is bit-identical to an eager
dense pass (a folded scale factor ``p·(k₁·k₂·…)`` would drift in the
last ulp and flip quantile-threshold comparisons).  Reads are one dict probe; only :meth:`snapshot`,
:meth:`as_dict`, :meth:`kl_distance` and the ``compute_movement=True``
refit densify, through ``_materialize_all``.  This one form serves
every engine, so a solve's CE cost is O(draws + touched slots), never
O(n): the compiled sampler reads it through :meth:`_SparseView.lookup`,
the vector engine's batch kernel through :meth:`_SparseView.sparse`;
both gather a frontier entry's weight once, when the entry joins the
frontier.

Sharded stage merge
-------------------
A stage-sharded solve (``repro.parallel.stage_pool``) draws a stage's
samples in worker processes and refits the parent's vector from merged
per-shard elite evidence: :meth:`observe_stage_gamma` folds the merged
stage quantile into the monotone threshold and :meth:`update_from_counts`
applies Eq. (4) from pre-aggregated elite membership counts — the exact
arithmetic of :meth:`update`, minus the per-sample scan.  Both refit
entry points return the applied round as a compact *patch*
``("round", keep, ((slot, value), …))``; worker-resident mirror vectors
replay it with :meth:`apply_round` (or :meth:`restore` for a full-array
resync) and stay bit-identical to the parent without the parent ever
re-shipping the O(n) array.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.algorithms.sampling import Sample
from repro.graph.social_graph import NodeId

__all__ = ["SelectionProbabilities", "elite_threshold"]


def elite_threshold(willingness_values: Sequence[float], rho: float) -> float:
    """Top-ρ sample quantile ``γ = W_(⌈ρN⌉)`` (Definition 5).

    ``willingness_values`` need not be sorted; ``rho`` in (0, 1].
    """
    if not willingness_values:
        raise ValueError("cannot take a quantile of zero samples")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    ordered = sorted(willingness_values, reverse=True)
    rank = max(1, math.ceil(rho * len(ordered)))
    return ordered[rank - 1]


class _SparseView:
    """Live read-only slot view (``len``, ``view[slot]``) of a sparse
    compiled-domain vector; :meth:`lookup` hands the fast sampler the raw
    ``(dict.get, base)`` pair for C-level ``map`` gathers, :meth:`sparse`
    hands the vector kernel the ``(touched, base)`` form itself."""

    __slots__ = ("_vector",)

    def __init__(self, vector: "SelectionProbabilities") -> None:
        self._vector = vector

    def __len__(self) -> int:
        return self._vector._size

    def __getitem__(self, slot: int) -> float:
        vector = self._vector
        if not 0 <= slot < vector._size:
            raise IndexError(f"slot {slot} out of range")
        return vector._touched.get(slot, vector._base)

    def lookup(self) -> "tuple[Callable[..., float], float]":
        """``(get, default)``: ``get(slot, default)`` reads one slot."""
        vector = self._vector
        return vector._touched.get, vector._base

    def sparse(self) -> "tuple[Mapping[int, float], float]":
        """``(touched, base)``: slot → value where it differs from ``base``.

        The mapping is the vector's live dict; callers must not mutate it.
        """
        vector = self._vector
        return vector._touched, vector._base


class SelectionProbabilities:
    """One start node's node-selection probability vector ``p_i``.

    Parameters
    ----------
    candidates:
        Nodes the vector ranges over (the problem's allowed nodes).
    k:
        Group size; the paper initializes every entry to ``(k − 1)/|V|``
        (homogeneous — stage 1 of CBAS-ND behaves exactly like CBAS).
    index_of:
        Optional compiled-id mapping (``CompiledGraph.index_of``).  When
        given, the vector lives in the compiled int-id domain (see the
        module docstring) and :attr:`array` serves the fast sampler
        directly; the mapping is shared by reference, not copied.
    size:
        Array length for the compiled domain (defaults to
        ``len(index_of)``, i.e. one slot per graph node).

    Values are held in the sparse form of the module docstring (one
    ``base`` plus the touched slots) for every engine.

    :meth:`for_problem` builds the vector a solver needs without listing
    the candidates — O(|forbidden|) in the compiled domain.
    """

    __slots__ = (
        "_touched",
        "_base",
        "_size",
        "_view",
        "_index_of",
        "_candidates",
        "_excluded",
        "index_map",
        "gamma",
    )

    def __init__(
        self,
        candidates: Iterable[NodeId],
        k: int,
        *,
        index_of: "Mapping[NodeId, int] | None" = None,
        size: "int | None" = None,
    ) -> None:
        nodes = list(candidates)
        if index_of is None:
            slot_of = {node: slot for slot, node in enumerate(nodes)}
            length = len(nodes)
        else:
            slot_of = index_of
            length = len(index_of) if size is None else size
        slots = [slot_of[node] for node in nodes]
        zero = set(range(length)).difference(slots)
        self._setup(k, len(nodes), index_of, slot_of, length, zero)
        self._candidates = list(zip(nodes, slots))
        self._excluded = None

    @classmethod
    def for_problem(cls, problem, compiled=None) -> "SelectionProbabilities":
        """The homogeneous prior over ``problem``'s candidates.

        With a ``compiled`` index the vector lives in its id domain and
        construction visits only the forbidden slots (the candidate order,
        compiled node order minus forbidden, is derived on demand);
        without one it is the local-domain vector.  Values equal the
        constructor's bit for bit.
        """
        if compiled is None:
            return cls(problem.candidates(), problem.k)
        index_of = compiled.index_of
        excluded = problem.forbidden
        zero = {index_of[node] for node in excluded}
        size = compiled.number_of_nodes
        vector = cls.__new__(cls)
        vector._setup(problem.k, size - len(zero), index_of, index_of,
                      size, zero)
        vector._candidates = None
        vector._excluded = excluded
        return vector

    def _setup(self, k, count, index_map, index_of, size, zero):
        if count < 1:
            raise ValueError("need at least one candidate node")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        initial = min(1.0, (k - 1) / count) if count > 1 else 1.0
        if initial <= 0.0:
            initial = 1.0 / count
        #: identity of the shared compiled mapping (None = local domain)
        self.index_map = index_map
        self._index_of = index_of
        self._size = size
        self._view = None
        self._base = initial
        self._touched = dict.fromkeys(zero, 0.0)
        self.gamma = -math.inf  # monotone elite threshold (pseudo-code 36-39)

    # ------------------------------------------------------------------
    def _candidate_slots(self) -> "list[tuple[NodeId, int]]":
        """``(node, slot)`` per candidate, in candidate order."""
        if self._candidates is None:
            excluded = self._excluded
            self._candidates = [
                (node, slot)
                for node, slot in self._index_of.items()
                if node not in excluded
            ]
        return self._candidates

    def _materialize_all(self) -> "list[float]":
        """The dense array, as a fresh list."""
        dense = [self._base] * self._size
        for slot, value in self._touched.items():
            dense[slot] = value
        return dense

    @property
    def array(self) -> "_SparseView | None":
        """Compiled-id-indexed slot values (``None`` in the local domain).

        The live sparse view (one object per vector); refits show through
        it.
        """
        if self.index_map is None:
            return None
        if self._view is None:
            self._view = _SparseView(self)
        return self._view

    def probability(self, node: NodeId) -> float:
        """Current selection probability of ``node`` (0 if unknown)."""
        slot = self._index_of.get(node)
        if slot is None:
            return 0.0
        return self._touched.get(slot, self._base)

    __call__ = probability

    def set_probability(self, node: NodeId, value: float) -> None:
        """Install a probability by hand (tests / worked paper examples)."""
        try:
            slot = self._index_of[node]
        except KeyError:
            raise KeyError(f"{node!r} is not in this vector's domain") from None
        self._touched[slot] = value

    def reset_threshold(self) -> None:
        """Forget the monotone elite threshold ``γ`` (keep probabilities).

        Used when a vector survives into a *different* problem (online
        re-planning after declines): the old γ was earned against the old
        willingness ceiling, and carrying it over could leave every new
        stage's samples below threshold — freezing the vector for good.
        """
        self.gamma = -math.inf

    def observe_stage_gamma(self, stage_gamma: float) -> float:
        """Fold one stage's elite quantile into the monotone threshold.

        Algorithm 2 (lines 36–39) keeps ``γ`` monotone across stages;
        :meth:`update` does this internally from the raw samples, a
        sharded stage merge computes the quantile from per-shard
        summaries and reports it here.  Returns the updated ``γ``.
        """
        self.gamma = max(self.gamma, stage_gamma)
        return self.gamma

    def replicate(self) -> "SelectionProbabilities":
        """Independent copy sharing the (read-only) domain metadata.

        CBAS-ND replicates one template per start node: O(|touched|).
        """
        clone = SelectionProbabilities.__new__(SelectionProbabilities)
        clone.index_map = self.index_map
        clone._index_of = self._index_of
        clone._candidates = self._candidates
        clone._excluded = self._excluded
        clone._size = self._size
        clone._view = None
        clone._touched = dict(self._touched)
        clone._base = self._base
        clone.gamma = self.gamma
        return clone

    def as_dict(self) -> dict[NodeId, float]:
        """Dict view ``{candidate: probability}`` (candidate input order)."""
        p = self._materialize_all()
        return {node: p[slot] for node, slot in self._candidate_slots()}

    # ------------------------------------------------------------------
    def update(
        self,
        samples: Sequence[Sample],
        rho: float,
        smoothing: float,
        compute_movement: bool = True,
    ) -> float:
        """Apply Eq. (4) + smoothing using this stage's ``samples``.

        Returns the squared L2 distance between the old and new vectors —
        the convergence signal ``z_i`` of §4.4.2.  The elite threshold is
        kept monotone across stages as in Algorithm 2 (lines 36–39): the
        new stage's quantile only replaces ``γ`` when it improves it.

        Elite membership is counted from :attr:`Sample.indices` when both
        the vector and the sample live in the compiled id domain — a plain
        array increment per member — falling back to node-id translation
        for reference-path samples.

        ``compute_movement=False`` (the default CBAS-ND configuration —
        no backtracking) costs O(touched slots); ``compute_movement=True``
        needs the full old/new arrays for the O(n) squared-distance
        accumulation.  The probability values are bit-identical either
        way.
        """
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError(
                f"smoothing weight must lie in [0, 1], got {smoothing}"
            )
        if not samples:
            return 0.0

        stage_gamma = elite_threshold(
            [sample.willingness for sample in samples], rho
        )
        self.gamma = max(self.gamma, stage_gamma)
        elites = [s for s in samples if s.willingness >= self.gamma]
        if not elites:
            # Every sample of this stage fell below the historic threshold;
            # keep the vector unchanged rather than fitting to nothing.
            return 0.0

        compiled_domain = self.index_map is not None
        index_of = self._index_of
        counts: dict[int, int] = {}
        for sample in elites:
            indices = sample.indices if compiled_domain else None
            if indices is not None:
                for slot in indices:
                    counts[slot] = counts.get(slot, 0) + 1
            else:
                for node in sample.members:
                    slot = index_of.get(node)
                    if slot is not None:
                        counts[slot] = counts.get(slot, 0) + 1

        _, movement = self._refit(
            counts, len(elites), smoothing, compute_movement
        )
        return movement

    def update_from_counts(
        self,
        counts: Mapping[int, int],
        elite_size: int,
        smoothing: float,
        compute_movement: bool = False,
    ) -> "tuple[tuple, float]":
        """Eq. (4) + smoothing from pre-aggregated elite counts.

        The sharded stage merge counts elite membership across worker
        summaries (slot → number of elite samples containing it) and
        applies the refit here without ever materializing the samples;
        given the same counts, elite size, and prior state, the resulting
        probabilities are bit-identical to :meth:`update`.  The caller is
        responsible for the threshold bookkeeping
        (:meth:`observe_stage_gamma`) and for filtering the elites.

        Returns ``(patch, movement)``; the patch is the compact round
        record ``("round", keep, ((slot, value), …))`` that
        :meth:`apply_round` replays on worker-resident mirror vectors.
        """
        if elite_size < 1:
            raise ValueError(f"elite_size must be positive, got {elite_size}")
        if not counts:
            raise ValueError("elite counts must not be empty")
        return self._refit(dict(counts), elite_size, smoothing, compute_movement)

    def _refit(
        self,
        counts: dict,
        size: int,
        smoothing: float,
        compute_movement: bool,
    ) -> "tuple[tuple, float]":
        """Shared Eq. (4) + smoothing arithmetic; returns (patch, movement).

        An untouched slot's elite frequency is 0, so its new value is
        exactly ``(1 − w) · old`` (``w·0.0 + x == x`` in IEEE arithmetic)
        — the round's uniform decay — while only the ≤ k·|elites|
        touched slots get the full formula.  Per-slot values are
        bit-identical to the naive full loop; the movement sum groups the
        untouched term as ``w² · Σ old²`` over the dense old array in
        slot order.  Touched slots are visited in sorted (slot) order so
        the result is independent of how membership was counted (int ids
        vs node-id translation vs shard aggregation).
        """
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError(
                f"smoothing weight must lie in [0, 1], got {smoothing}"
            )
        keep = 1.0 - smoothing
        if compute_movement:
            dense = self._materialize_all()
            total_sq = sum([value * value for value in dense])
            read = dense.__getitem__
        else:
            touched, base = self._touched, self._base
            read = lambda slot: touched.get(slot, base)  # noqa: E731
        touched_sq = 0.0
        touched_term = 0.0
        slot_values = []
        for slot in sorted(counts):
            old = read(slot)
            new = smoothing * (counts[slot] / size) + keep * old
            slot_values.append((slot, new))
            if compute_movement:
                touched_sq += old * old
                touched_term += (new - old) ** 2
        self._record_round(keep, slot_values)
        movement = 0.0
        if compute_movement:
            movement = (
                smoothing * smoothing * (total_sq - touched_sq) + touched_term
            )
        return ("round", keep, tuple(slot_values)), movement

    def _record_round(self, keep: float, slot_values: Sequence[tuple]) -> None:
        """Apply one refit round: uniform decay, then the touched slots."""
        touched = {slot: keep * value for slot, value in self._touched.items()}
        for slot, value in slot_values:
            touched[slot] = value
        self._touched = touched
        self._base = keep * self._base

    def apply_round(self, keep: float, slot_values: Sequence[tuple]) -> None:
        """Replay a refit round produced by another vector instance.

        Stage-pool workers hold a mirror of each start node's vector and
        keep it synchronized by replaying the parent's round patches
        (``keep`` + the touched ``(slot, value)`` pairs); the mirror's
        values stay bit-identical to the parent's.
        """
        self._record_round(keep, slot_values)

    # ------------------------------------------------------------------
    def snapshot(self) -> list[float]:
        """Dense copy of the flat array (backtracking, full resync)."""
        return self._materialize_all()

    def restore(self, snapshot: Sequence[float]) -> None:
        """Reset the vector to a previous :meth:`snapshot` (or any full array).

        Restores in place so borrowed :attr:`array` references (the fast
        sampler holds one during a stage) stay valid.  The array's most
        common value becomes the new ``base``.
        """
        if len(snapshot) != self._size:
            raise ValueError(
                f"snapshot length {len(snapshot)} does not match "
                f"vector length {self._size}"
            )
        base = Counter(snapshot).most_common(1)[0][0]
        self._touched = {
            slot: value
            for slot, value in enumerate(snapshot)
            if value != base
        }
        self._base = base

    def kl_distance(self, other: "SelectionProbabilities") -> float:
        """Bernoulli-factorized KL distance between two vectors.

        ``Σ_j p ln(p/q) + (1−p) ln((1−p)/(1−q))`` with clamping away from
        {0, 1}.  Exposed for diagnostics and tests of the CE theory.
        """

        def _clamp(x: float) -> float:
            return min(1.0 - 1e-12, max(1e-12, x))

        p_arr = self._materialize_all()
        total = 0.0
        for node, slot in self._candidate_slots():
            p = _clamp(p_arr[slot])
            q = _clamp(other.probability(node))
            total += p * math.log(p / q)
            total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
        return total

