"""The stage-batched frontier expansion kernel.

One call draws *every* funded start node's samples for a stage as
batched array operations.  Each draw is one **row** of the batch, and
the rows are expanded in chunks (see *Chunks* below):

* a ``status`` matrix (int8) replaces the scalar kernel's generation
  stamps — 0 untouched, 1 frontier, 2 member.  A large sparse chunk
  gives it one column per node the chunk touches, not one per graph
  node: a node gets a column the first time a row of the chunk touches
  it, through a per-sampler ``local_of`` array whose column 0 is never
  written (an untouched node reads 0 there) and which is reset after
  the chunk in O(touched);
* the frontier lives in a padded ``(rows, capacity)`` matrix with
  per-row lengths and the scalar kernel's exact swap-pop;
* each expansion step picks one frontier node per live row — uniformly
  (CBAS), by cumulative-sum weighted pick over the start's CE vector
  (CBAS-ND), or by the greedy willingness bias (RGreedy) — then
  scatters the member mark, gathers the chosen nodes' CSR rows in one
  flat pass, reduces the member-edge pair weights per row with
  ``bincount``, and appends the fresh allowed neighbours to the
  frontier;
* a CE vector is read in its sparse form (``base`` plus touched
  slots), and each frontier entry's weight is gathered once, when it
  joins the frontier, into a weight matrix kept parallel to the
  frontier and swap-popped with it.  A compact chunk sorts every spec's
  touched ``(spec, slot)`` keys once and looks entries up with
  ``searchsorted`` (or the spec's ``base``); a node-id chunk expands
  each spec into one dense row;
* willingness starts from the sampler's cached per-seed base value (the
  scalar evaluator's exact float) and accumulates the same
  ``weighted_interest + Σ pair_w`` per-step delta.  The per-row
  accumulation *order* differs from the scalar kernel (edge deltas are
  reduced per step instead of per edge), which is exactly the
  float-reassociation the vector engine's tolerance oracle allows; the
  *set* of accumulated terms is identical, and every integer quantity
  (members, counts, failures) is exact.

Randomness comes positionally from :mod:`repro.vector.rng`: row ``i`` of
a start's uniform matrix belongs to planned draw ``first_draw + i``, so
the same draws produce the same samples however they are batched or
sharded.

Chunks
------
A row touches at most ``t`` nodes — its seed members and frontier plus
``k`` × the largest degree — so ``r`` rows need at most
``min(n, r · t)`` status columns.  A chunk takes the most rows with
``r · (min(n, r · t) + per-row cells) ≤ MAX_CHUNK_CELLS``.  On a dense
graph that budgets ``n`` columns per row; on a sparse one a chunk
usually holds a whole stage.

A chunk uses compact columns when ``r · t < n`` and ``r · n`` exceeds
``MAX_CHUNK_CELLS / MIN_CHUNK_ROWS``; otherwise a node's column is its
id.  The compact map costs a few array operations per step, which a
small chunk (a stage shard, say) would not earn back, while zeroing
its ``r · n`` cells is cheap.  A chunk's cost is therefore
O(rows × touched nodes), plus O(rows × n) only where that is at most
``MAX_CHUNK_CELLS / MIN_CHUNK_ROWS`` cells or where the rows may touch
every node anyway.

Semantics notes
---------------
* Failure-cap truncation is applied *post hoc* over the produced batch
  (consecutive-failure counter seeded with the carry-in), reproducing
  the scalar ``draw_batch`` early stop.  In connected mode a non-pruned
  start's expansions cannot stall — a component of size ≥ k always
  offers an adjacent non-member — so failures arise only from
  disconnected seeds (required nodes spanning components) failing the
  final bridge check, and from WASO-dis runs with fewer than ``k``
  allowed nodes.
* The weighted pick resolves threshold position with the scalar path's
  ``bisect_left`` semantics and degrades to the uniform formula when a
  weight row's frontier mass is zero.  (The scalar path's
  measure-zero ``threshold == 0.0`` tie-break — first *positive* slot
  rather than first slot — is not reproduced; it has probability 2⁻⁵³
  per pick and the engines do not share RNG streams anyway.)
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.sampling import Sample
from repro.vector.rng import draw_uniforms, uniform_width

__all__ = ["draw_stage_batch"]

#: Rough cap on (rows × per-row cells) per chunk, bounding the status /
#: frontier / uniform matrices to a few MB however large the stage is
#: (a row's status cells are the chunk's touched columns, at most n).
MAX_CHUNK_CELLS = 4_000_000

#: Never chunk below this many rows — tiny chunks forfeit the batching.
MIN_CHUNK_ROWS = 16


def draw_stage_batch(
    sampler,
    entries,
    base_key,
    mode="uniform",
    weight_rows=None,
    max_failures=None,
):
    """Draw one stage's batches for several starts in one vectorized pass.

    ``entries`` is a list of dicts with keys ``start_key`` (the integer
    keying the start's Philox stream), ``seed`` (the member seed set),
    ``first_draw`` (the start's planned draw ordinal for this batch),
    ``count`` and ``failures`` (carry-in consecutive-failure counter).
    ``weight_rows`` aligns with ``entries`` for ``mode="ce"``: each is a
    start's CE vector view (:attr:`SelectionProbabilities.array
    <repro.ce.probability.SelectionProbabilities.array>`), read through
    its sparse ``(touched, base)`` form.  Returns one list of
    ``Sample | None`` per entry, in draw order, truncated at
    ``max_failures`` consecutive failures exactly like the scalar
    ``draw_batch``.
    """
    problem = sampler.problem
    k = problem.k
    width = uniform_width(k)
    out = [[] for _ in entries]

    # Resolve every entry's cached seed state first: chunk sizing needs
    # the largest initial frontier (WASO-dis frontiers are O(n)).
    specs = []
    max_frontier = 1
    max_seed_nodes = 1
    for position, entry in enumerate(entries):
        state = sampler._seed_state(entry["seed"])
        if len(state[2]) > k:
            # Oversized seed: every draw fails, no kernel work needed.
            out[position].extend([None] * entry["count"])
            continue
        max_frontier = max(max_frontier, len(state[3]))
        max_seed_nodes = max(max_seed_nodes, len(state[2]) + len(state[3]))
        wrow = weight_rows[position] if mode == "ce" else None
        specs.append(
            (position, entry["start_key"], state, entry["first_draw"],
             entry["count"], wrow)
        )

    if specs:
        vg = sampler.evaluator.vgraph
        # A row touches at most its seed nodes plus k CSR rows.
        touch = max_seed_nodes + k * vg.max_degree
        chunk_rows = _chunk_rows(
            vg.number_of_nodes, touch, max_frontier + 8 * width
        )
        # Greedy chunk packing over the concatenated row space; a spec
        # larger than a chunk is split by draw range, which is free —
        # draw d's uniforms depend only on (base_key, start_key, d).
        chunk: list = []
        filled = 0
        for position, start_key, state, first, count, wrow in specs:
            remaining = count
            while remaining > 0:
                if filled >= chunk_rows:
                    _run_chunk(
                        sampler, chunk, base_key, width, mode, out, touch
                    )
                    chunk, filled = [], 0
                take = min(chunk_rows - filled, remaining)
                chunk.append((position, start_key, state, first, take, wrow))
                first += take
                remaining -= take
                filled += take
        if chunk:
            _run_chunk(sampler, chunk, base_key, width, mode, out, touch)

    results = []
    for position, entry in enumerate(entries):
        results.append(
            _truncate(out[position], entry.get("failures", 0), max_failures)
        )
    return results


def _chunk_rows(n, touch, per_row):
    """Largest row count ``r`` with ``r · (min(n, r · touch) + per_row)``
    within :data:`MAX_CHUNK_CELLS` (at least :data:`MIN_CHUNK_ROWS`).

    ``touch`` bounds the nodes one row can touch, so ``r`` rows need at
    most ``min(n, r · touch)`` status columns; ``per_row`` counts the
    frontier and uniform cells.
    """
    dense = MAX_CHUNK_CELLS // (n + per_row)
    # Positive root of touch·r² + per_row·r = MAX_CHUNK_CELLS, valid
    # while its r·touch columns stay below n.
    sparse = (
        math.isqrt(per_row * per_row + 4 * touch * MAX_CHUNK_CELLS) - per_row
    ) // (2 * touch)
    return max(MIN_CHUNK_ROWS, dense, min(sparse, n // touch))


def _truncate(batch, carry, max_failures):
    """Cut a batch at the consecutive-failure cap (scalar early stop)."""
    if max_failures is None:
        return batch
    failures = carry
    for position, sample in enumerate(batch):
        if sample is None:
            failures += 1
            if failures >= max_failures:
                return batch[: position + 1]
        else:
            failures = 0
    return batch


def _allowed_mask(sampler) -> np.ndarray:
    """Boolean per-node allowed mask: a view of the sampler's bytes."""
    return np.frombuffer(sampler._allowed_mask, dtype=np.bool_)


class _Columns:
    """The status columns of one chunk.

    Without ``compact`` a node's column is its id and :meth:`of` is the
    identity.  With it, ``local_of[node]`` is the node's column, ``0`` —
    a column no row ever writes, so it always reads "untouched" — until
    the chunk first touches the node.  ``local_of`` is allocated once per
    sampler and :meth:`reset` clears only the assigned entries,
    O(touched).
    """

    __slots__ = ("local_of", "assigned", "count")

    def __init__(self, sampler, n, compact):
        self.assigned = []
        self.count = 1
        self.local_of = None
        if compact:
            self.local_of = getattr(sampler, "_vector_local_of", None)
            if self.local_of is None:
                self.local_of = np.zeros(n, dtype=np.intp)
                sampler._vector_local_of = self.local_of

    def of(self, nodes):
        """Status columns of ``nodes``."""
        local_of = self.local_of
        return nodes if local_of is None else local_of[nodes]

    def add(self, nodes):
        """Give the column-less ``nodes`` columns; returns them.

        A node repeated in ``nodes`` keeps one of its columns (the rest
        stay unused), so a chunk never holds more columns than
        ``rows · t`` and needs no sort to deduplicate.
        """
        end = self.count + nodes.size
        self.local_of[nodes] = np.arange(self.count, end)
        self.assigned.append(nodes)
        self.count = end
        return self.local_of[nodes]

    def reset(self):
        for nodes in self.assigned:
            self.local_of[nodes] = 0


def _ce_lookup(specs, n, dense):
    """``weights(spec_ids, nodes)``: the chunk specs' CE weights, negative
    values clamped to zero as the weighted pick treats them.

    A ``dense`` chunk (status columns are node ids, so it is O(n) per
    row already) expands each spec's sparse vector into a row of one
    matrix.  A compact chunk keeps the touched ``spec · n + slot`` keys
    sorted and finds each node with ``searchsorted``, falling back to
    the spec's ``base``.
    """
    entries = [wrow.sparse() for *_head, wrow in specs]
    if dense:
        table = np.empty((len(entries), n))
        for row, (touched, base) in zip(table, entries):
            row.fill(base)
            size = len(touched)
            row[np.fromiter(touched, dtype=np.int64, count=size)] = (
                np.fromiter(touched.values(), dtype=np.float64, count=size)
            )
        np.maximum(table, 0.0, out=table)
        return lambda spec_ids, nodes: table[spec_ids, nodes]
    keys = np.concatenate([
        np.fromiter(touched, dtype=np.int64, count=len(touched)) + s * n
        for s, (touched, _base) in enumerate(entries)
    ])
    values = np.concatenate([
        np.fromiter(touched.values(), dtype=np.float64, count=len(touched))
        for touched, _base in entries
    ])
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    bases = np.asarray([base for _touched, base in entries])

    def weights(spec_ids, nodes):
        found = bases[spec_ids]
        if keys.size:
            query = spec_ids * n + nodes
            where = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            hit = keys[where] == query
            found[hit] = values[where[hit]]
        return np.maximum(found, 0.0, out=found)

    return weights


def _run_chunk(sampler, specs, base_key, width, mode, out, touch):
    """Expand one chunk of rows to completion and emit its samples."""
    n = sampler.evaluator.vgraph.number_of_nodes
    rows = sum(count for *_head, count, _wrow in specs)
    # Compact columns cost a few array ops per step; they pay off when
    # the rows cannot touch every node and n columns would take more
    # than a minimum chunk's share of the cell budget.
    compact = rows * touch < n and rows * n > MAX_CHUNK_CELLS // MIN_CHUNK_ROWS
    columns = _Columns(sampler, n, compact)
    try:
        _expand_chunk(sampler, specs, base_key, width, mode, out, columns)
    finally:
        columns.reset()


def _expand_chunk(sampler, specs, base_key, width, mode, out, columns):
    problem = sampler.problem
    comp = sampler._compiled
    vg = sampler.evaluator.vgraph
    n = vg.number_of_nodes
    k = problem.k
    connected = problem.connected
    check_allowed = sampler._check_allowed
    allowed = _allowed_mask(sampler) if (connected and check_allowed) else None
    local_of = columns.local_of
    column_of = columns.of

    counts = [count for *_head, count, _wrow in specs]
    rows = sum(counts)
    bounds = np.concatenate(([0], np.cumsum(counts)))

    willing = np.empty(rows, dtype=np.float64)
    member_lens = np.empty(rows, dtype=np.int64)
    members = np.zeros((rows, k), dtype=np.int64)
    picks = np.zeros(rows, dtype=np.int64)
    spec_of = np.empty(rows, dtype=np.int64)
    alive = np.ones(rows, dtype=bool)
    uniforms = np.empty((rows, width), dtype=np.float64)

    # Seed columns first: a compact status matrix is sized by them.
    seed_arrays = []
    for _position, _key, state, *_tail in specs:
        member_arr = np.asarray(state[2], dtype=np.int64)
        frontier_arr = np.asarray(state[3], dtype=np.int64)
        if local_of is not None:
            touched = np.concatenate((member_arr, frontier_arr))
            columns.add(touched[local_of[touched] == 0])
        seed_arrays.append((member_arr, frontier_arr))
    status = np.zeros(
        (rows, n if local_of is None else 2 * columns.count), dtype=np.int8
    )

    ce_weights = (
        _ce_lookup(specs, n, dense=local_of is None) if mode == "ce" else None
    )
    capacity = max(8, max(arr.size for _m, arr in seed_arrays))
    frontier = np.zeros((rows, capacity), dtype=np.int64)
    frontier_lens = np.zeros(rows, dtype=np.int64)
    # CE weight of each frontier entry, gathered once as it joins and
    # swap-popped with it; slots past a row's length hold 0.0.
    weights = np.zeros((rows, capacity)) if ce_weights is not None else None

    for s, (_position, start_key, state, first, count, _wrow) in enumerate(
        specs
    ):
        member_arr, frontier_arr = seed_arrays[s]
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        spec_of[lo:hi] = s
        willing[lo:hi] = state[0]
        member_lens[lo:hi] = member_arr.size
        if member_arr.size:
            members[lo:hi, : member_arr.size] = member_arr
            status[lo:hi, column_of(member_arr)] = 2
        if frontier_arr.size:
            frontier[lo:hi, : frontier_arr.size] = frontier_arr
            status[lo:hi, column_of(frontier_arr)] = 1
            frontier_lens[lo:hi] = frontier_arr.size
            if weights is not None:
                weights[lo:hi, : frontier_arr.size] = ce_weights(
                    np.full(frontier_arr.size, s), frontier_arr
                )
        uniforms[lo:hi] = draw_uniforms(
            base_key, start_key, first, count, width
        )

    offsets = vg.offsets
    targets = vg.targets
    pair_w = vg.pair_w
    interest = vg.weighted_interest
    degrees = vg.degrees

    max_steps = k - int(member_lens.min())
    for _step in range(max_steps):
        act = np.nonzero(alive & (member_lens < k))[0]
        if act.size == 0:
            break
        lens = frontier_lens[act]
        empty = lens == 0
        if empty.any():
            alive[act[empty]] = False
            act = act[~empty]
            if act.size == 0:
                break
            lens = frontier_lens[act]
        u = uniforms[act, picks[act]]
        last = lens - 1

        if mode == "uniform":
            pick = np.minimum((u * lens).astype(np.int64), last)
        else:
            span = int(lens.max())
            if mode == "ce":
                values = weights[act, :span]
            else:  # greedy
                window = frontier[act, :span]
                in_frontier = np.arange(span)[None, :] < lens[:, None]
                values = _greedy_weights(
                    vg, status, column_of, willing, act, window, in_frontier
                )
            cumulative = np.cumsum(values, axis=1)
            total = cumulative[:, -1]
            threshold = u * total
            weighted = np.minimum(
                (cumulative < threshold[:, None]).sum(axis=1), last
            )
            fallback = np.minimum((u * lens).astype(np.int64), last)
            pick = np.where(total > 0.0, weighted, fallback)
        chosen = frontier[act, pick]

        # Swap-pop the chosen frontier slot, mark membership.
        frontier[act, pick] = frontier[act, last]
        if weights is not None:
            weights[act, pick] = weights[act, last]
            weights[act, last] = 0.0
        frontier_lens[act] = last
        status[act, column_of(chosen)] = 2
        members[act, member_lens[act]] = chosen
        member_lens[act] += 1
        picks[act] += 1

        # Merged delta + frontier extension over the chosen nodes' CSR
        # rows, all rows flattened into one gather.
        deltas = interest[chosen].copy()
        chosen_deg = degrees[chosen]
        edge_total = int(chosen_deg.sum())
        if edge_total:
            row_rep = np.repeat(np.arange(act.size), chosen_deg)
            head = np.concatenate(([0], np.cumsum(chosen_deg)[:-1]))
            slots = (
                np.arange(edge_total, dtype=np.int64)
                - head[row_rep]
                + offsets[chosen][row_rep]
            )
            neighbours = targets[slots]
            cols = column_of(neighbours)
            state = status[act[row_rep], cols]
            member_edge = state == 2
            if member_edge.any():
                deltas += np.bincount(
                    row_rep[member_edge],
                    weights=pair_w[slots][member_edge],
                    minlength=act.size,
                )
            if connected:
                fresh = state == 0
                if allowed is not None:
                    fresh &= allowed[neighbours]
                fresh_total = int(fresh.sum())
                if fresh_total:
                    fresh_rows = row_rep[fresh]
                    fresh_nodes = neighbours[fresh]
                    if local_of is None:
                        fresh_cols = fresh_nodes
                    else:
                        fresh_cols = cols[fresh]
                        unseen = fresh_cols == 0
                        if unseen.any():
                            fresh_cols[unseen] = columns.add(
                                fresh_nodes[unseen]
                            )
                            if columns.count > status.shape[1]:
                                status = _grow(status, 2 * columns.count)
                    per_row = np.bincount(fresh_rows, minlength=act.size)
                    row_head = np.concatenate(
                        ([0], np.cumsum(per_row)[:-1])
                    )
                    rank = np.arange(fresh_total) - row_head[fresh_rows]
                    target_rows = act[fresh_rows]
                    column = frontier_lens[target_rows] + rank
                    needed = int(column.max()) + 1
                    if needed > frontier.shape[1]:
                        wider = max(needed, 2 * frontier.shape[1])
                        frontier = _grow(frontier, wider)
                        if weights is not None:
                            weights = _grow(weights, wider)
                    frontier[target_rows, column] = fresh_nodes
                    status[target_rows, fresh_cols] = 1
                    if weights is not None:
                        weights[target_rows, column] = ce_weights(
                            spec_of[target_rows], fresh_nodes
                        )
                    frontier_lens[act] += per_row
        willing[act] += deltas

    # Emit samples in draw order; complete rows succeed unless a
    # disconnected seed failed to bridge (scalar kernel's final check).
    nodes = comp.nodes
    graph = sampler.graph
    complete = alive & (member_lens == k)
    member_rows = members.tolist()
    willing_values = willing.tolist()
    bridge_memo: dict = {}
    for s, (position, _key, state, _first, _count, _wrow) in enumerate(specs):
        seed_connected = state[1]
        dest = out[position]
        for b in range(int(bounds[s]), int(bounds[s + 1])):
            if not complete[b]:
                dest.append(None)
                continue
            indices = tuple(member_rows[b])
            group = frozenset(map(nodes.__getitem__, indices))
            if connected and not seed_connected:
                bridged = bridge_memo.get(indices)
                if bridged is None:
                    bridged = graph.is_connected_subset(group)
                    bridge_memo[indices] = bridged
                if not bridged:
                    dest.append(None)
                    continue
            dest.append(
                Sample(
                    members=group,
                    willingness=willing_values[b],
                    indices=indices,
                )
            )


def _grow(matrix, width):
    """``matrix`` widened to ``width`` columns, new cells zero."""
    grown = np.zeros((matrix.shape[0], width), dtype=matrix.dtype)
    grown[:, : matrix.shape[1]] = matrix
    return grown


def _greedy_weights(vg, status, column_of, willing, act, window, in_frontier):
    """RGreedy's frontier weights ``max(0, W(S ∪ {v}))`` for every slot.

    One flat CSR gather over every (row, frontier-slot) pair: the delta
    of adding slot node ``v`` to row ``r``'s members is
    ``interest[v] + Σ pair_w`` over ``v``'s edges into ``r``'s member
    set, reduced per slot with ``bincount``.
    """
    flat_nodes = window[in_frontier]
    entry_rows = np.nonzero(in_frontier)[0]
    deltas = vg.weighted_interest[flat_nodes].copy()
    node_deg = vg.degrees[flat_nodes]
    edge_total = int(node_deg.sum())
    if edge_total:
        entry_rep = np.repeat(np.arange(flat_nodes.size), node_deg)
        head = np.concatenate(([0], np.cumsum(node_deg)[:-1]))
        slots = (
            np.arange(edge_total, dtype=np.int64)
            - head[entry_rep]
            + vg.offsets[flat_nodes][entry_rep]
        )
        member_edge = (
            status[act[entry_rows[entry_rep]], column_of(vg.targets[slots])]
            == 2
        )
        if member_edge.any():
            deltas += np.bincount(
                entry_rep[member_edge],
                weights=vg.pair_w[slots][member_edge],
                minlength=flat_nodes.size,
            )
    values = np.zeros(window.shape, dtype=np.float64)
    values[in_frontier] = np.maximum(
        0.0, willing[act][entry_rows] + deltas
    )
    return values
