"""Exact first-passage (percolation) solver for batched static races.

The asynchronous push–pull race of Definition 1 is a superposition of
independent exponential clocks, one per *directed* adjacency entry: while
``u`` is informed-and-up and ``v`` is uninformed-and-up, the contact process
along ``u → v`` is Poisson with constant rate ``delivery·(a/d_u + b/d_v)``
(push thinned by the uniform neighbour mark, pull likewise; drop faults thin
the process again).  By memorylessness the first effective contact after
``u`` becomes informed is ``T(u) + Exp(rate)``, independent across entries —
so the informing times are exactly the shortest-path distances from the
source under i.i.d. exponential edge delays.  This is the classical
Richardson / first-passage-percolation equivalence for SI-type spreads, and
it is an *equality in distribution of the whole informing-time vector*, not
an approximation.

Scheduled crashes stay exact: a transmission along ``u → v`` is effective
only while both endpoints are up, so the candidate ``T(u) + X`` is valid iff
it lands strictly before ``min(θ_u, θ_v)`` (the endpoint crash times) — a
static per-entry *clip*.  A node informed before its crash time stays
informed; every finite time the solver returns therefore already respects
``T(v) < θ_v``.  The time horizon censors identically: candidates at or
beyond ``limit`` are discarded, which is exact because delays are
non-negative (no path through a censored node can re-enter the horizon).

The solver itself is a frontier label-correcting Bellman–Ford over the flat
``(trial, node)`` pair space, with a delta-stepping-style twist: each round
expands only the earliest tenth of the pending pairs (a ``np.partition``
threshold), which approximates Dijkstra's settled order closely enough to cut
edge re-expansion from ~4.6 to ~1.06 touches per directed entry on
G(10⁴, 2 ln n/n) (~5.4 to ~1.07 on G(10⁵, ·)) while keeping every scatter an
O(frontier)-sized vectorised batch (``np.minimum.at``).  The flat
``(trial, neighbour)`` target of every ``(trial, entry)`` position is built
once per call, so a round is a handful of gathers and one scatter.
Expansion order cannot change the fixed point — every
finite time is the same left-associated sum of delays along the same optimal
path — so the result is bit-identical for any ordering (and to the heap
Dijkstra reference below, which the test-suite checks exactly).  This is what
closes the general-graph batch gap without needing a compiled kernel.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.graphs.csr import CsrSnapshot

#: Fraction of pending (trial, node) pairs expanded per round — the earliest
#: ones by tentative time.  Smaller fractions mean fewer wasted re-expansions
#: but more rounds of python-level overhead.  On G(10⁴, 2 ln n/n) in blocks of
#: 8 trials, 1.0 / 0.25 / 0.1 / 0.05 touch each directed entry 4.6 / 1.5 /
#: 1.06 / 1.0 times, and 0.1 is the fastest of them there and on G(10⁵, ·).
#: Sparser families (expander, star) run best near 0.25 but stay within ~30%
#: at 0.1.
EXPAND_FRACTION = 0.1

#: While the pending set holds at most this many pairs per trial the
#: partition threshold is skipped and the whole frontier expands at once.
#: Cycles and paths never get past it: their frontier is two pairs wide and
#: ordering it would only multiply the rounds.
ORDERED_EXPANSION_MIN = 4


def entry_transmission_rates(
    snapshot: CsrSnapshot, a: float, b: float, delivery: float
) -> np.ndarray:
    """Per-entry transmission rate for ``owner → neighbour`` delivery.

    Entry ``e`` of the CSR arrays (owner ``v = row_owner[e]``, neighbour
    ``u = indices[e]``) carries the rumor *from the owner to the neighbour*
    at rate ``delivery·(a/d_v + b/d_u)`` — the owner's push clock plus the
    neighbour's pull clock, both restricted to this edge.
    """
    inv = snapshot.inverse_degrees
    return delivery * (a * inv[snapshot.row_owner] + b * inv[snapshot.indices])


def first_passage_times(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    delays: np.ndarray,
    source_id: int,
    clip: Optional[np.ndarray] = None,
    limit: float = np.inf,
) -> np.ndarray:
    """Informing times for every trial: ``(T, n)`` shortest-path distances.

    ``delays`` is a ``(T, m)`` matrix of per-trial exponential delays indexed
    by CSR entry in *outgoing* orientation (entry ``e`` delays the
    ``row_owner[e] → indices[e]`` transmission).  ``clip`` optionally bounds
    each entry: a candidate ``T(owner) + delays[t, e]`` only counts when it
    is strictly below ``clip[e]`` (crash censoring).  Times at or beyond
    ``limit`` are censored to ``inf``.

    Returns the dense time matrix; uninformed (never reached, crashed first,
    censored) entries are ``inf``.
    """
    trials, m = delays.shape
    n = indptr.shape[0] - 1
    if limit <= 0.0:
        # Degenerate horizon: nothing besides the source can be informed
        # (matches the event engines, which only record events before limit).
        times = np.full((trials, n), np.inf)
        times[:, source_id] = 0.0
        return times

    # Unreached pairs hold ``limit`` until the end: a candidate counts only
    # when it beats its target's current time, so that one comparison also
    # enforces the horizon.
    times = np.full(trials * n, float(limit))
    sources = np.arange(trials) * n + source_id
    times[sources] = 0.0
    delays_flat = delays.reshape(-1)
    # The (trial, neighbour) pair each (trial, entry) position relaxes.
    targets_flat = (np.arange(trials)[:, None] * n + indices[None, :]).reshape(-1)
    clip_flat = None if clip is None else np.tile(clip, trials)
    pending = np.zeros(trials * n, dtype=bool)
    pending[sources] = True
    while True:
        flat = np.flatnonzero(pending)
        if flat.size == 0:
            break
        if flat.size > ORDERED_EXPANSION_MIN * trials:
            # Expand the earliest pairs first: close enough to Dijkstra's
            # settled order that later improvement (and re-expansion) of an
            # already-expanded pair becomes rare.
            tentative = times.take(flat)
            k = max(1, int(flat.size * EXPAND_FRACTION))
            threshold = np.partition(tentative, k - 1)[k - 1]
            flat = flat[np.flatnonzero(tentative <= threshold)]
        pending[flat] = False
        trial, node = np.divmod(flat, n)
        counts = degrees[node]
        total = int(counts.sum())
        if total == 0:
            continue
        # Row-gather machinery: entry e of pair (t, v) sits at position
        # t·m + indptr[v] + e; one repeat builds the bases.
        base = indptr[node] - np.cumsum(counts)
        base += counts
        base += trial * m
        position = np.repeat(base, counts)
        position += np.arange(total)
        candidate = np.repeat(times.take(flat), counts)
        candidate += delays_flat.take(position)
        target = targets_flat.take(position)
        keep = candidate < times.take(target)
        if clip_flat is not None:
            keep &= candidate < clip_flat.take(position)
        # Index lists, not boolean masks: compressing two arrays by one
        # sparse mask is several times slower than one flatnonzero.
        keep = np.flatnonzero(keep)
        if keep.size == 0:
            continue
        target = target.take(keep)
        # Every kept candidate lowers its target, so each target re-enters
        # the pending set.
        np.minimum.at(times, target, candidate.take(keep))
        pending[target] = True
    times[times == limit] = np.inf
    return times.reshape(trials, n)


def first_passage_times_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    delays_row: np.ndarray,
    source_id: int,
    clip: Optional[np.ndarray] = None,
    limit: float = np.inf,
) -> np.ndarray:
    """Single-trial heap Dijkstra with the same clip/limit semantics.

    Bit-identical to one row of :func:`first_passage_times`: every finite
    time either solver produces is the same left-associated sum of delays
    along the same optimal path, so the comparison in the test-suite is exact
    float equality, not approximate.
    """
    n = indptr.shape[0] - 1
    times = np.full(n, np.inf)
    times[source_id] = 0.0
    heap = [(0.0, source_id)]
    while heap:
        time, node = heapq.heappop(heap)
        if time > times[node]:
            continue  # stale entry
        for e in range(indptr[node], indptr[node + 1]):
            candidate = time + delays_row[e]
            if clip is not None and not (candidate < clip[e]):
                continue
            if not (candidate < limit):
                continue
            neighbour = indices[e]
            if candidate < times[neighbour]:
                times[neighbour] = candidate
                heapq.heappush(heap, (candidate, int(neighbour)))
    return times


__all__ = [
    "entry_transmission_rates",
    "first_passage_times",
    "first_passage_times_reference",
]
