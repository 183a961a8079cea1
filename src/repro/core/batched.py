"""Trial-batched asynchronous engine: many boundary races in one numpy sweep.

``engine="batched"`` runs ``T`` independent trials of the boundary race of
Definition 1 *simultaneously*, as a handful of ``(trials, n)`` or
``(trials, m)`` array operations instead of ``T`` Python event loops.  It
produces the same :class:`repro.core.state.SpreadResult` objects as
:class:`repro.core.asynchronous.AsynchronousRumorSpreading` and matches the
boundary engine *in distribution* (individual trial results
differ from the serial engines for a fixed seed while every statistic
agrees; the test-suite checks agreement including drop and crash faults).

Randomness is organised as **one spawned generator per trial**
(:func:`repro.utils.rng.spawn_rngs`), and every trial's draw counts are a
deterministic function of that trial's own state — never of the batch
layout.  Consequence: running trials ``[0..T)`` in one batch, or as any
contiguous sharding of sub-batches fed the same spawned generators (see
``run_batch``'s ``generators`` parameter and
``repro.api._exec.execute_batched``), produces bit-identical results, which
is what lets ``workers=k`` shard the trial axis across the fork pool.

Two execution paths, chosen per batch by the input alone:

**Complete-graph closed form** (complete snapshots).  On a clique every
informed/uninformed pair contributes the same rate ``delivery·(a+b)/(n-1)``,
so with ``m`` eligible (up, uninformed) nodes the wait before the ``j``-th
informing event is ``Exp(λ_j)`` with ``λ_j = c·j·(m-j+1)`` and the informing
order is a uniform random permutation of the eligible nodes.  Used whenever
the snapshot is complete, the source is up and no crash is *scheduled*
(initially-down nodes are fine — they only shrink ``m``; degrees still count
them).

**First-passage percolation** (every other case).  The race is *exactly*
equivalent in distribution to single-source shortest paths under
independent ``Exp(rate)`` delays on the directed adjacency entries — see
:mod:`repro.core.percolation` for the argument, including why drop faults
(rate scaling), scheduled crashes (per-entry clips) and the time horizon
(monotone censoring) all stay exact.
The trial axis streams through in blocks of
``max(1, BLOCK_DELAY_ENTRIES // m)`` trials: each block draws its
``(block, m)`` exponential delays (every row from that trial's own
generator), one vectorised frontier relaxation solves it, and its rows are
consumed before the next block is drawn.  That replaces the entire event
loop while bounding memory by the block, not by ``T·m``.

Two terminals share the validation, the generators and both paths.
``run_batch`` builds one :class:`SpreadResult` (with an ``n``-entry
``informed_times`` dict) per trial; ``spread_times`` returns only the
float64 spread-time column that a many-trial ``collect()`` keeps.  It
reduces each solved block to its row maxima (the clique closed form takes
the last cumulative time), so it holds one block plus ``T`` floats, and
since a maximum is exact its values are bit-identical to ``run_batch``'s.

Because all trials share one network realisation, the engine requires a
:class:`repro.dynamics.sequences.StaticDynamicNetwork` — snapshot changes at
integer times would need per-trial rebuilds, erasing the batching win.  For
static snapshots, skipping the integer boundaries entirely is exact: the
boundary engine's re-sampling there is a no-op by memorylessness.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.asynchronous import (
    _initial_down_mask,
    _pending_crashes,
    default_time_limit,
)
from repro.core.faults import FaultModel
from repro.core.percolation import entry_transmission_rates, first_passage_times
from repro.core.state import SpreadResult
from repro.core.variants import Variant
from repro.dynamics.base import DynamicNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import require, require_finite_positive, require_node_count

#: Delay entries drawn and solved at once on the percolation path: the trial
#: axis streams through in blocks of ``max(1, BLOCK_DELAY_ENTRIES // m)``
#: trials (8 on G(10⁴, 2 ln n/n), 1 on G(10⁵, ·)), which bounds the delay
#: matrix and the solver's per-position temporaries.
BLOCK_DELAY_ENTRIES = 1_500_000


def batched_supported(network: DynamicNetwork) -> Optional[str]:
    """Return ``None`` when the batched engine can run ``network``, else why not.

    The single eligibility rule shared by ``engine="batched"`` (where a
    non-``None`` reason becomes a ``ValueError``) and ``engine="auto"``
    (where it falls back to the boundary engine).
    """
    if not isinstance(network, StaticDynamicNetwork):
        return (
            "engine='batched' requires a static network (the batch shares one "
            f"snapshot across all trials); got {type(network).__name__}"
        )
    return None


def _steps_used(completed: bool, spread_time: float, limit: float) -> int:
    """Snapshot count matching the boundary engine's integer-boundary walk."""
    if completed:
        return int(math.floor(spread_time)) + 1
    return int(limit) if float(limit).is_integer() else int(math.ceil(limit))


class BatchedRumorSpreading:
    """Asynchronous push–pull (and variants) batched over many trials.

    Parameters
    ----------
    variant:
        Which contacts carry the rumor (:class:`repro.core.variants.Variant`);
        enters only through its rate coefficients, so every variant the
        boundary engine supports is supported here.
    faults:
        Optional :class:`repro.core.faults.FaultModel`.  Message drops scale
        every rate; initially-crashed nodes are masked out; scheduled crashes
        clip percolation entries.
    """

    def __init__(
        self,
        variant: Variant = Variant.PUSH_PULL,
        faults: Optional[FaultModel] = None,
    ):
        self.variant = variant
        self.faults = faults if faults is not None else FaultModel.none()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        network: DynamicNetwork,
        source: Optional[Hashable] = None,
        rng: RngLike = None,
        max_time: Optional[float] = None,
        recorder=None,
        observer=None,
    ) -> SpreadResult:
        """Run a single trial (the batch engine's process-protocol adapter).

        Streaming hooks are incompatible with batching — per-event callbacks
        would serialise exactly the loop the engine vectorises away — so
        ``recorder`` / ``observer`` must be ``None``.
        """
        require(
            recorder is None and observer is None,
            "engine='batched' does not support recorders or observers; "
            "use engine='boundary' for streaming hooks",
        )
        return self.run_batch(network, 1, source=source, rng=rng, max_time=max_time)[0]

    def run_batch(
        self,
        network: DynamicNetwork,
        trials: int,
        source: Optional[Hashable] = None,
        rng: RngLike = None,
        max_time: Optional[float] = None,
        generators: Optional[Sequence[np.random.Generator]] = None,
    ) -> List[SpreadResult]:
        """Run ``trials`` independent trials on one network realisation.

        Every trial starts from the same ``source`` on the same static
        snapshot and shares the crash schedule; the randomness of the races
        is independent across trials, driven by one spawned generator per
        trial.  ``generators`` overrides the spawn: passing
        ``spawn_rngs(rng, total)[lo:hi]`` for a contiguous span reproduces
        exactly trials ``lo..hi`` of the unsharded batch — the contract
        ``execute_batched`` relies on to split a batch across workers.
        Returns one :class:`SpreadResult` per trial, in trial order.
        """
        return self._solve(network, trials, source, rng, max_time, generators, column=False)

    def spread_times(
        self,
        network: DynamicNetwork,
        trials: int,
        source: Optional[Hashable] = None,
        rng: RngLike = None,
        max_time: Optional[float] = None,
        generators: Optional[Sequence[np.random.Generator]] = None,
    ) -> np.ndarray:
        """``[r.spread_time for r in run_batch(...)]`` as a float64 array.

        Same arguments, draws and values (``inf`` for a trial that does not
        complete), without building any :class:`SpreadResult`.
        """
        return self._solve(network, trials, source, rng, max_time, generators, column=True)

    def _solve(self, network, trials, source, rng, max_time, generators, column):
        require_node_count(trials, minimum=1, name="trials")
        reason = batched_supported(network)
        require(reason is None, reason or "")
        if generators is not None:
            gens = list(generators)
            require(
                len(gens) == trials,
                f"generators must supply one generator per trial "
                f"({trials}), got {len(gens)}",
            )
        else:
            gens = spawn_rngs(rng, trials)
        source = network.default_source() if source is None else source
        require(source in network.node_set, f"source {source!r} is not a node of the network")
        limit = default_time_limit(network.n) if max_time is None else max_time
        require_finite_positive(limit, "max_time")

        network.reset(None)
        nodes = network.nodes
        index_of = {label: i for i, label in enumerate(nodes)}
        source_id = index_of[source]
        snapshot = network.snapshot_for_step(0, {source})
        down = _initial_down_mask(self.faults, nodes)
        pending = _pending_crashes(self.faults, index_of)

        n = snapshot.n
        is_complete = snapshot.indices.size == n * (n - 1)
        if is_complete and not pending and not down[source_id]:
            return self._run_clique_batch(
                snapshot, nodes, source_id, down, gens, limit, column
            )
        return self._run_percolation_batch(
            snapshot, nodes, source_id, down, pending, gens, limit, column
        )

    # ------------------------------------------------------------------
    # complete-graph closed form
    # ------------------------------------------------------------------

    def _run_clique_batch(
        self,
        snapshot: CsrSnapshot,
        nodes: Tuple[Hashable, ...],
        source_id: int,
        down: np.ndarray,
        gens: List[np.random.Generator],
        limit: float,
        column: bool,
    ) -> Union[np.ndarray, List[SpreadResult]]:
        n = snapshot.n
        trials = len(gens)
        a, b = self.variant.rate_coefficients()
        delivery = self.faults.delivery_probability()
        eligible = np.nonzero(~down)[0]
        eligible = eligible[eligible != source_id]
        m = int(eligible.size)
        if m == 0 or delivery <= 0.0:
            # Nothing to inform (or nothing can ever be delivered).
            completed = m == 0
            if column:
                return np.full(trials, 0.0 if completed else math.inf)
            return [
                self._build_result(
                    nodes,
                    source_id,
                    np.empty(0, dtype=np.int64),
                    np.empty(0),
                    completed,
                    limit,
                )
                for _ in range(trials)
            ]

        # Stage rates: before the j-th informing event (j = 1..m) there are j
        # informed and m - j + 1 eligible uninformed nodes, every cross pair
        # contributing delivery·(a+b)/(n-1).
        stage = np.arange(1, m + 1, dtype=np.float64)
        rate = (delivery * (a + b) / (n - 1)) * stage * (m - stage + 1.0)
        waits = np.empty((trials, m))
        order = np.empty((trials, m), dtype=np.int64)
        for t, gen in enumerate(gens):
            waits[t] = gen.standard_exponential(m)
            order[t] = gen.permutation(eligible)
        waits /= rate[None, :]
        times = np.cumsum(waits, axis=1)

        event_counts = (times < limit).sum(axis=1)
        if column:
            # Cumulative times never decrease: the last one is the maximum.
            return np.where(event_counts == m, times[:, -1], math.inf)
        results = []
        for t in range(trials):
            k = int(event_counts[t])
            results.append(
                self._build_result(
                    nodes, source_id, order[t, :k], times[t, :k], k == m, limit
                )
            )
        return results

    # ------------------------------------------------------------------
    # first-passage percolation path (default for general static graphs)
    # ------------------------------------------------------------------

    def _run_percolation_batch(
        self,
        snapshot: CsrSnapshot,
        nodes: Tuple[Hashable, ...],
        source_id: int,
        down: np.ndarray,
        pending: List[Tuple[float, int]],
        gens: List[np.random.Generator],
        limit: float,
        column: bool,
    ) -> Union[np.ndarray, List[SpreadResult]]:
        n = snapshot.n
        trials = len(gens)
        a, b = self.variant.rate_coefficients()
        delivery = self.faults.delivery_probability()
        m = int(snapshot.indices.size)

        rates = entry_transmission_rates(snapshot, a, b, delivery)
        unusable = None
        if down.any():
            unusable = down[snapshot.row_owner] | down[snapshot.indices]

        theta = np.full(n, np.inf)
        for time, node_id in pending:
            theta[node_id] = min(theta[node_id], time)
        clip = None
        if pending and m:
            clip = np.minimum(theta[snapshot.row_owner], theta[snapshot.indices])

        # A trial is complete when every node is informed or excused: down
        # from the start, or scheduled to crash strictly inside the horizon
        # (the event engines drop such nodes from `remaining` at the crash
        # boundary).
        excused = down | (theta < limit)
        block = max(1, BLOCK_DELAY_ENTRIES // max(m, 1))
        buffer = np.empty((min(block, trials), m))
        out = np.empty(trials) if column else []
        for lo in range(0, trials, block):
            delays = buffer[: min(block, trials - lo)]
            for row, gen in zip(delays, gens[lo : lo + block]):
                gen.standard_exponential(out=row)
            if delivery <= 0.0:
                delays[:] = np.inf
            else:
                delays /= rates
            if unusable is not None:
                delays[:, unusable] = np.inf
            times = first_passage_times(
                snapshot.indptr,
                snapshot.indices,
                snapshot.degrees,
                delays,
                source_id,
                clip=clip,
                limit=limit,
            )
            informed = np.isfinite(times)
            completed = (informed | excused).all(axis=1)
            if column:
                spread = times.max(axis=1, where=informed, initial=0.0)
                out[lo : lo + len(delays)] = np.where(completed, spread, math.inf)
                continue
            informed[:, source_id] = False
            for row, mask, done in zip(times, informed, completed):
                ids = np.flatnonzero(mask)
                out.append(
                    self._build_result(nodes, source_id, ids, row[ids], bool(done), limit)
                )
        return out

    # ------------------------------------------------------------------
    # result construction
    # ------------------------------------------------------------------

    @staticmethod
    def _build_result(
        nodes: Tuple[Hashable, ...],
        source_id: int,
        informed_ids: np.ndarray,
        informed_at: np.ndarray,
        completed: bool,
        limit: float,
    ) -> SpreadResult:
        informed_times = {nodes[source_id]: 0.0}
        informed_times.update(
            zip(map(nodes.__getitem__, informed_ids.tolist()), informed_at.tolist())
        )
        spread_time = float(informed_at.max(initial=0.0)) if completed else math.inf
        return SpreadResult(
            spread_time=spread_time,
            informed_times=informed_times,
            completed=completed,
            n=len(nodes),
            steps_used=_steps_used(completed, spread_time, limit),
            source=nodes[source_id],
            synchronous=False,
            events=len(informed_times) - 1,
        )


__all__ = [
    "BatchedRumorSpreading",
    "batched_supported",
]
