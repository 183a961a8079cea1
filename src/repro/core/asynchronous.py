"""The asynchronous rumor spreading algorithm on dynamic networks.

This is the process of Definition 1: every node carries an exponential clock
of rate 1 (rate 2 for the 2-push variant) and, when it rings, contacts a
uniformly random neighbour in the *current* snapshot ``G(⌊τ⌋)``; the rumor is
exchanged if at least one of the pair knows it.  Snapshots change at integer
times.

Two engines are provided; both run on the array-native
:class:`repro.graphs.csr.CsrSnapshot` representation that every
:class:`repro.dynamics.base.DynamicNetwork` emits via ``snapshot_for_step``.

**Boundary engine** (default, exact and fast).  Only contacts across the
informed/uninformed cut change the state, and the first such contact after
time ``γ`` occurs after an ``Exp(λ(γ))`` wait with
``λ(γ) = Σ_{{u,v}∈E(I,U)} (1/d_u + 1/d_v)`` (Equation (1) of the paper), the
newly informed node being chosen proportionally to its share of ``λ``.  The
engine simulates this exponential race over the cut, re-sampling (by
memorylessness) whenever a snapshot boundary or a scheduled node crash
intervenes.

Data layout: all per-node state is indexed by the compact node id of the
snapshot (position in ``network.nodes``) —

* ``rates``: ``float64[n]``, the informing rate of each uninformed node
  (0 for informed, crashed or cut-free nodes), plus its tracked sum;
* ``informed`` / ``down``: ``bool[n]`` masks;
* ``informed_time``: ``float64[n]`` (``nan`` until informed);
* an O(1) *uninformed-and-up* counter replaces any per-iteration scan for
  remaining targets.

Per informing event the work is a cumulative-sum + ``np.searchsorted``
weighted draw (O(n) vectorised, replacing the O(|U|) Python dict scan) and an
O(deg) incremental rate update over the new node's CSR neighbour slice.  Full
rate rebuilds — needed only at snapshot changes and crashes — are a single
vectorised pass over the directed edge arrays, O(n + m) with no Python loop.

**Naive engine** (reference implementation).  Simulates every clock tick of
every node, informative or not, walking CSR neighbour slices.  It is orders
of magnitude slower but is the literal transcription of Definition 1; the
test-suite checks that the two engines agree in distribution (including under
message drops and scheduled crashes).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.faults import FaultModel
from repro.core.state import SpreadResult
from repro.core.variants import Variant
from repro.dynamics.base import DynamicNetwork, SnapshotRecorder
from repro.graphs.csr import CsrSnapshot
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_finite_positive

if TYPE_CHECKING:  # pragma: no cover - type-only (repro.api imports this module)
    from repro.api.observers import RunObserver

#: Total-rate threshold below which the boundary engine treats the cut as empty.
RATE_EPSILON = 1e-15


def default_time_limit(n: int) -> float:
    """Default simulation horizon: comfortably above the universal O(n²) bound."""
    return 4.0 * n * n + 1000.0


def _initial_down_mask(faults: FaultModel, nodes: Tuple[Hashable, ...]) -> np.ndarray:
    """Boolean mask of nodes that are already down at time 0."""
    if not faults.has_faults:
        return np.zeros(len(nodes), dtype=bool)
    return np.fromiter(
        (faults.is_down(node, 0.0) for node in nodes), dtype=bool, count=len(nodes)
    )


def _pending_crashes(
    faults: FaultModel, index_of: Dict[Hashable, int]
) -> List[Tuple[float, int]]:
    """Scheduled ``(time, compact id)`` crashes, earliest first."""
    return sorted(
        (time, index_of[node])
        for node, time in faults.crash_times.items()
        if node not in faults.crashed_nodes and time > 0.0 and node in index_of
    )


class AsynchronousRumorSpreading:
    """Asynchronous push–pull (and variants) on a dynamic evolving network.

    Parameters
    ----------
    variant:
        Which contacts carry the rumor (:class:`repro.core.variants.Variant`).
    engine:
        ``"boundary"`` (exact cut-race simulation, default) or ``"naive"``
        (every clock tick, reference implementation).  Trial-batched and
        first-passage execution live in :mod:`repro.core.batched`.
    faults:
        Optional :class:`repro.core.faults.FaultModel`.
    """

    ENGINES = ("boundary", "naive")

    def __init__(
        self,
        variant: Variant = Variant.PUSH_PULL,
        engine: str = "boundary",
        faults: Optional[FaultModel] = None,
    ):
        require(engine in self.ENGINES, f"unknown engine {engine!r}")
        self.variant = variant
        self.engine = engine
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
        recorder: Optional[SnapshotRecorder] = None,
        observer: Optional["RunObserver"] = None,
    ) -> SpreadResult:
        """Run the process once and return its :class:`SpreadResult`.

        Parameters
        ----------
        network:
            The dynamic network; it is ``reset`` at the start of the run.
        source:
            The initially informed node; defaults to
            ``network.default_source()``.
        max_time:
            Simulation horizon; the run is reported as not completed if the
            rumor has not reached everyone by then.  Defaults to
            ``4 n² + 1000``.
        recorder:
            Optional :class:`SnapshotRecorder` fed every snapshot the run
            uses, for post-hoc evaluation of the paper's bounds.
        observer:
            Optional streaming :class:`repro.api.observers.RunObserver`:
            ``on_snapshot`` fires when a snapshot is exposed, ``on_event``
            when a node becomes informed, ``on_complete`` with the final
            result.
        """
        gen = ensure_rng(rng)
        source = network.default_source() if source is None else source
        require(source in network.node_set, f"source {source!r} is not a node of the network")
        limit = default_time_limit(network.n) if max_time is None else max_time
        require_finite_positive(limit, "max_time")
        if self.engine == "boundary":
            return self._run_boundary(network, source, gen, limit, recorder, observer)
        return self._run_naive(network, source, gen, limit, recorder, observer)

    # ------------------------------------------------------------------
    # boundary engine
    # ------------------------------------------------------------------

    def _build_rates(
        self,
        snapshot: CsrSnapshot,
        informed: np.ndarray,
        down: np.ndarray,
    ) -> Tuple[np.ndarray, float]:
        """Per-uninformed-node informing rates (indexed by compact id) and their sum.

        One vectorised pass over the directed edge arrays: an adjacency entry
        ``(v, u)`` contributes ``a/d_u + b/d_v`` to ``rates[v]`` exactly when
        ``u`` is informed-and-up and ``v`` is uninformed-and-up.
        """
        owner = snapshot.row_owner
        neighbour = snapshot.indices
        inv = snapshot.inverse_degrees
        crossing = (informed[neighbour] & ~down[neighbour]) & (
            ~informed[owner] & ~down[owner]
        )
        targets = owner[crossing]
        sources = neighbour[crossing]
        a, b = self.variant.rate_coefficients()
        contributions = a * inv[sources] + b * inv[targets]
        # bincount degrades to int64 zeros when no edge crosses the cut.
        rates = np.bincount(targets, weights=contributions, minlength=snapshot.n).astype(
            np.float64, copy=False
        )
        delivery = self.faults.delivery_probability()
        if delivery != 1.0:
            rates *= delivery
        return rates, float(rates.sum())

    @staticmethod
    def _choose_weighted(rates: np.ndarray, total_rate: float, gen: np.random.Generator) -> int:
        """Pick a compact id with probability proportional to ``rates``.

        Cumulative sum + ``searchsorted`` replaces the seed implementation's
        linear dict scan.  Floating-point drift between the tracked
        ``total_rate`` and the fresh cumulative sum is absorbed by clamping
        onto a positive-rate entry.
        """
        cumulative = np.cumsum(rates)
        threshold = gen.random() * total_rate
        index = int(np.searchsorted(cumulative, threshold, side="left"))
        if index >= len(rates) or rates[index] <= 0.0:
            positive = np.nonzero(rates > 0.0)[0]
            index = int(positive[-1] if index >= len(rates) else positive[0])
        return index

    def _run_boundary(
        self,
        network: DynamicNetwork,
        source: Hashable,
        gen: np.random.Generator,
        limit: float,
        recorder: Optional[SnapshotRecorder],
        observer: Optional["RunObserver"] = None,
    ) -> SpreadResult:
        network.reset(gen)
        nodes = network.nodes
        n = network.n
        index_of = {label: i for i, label in enumerate(nodes)}
        source_id = index_of[source]
        a, b = self.variant.rate_coefficients()
        delivery = self.faults.delivery_probability()

        informed = np.zeros(n, dtype=bool)
        informed[source_id] = True
        informed_time = np.full(n, np.nan)
        informed_time[source_id] = 0.0
        informed_labels = {source}
        down = _initial_down_mask(self.faults, nodes)
        pending_crashes = _pending_crashes(self.faults, index_of)
        remaining = int(np.count_nonzero(~informed & ~down))

        tau = 0.0
        step = 0
        events = 0
        snapshot = network.snapshot_for_step(step, informed_labels)
        if recorder is not None:
            recorder.record(network, step, snapshot, len(informed_labels))
        if observer is not None:
            observer.on_snapshot(step, snapshot, len(informed_labels))
        rates, total_rate = self._build_rates(snapshot, informed, down)

        while remaining > 0 and tau < limit:
            next_boundary = float(step + 1)
            next_crash_time = pending_crashes[0][0] if pending_crashes else math.inf
            horizon = min(next_boundary, next_crash_time, limit)

            advance_to_horizon = True
            if total_rate > RATE_EPSILON:
                wait = gen.exponential(1.0 / total_rate)
                if tau + wait < horizon:
                    # An informing contact happens before any interruption.
                    tau += wait
                    events += 1
                    new_id = self._choose_weighted(rates, total_rate, gen)
                    informed[new_id] = True
                    informed_time[new_id] = tau
                    informed_labels.add(nodes[new_id])
                    remaining -= 1
                    if observer is not None:
                        observer.on_event(tau, nodes[new_id], len(informed_labels))
                    total_rate -= float(rates[new_id])
                    rates[new_id] = 0.0
                    neighbours = snapshot.neighbors(new_id)
                    if neighbours.size:
                        open_targets = neighbours[
                            ~informed[neighbours] & ~down[neighbours]
                        ]
                        if open_targets.size:
                            inv = snapshot.inverse_degrees
                            extra = delivery * (a * inv[new_id] + b * inv[open_targets])
                            rates[open_targets] += extra
                            total_rate += float(extra.sum())
                    advance_to_horizon = False

            if advance_to_horizon:
                if horizon >= limit:
                    tau = limit
                    break
                tau = horizon
                if pending_crashes and math.isclose(horizon, next_crash_time):
                    _, crashed_id = pending_crashes.pop(0)
                    if not down[crashed_id]:
                        down[crashed_id] = True
                        if not informed[crashed_id]:
                            remaining -= 1
                    rates, total_rate = self._build_rates(snapshot, informed, down)
                else:
                    step += 1
                    previous_snapshot = snapshot
                    snapshot = network.snapshot_for_step(step, informed_labels)
                    if recorder is not None:
                        recorder.record(network, step, snapshot, len(informed_labels))
                    if observer is not None:
                        observer.on_snapshot(step, snapshot, len(informed_labels))
                    if snapshot is not previous_snapshot:
                        rates, total_rate = self._build_rates(snapshot, informed, down)

        completed = remaining == 0
        informed_ids = np.nonzero(informed)[0]
        informed_times = {
            nodes[int(i)]: float(informed_time[int(i)]) for i in informed_ids
        }
        spread_time = max(informed_times.values()) if completed else math.inf
        result = SpreadResult(
            spread_time=spread_time,
            informed_times=informed_times,
            completed=completed,
            n=n,
            steps_used=step + 1,
            source=source,
            synchronous=False,
            events=events,
        )
        if observer is not None:
            observer.on_complete(result)
        return result

    # ------------------------------------------------------------------
    # naive engine
    # ------------------------------------------------------------------

    def _run_naive(
        self,
        network: DynamicNetwork,
        source: Hashable,
        gen: np.random.Generator,
        limit: float,
        recorder: Optional[SnapshotRecorder],
        observer: Optional["RunObserver"] = None,
    ) -> SpreadResult:
        network.reset(gen)
        nodes = network.nodes
        n = network.n
        index_of = {label: i for i, label in enumerate(nodes)}
        source_id = index_of[source]
        per_node_rate = 2.0 if self.variant is Variant.TWO_PUSH else 1.0
        drop = self.faults.drop_probability

        informed = np.zeros(n, dtype=bool)
        informed[source_id] = True
        informed_time = np.full(n, np.nan)
        informed_time[source_id] = 0.0
        informed_labels = {source}
        down = _initial_down_mask(self.faults, nodes)
        pending_crashes = _pending_crashes(self.faults, index_of)
        remaining = int(np.count_nonzero(~informed & ~down))

        def apply_crashes(now: float) -> None:
            nonlocal remaining
            while pending_crashes and pending_crashes[0][0] <= now:
                _, crashed_id = pending_crashes.pop(0)
                if not down[crashed_id]:
                    down[crashed_id] = True
                    if not informed[crashed_id]:
                        remaining -= 1

        tau = 0.0
        step = 0
        events = 0
        snapshot = network.snapshot_for_step(step, informed_labels)
        if recorder is not None:
            recorder.record(network, step, snapshot, len(informed_labels))
        if observer is not None:
            observer.on_snapshot(step, snapshot, len(informed_labels))

        while remaining > 0 and tau < limit:
            total_rate = per_node_rate * n
            wait = gen.exponential(1.0 / total_rate)
            if tau + wait >= step + 1:
                tau = float(step + 1)
                apply_crashes(tau)
                if tau >= limit:
                    break
                step += 1
                snapshot = network.snapshot_for_step(step, informed_labels)
                if recorder is not None:
                    recorder.record(network, step, snapshot, len(informed_labels))
                if observer is not None:
                    observer.on_snapshot(step, snapshot, len(informed_labels))
                continue
            tau += wait
            apply_crashes(tau)
            events += 1
            caller = int(gen.integers(0, n))
            if down[caller]:
                continue
            neighbours = snapshot.neighbors(caller)
            if neighbours.size == 0:
                continue
            callee = int(neighbours[int(gen.integers(0, neighbours.size))])
            if down[callee]:
                continue
            if drop > 0 and gen.random() < drop:
                continue
            newly = self._exchange_ids(caller, callee, informed)
            if newly is not None:
                informed[newly] = True
                informed_time[newly] = tau
                informed_labels.add(nodes[newly])
                remaining -= 1
                if observer is not None:
                    observer.on_event(tau, nodes[newly], len(informed_labels))

        apply_crashes(tau)
        completed = remaining == 0
        informed_ids = np.nonzero(informed)[0]
        informed_times = {
            nodes[int(i)]: float(informed_time[int(i)]) for i in informed_ids
        }
        spread_time = max(informed_times.values()) if completed else math.inf
        result = SpreadResult(
            spread_time=spread_time,
            informed_times=informed_times,
            completed=completed,
            n=n,
            steps_used=step + 1,
            source=source,
            synchronous=False,
            events=events,
        )
        if observer is not None:
            observer.on_complete(result)
        return result

    def _exchange_ids(self, caller: int, callee: int, informed: np.ndarray) -> Optional[int]:
        """Return the compact id newly informed by one contact, or ``None``."""
        caller_knows = bool(informed[caller])
        callee_knows = bool(informed[callee])
        if caller_knows == callee_knows:
            return None
        if self.variant in (Variant.PUSH, Variant.TWO_PUSH):
            return callee if caller_knows else None
        if self.variant is Variant.PULL:
            return caller if callee_knows else None
        # push-pull: the rumor moves whichever direction is possible.
        return callee if caller_knows else caller


__all__ = ["AsynchronousRumorSpreading", "default_time_limit"]
