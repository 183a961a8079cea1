"""The synchronous rumor spreading algorithm on dynamic networks.

The synchronous push–pull algorithm proceeds in rounds ``t = 0, 1, ...``
aligned with the graph dynamics: at the beginning of round ``t`` the snapshot
``G(t)`` is exposed, every node simultaneously contacts a uniformly random
neighbour, and the rumor is exchanged based on the nodes' knowledge *at the
beginning of the round* (the paper's Section 6 relies on this convention —
"any action is allowed to be taken at the beginning of each round", which is
what makes ``Ts(G2) = n`` on the dynamic star).

The spread time ``Ts`` is the number of rounds until every node is informed.
Flooding — informed nodes informing *all* neighbours every round — is included
as the deterministic baseline used by the related work on Markovian evolving
graphs.

The engine runs on :class:`repro.graphs.csr.CsrSnapshot` arrays: one whole
round of contacts (every node's uniform neighbour draw, fault filtering and
knowledge comparison) is generated as a handful of vectorised numpy
operations over the compact node ids instead of a per-node Python loop.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Set

import numpy as np

from repro.core.faults import FaultModel
from repro.core.state import SpreadResult
from repro.dynamics.base import DynamicNetwork, SnapshotRecorder
from repro.graphs.csr import concatenated_neighbors
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_finite_positive

if TYPE_CHECKING:  # pragma: no cover - type-only (repro.api imports this module)
    from repro.api.observers import RunObserver


class SyncVariant(enum.Enum):
    """Which contacts carry the rumor in a synchronous round."""

    PUSH_PULL = "push-pull"
    PUSH = "push"
    PULL = "pull"
    FLOODING = "flooding"


def default_round_limit(n: int) -> int:
    """Default round horizon: comfortably above the universal O(n²) behaviour."""
    return 4 * n * n + 1000


class SynchronousRumorSpreading:
    """Round-based synchronous push–pull (and variants) on a dynamic network."""

    def __init__(
        self,
        variant: SyncVariant = SyncVariant.PUSH_PULL,
        faults: Optional[FaultModel] = None,
    ):
        self.variant = variant
        self.faults = faults if faults is not None else FaultModel.none()

    def run(
        self,
        network: DynamicNetwork,
        source: Optional[Hashable] = None,
        rng: RngLike = None,
        max_rounds: Optional[int] = None,
        recorder: Optional[SnapshotRecorder] = None,
        observer: Optional["RunObserver"] = None,
    ) -> SpreadResult:
        """Run the synchronous process once.

        The returned :class:`SpreadResult` has ``synchronous=True`` and its
        ``spread_time`` / ``informed_times`` count rounds: a node informed
        during round ``t`` (i.e. between exposing ``G(t)`` and ``G(t+1)``) is
        recorded at time ``t + 1``.

        ``observer`` is an optional streaming
        :class:`repro.api.observers.RunObserver`: per round it receives
        ``on_snapshot`` (the exposed ``G(t)``), one ``on_event`` per newly
        informed node (at time ``t + 1``) and ``on_round`` with the
        end-of-round informed count; ``on_complete`` fires with the final
        result.
        """
        gen = ensure_rng(rng)
        source = network.default_source() if source is None else source
        require(source in network.node_set, f"source {source!r} is not a node of the network")
        limit = default_round_limit(network.n) if max_rounds is None else max_rounds
        require_finite_positive(limit, "max_rounds")

        network.reset(gen)
        nodes = network.nodes
        n = network.n
        index_of = {label: i for i, label in enumerate(nodes)}
        source_id = index_of[source]
        drop = self.faults.drop_probability

        informed = np.zeros(n, dtype=bool)
        informed[source_id] = True
        informed_time = np.full(n, np.nan)
        informed_time[source_id] = 0.0
        informed_labels: Set[Hashable] = {source}
        events = 0

        if self.faults.has_faults:
            always_down = np.fromiter(
                (node in self.faults.crashed_nodes for node in nodes), dtype=bool, count=n
            )
            crash_round = np.full(n, np.inf)
            for node, time in self.faults.crash_times.items():
                if node in index_of:
                    crash_round[index_of[node]] = time
        else:
            always_down = np.zeros(n, dtype=bool)
            crash_round = None

        def down_mask(round_index: int) -> np.ndarray:
            if crash_round is None:
                return always_down
            return always_down | (crash_round <= float(round_index))

        round_index = 0
        down = down_mask(round_index)
        while int(np.count_nonzero(~informed & ~down)) > 0 and round_index < limit:
            snapshot = network.snapshot_for_step(round_index, informed_labels)
            if recorder is not None:
                recorder.record(network, round_index, snapshot, len(informed_labels))
            if observer is not None:
                observer.on_snapshot(round_index, snapshot, len(informed_labels))
            degrees = snapshot.degrees
            newly: Optional[np.ndarray] = None

            if self.variant is SyncVariant.FLOODING:
                speakers = np.nonzero(informed & ~down & (degrees > 0))[0]
                contacts = concatenated_neighbors(snapshot, speakers)
                open_targets = contacts[~informed[contacts] & ~down[contacts]]
                events += int(open_targets.size)
                if drop > 0 and open_targets.size:
                    open_targets = open_targets[gen.random(open_targets.size) >= drop]
                newly = open_targets
            else:
                callers = np.nonzero(~down & (degrees > 0))[0]
                events += int(callers.size)
                if callers.size:
                    draws = gen.random(callers.size)
                    offsets = (draws * degrees[callers]).astype(np.int64)
                    callees = snapshot.indices[snapshot.indptr[callers] + offsets]
                    viable = ~down[callees]
                    if drop > 0:
                        viable &= gen.random(callers.size) >= drop
                    caller_knows = informed[callers]
                    callee_knows = informed[callees]
                    crossing = viable & (caller_knows != callee_knows)
                    if self.variant is SyncVariant.PUSH:
                        newly = callees[crossing & caller_knows]
                    elif self.variant is SyncVariant.PULL:
                        newly = callers[crossing & callee_knows]
                    else:  # push-pull: the rumor moves whichever direction works.
                        newly = np.where(caller_knows, callees, callers)[crossing]

            round_index += 1
            if newly is not None and newly.size:
                fresh = np.unique(newly[~informed[newly]])
                if fresh.size:
                    informed[fresh] = True
                    informed_time[fresh] = float(round_index)
                    if observer is None:
                        informed_labels.update(nodes[int(i)] for i in fresh)
                    else:
                        for i in fresh:
                            informed_labels.add(nodes[int(i)])
                            observer.on_event(
                                float(round_index), nodes[int(i)], len(informed_labels)
                            )
            if observer is not None:
                observer.on_round(round_index, len(informed_labels))
            down = down_mask(round_index)

        completed = int(np.count_nonzero(~informed & ~down)) == 0
        informed_ids = np.nonzero(informed)[0]
        informed_times: Dict[Hashable, float] = {
            nodes[int(i)]: float(informed_time[int(i)]) for i in informed_ids
        }
        spread_time = max(informed_times.values()) if completed else math.inf
        result = SpreadResult(
            spread_time=spread_time,
            informed_times=informed_times,
            completed=completed,
            n=n,
            steps_used=round_index,
            source=source,
            synchronous=True,
            events=events,
        )
        if observer is not None:
            observer.on_complete(result)
        return result


__all__ = ["SynchronousRumorSpreading", "SyncVariant", "default_round_limit"]
