"""The dynamic evolving network interface.

A *dynamic evolving network* is a sequence of simple graphs over a fixed node
set, one exposed per discrete time step ``t = 0, 1, ...`` (Definition 1 of the
paper).  Crucially, the adversary producing snapshot ``G(t)`` may look at the
set of informed nodes at the beginning of step ``t`` — the paper's lower-bound
constructions (Sections 4, 5.1 and 6) all do.  The interface therefore hands
the informed set to :meth:`DynamicNetwork.snapshot_for_step`, which returns
``G(t)`` as a :class:`repro.graphs.csr.CsrSnapshot`.

Simulators drive a network like this::

    network.reset(rng)
    g0 = network.snapshot_for_step(0, informed)
    ... simulate continuous time in [0, 1) on g0 ...
    g1 = network.snapshot_for_step(1, informed)
    ... and so on ...

``reset`` must be called before each independent run; ``snapshot_for_step``
must be called with strictly increasing ``t`` within a run (adaptive
constructions keep per-run state such as "re-use the previous snapshot").  A
network that keeps its snapshot across steps returns the same object, which
lets the engines skip rebuilding their contact rates.

``reset(rng)`` carries all per-run state: subclasses clear and re-seed it in
``_on_reset``, and construction holds only what every run shares.  A network
built once and reset before each run therefore yields the same snapshots as
a freshly built one, which is how a scenario point builds its network once
and reuses it for all of its trials.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import groupby
from typing import AbstractSet, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CsrSnapshot
from repro.graphs.metrics import GraphMetrics, measure_graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require


class DynamicNetwork(ABC):
    """Abstract base class for dynamic evolving networks.

    Subclasses implement :meth:`_build_snapshot_step`, which returns snapshot
    ``G(t)`` in CSR form with compact ids in :attr:`nodes` order.  The base
    class enforces the call protocol (reset before use, increasing time steps)
    and the node order, and offers optional analytic metrics for the bounds of
    Theorems 1.1 and 1.3.
    """

    def __init__(self, nodes: Sequence[Hashable]):
        nodes = tuple(nodes)
        require(len(nodes) >= 1, "a dynamic network needs at least one node")
        node_set = frozenset(nodes)
        require(len(node_set) == len(nodes), "node labels must be distinct")
        self._nodes: Tuple[Hashable, ...] = nodes
        self._node_set: FrozenSet[Hashable] = node_set
        self._last_step: Optional[int] = None
        self._was_reset = False

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        """The fixed node set shared by every snapshot."""
        return self._nodes

    @property
    def node_set(self) -> FrozenSet[Hashable]:
        """The node labels as a cached frozenset (for O(1) membership tests)."""
        return self._node_set

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def default_source(self) -> Hashable:
        """The node the construction intends to start the rumor at.

        Defaults to the first node; lower-bound constructions override this
        (e.g. the pendant node of ``G1``, a leaf of the dynamic star, a node
        of part ``A`` for the Theorem 1.2 family).
        """
        return self._nodes[0]

    # -- run protocol ------------------------------------------------------

    def reset(self, rng: RngLike = None) -> None:
        """Prepare the network for a fresh, independent run."""
        self._last_step = None
        self._was_reset = True
        self._on_reset(ensure_rng(rng))

    def _on_reset(self, rng) -> None:
        """Hook for subclasses to clear per-run state; default does nothing."""

    def _advance_step(self, t: int) -> None:
        """Enforce the snapshot call protocol (reset first, increasing ``t``)."""
        require(self._was_reset, "call reset() before requesting snapshots")
        require(isinstance(t, int) and t >= 0, f"t must be a non-negative integer, got {t!r}")
        if self._last_step is not None:
            require(
                t > self._last_step,
                f"snapshot_for_step must be called with increasing t "
                f"(got {t} after {self._last_step})",
            )
        self._last_step = t

    def snapshot_for_step(self, t: int, informed: AbstractSet[Hashable]) -> CsrSnapshot:
        """Return the snapshot ``G(t)`` governing the interval ``[t, t+1)``.

        ``informed`` is the set of informed nodes at the beginning of step
        ``t``; oblivious networks ignore it, adaptive ones may not.  Compact
        ids follow :attr:`nodes` order, so they are stable across all
        snapshots of a run.
        """
        self._advance_step(t)
        snapshot = self._build_snapshot_step(t, frozenset(informed))
        # Engines index per-node state by position in self._nodes, so the
        # snapshot's node order (not just its count) must match exactly.
        require(
            snapshot.nodes is self._nodes or snapshot.nodes == self._nodes,
            "snapshot node order differs from the dynamic network's node tuple",
        )
        return snapshot

    @abstractmethod
    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        """Build (or retrieve) the CSR snapshot for step ``t``."""

    # -- analytic metrics ----------------------------------------------------

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        """Analytic ``(Φ, ρ, ρ̄)`` of snapshot ``t``, if the construction knows them.

        Returns ``None`` when no closed form is available, in which case the
        bounds fall back to measuring the recorded snapshots.
        """
        return None


@dataclass(frozen=True)
class RecordedStep:
    """One snapshot observed during a run, with its measured metrics."""

    t: int
    metrics: GraphMetrics
    informed_count: int


class SnapshotRecorder:
    """Records per-step metrics of the snapshots a simulator actually used.

    The upper bounds ``T(G, c)`` and ``T_abs(G)`` are defined on the realised
    sequence of snapshots; for adaptive constructions that sequence depends on
    the run.  Simulators accept an optional recorder and feed it every
    snapshot, so bound evaluation can be done post hoc on exactly the graphs
    the rumor traversed.
    """

    #: Accepted measurement modes: "full" computes conductance and diligence
    #: (exact or estimated) for snapshots without analytic metrics; "cheap"
    #: only computes connectivity and absolute diligence (sufficient for the
    #: Theorem 1.3 bound and orders of magnitude faster on large snapshots).
    MODES = ("full", "cheap")

    def __init__(
        self,
        mode: str = "full",
        prefer_known: bool = True,
        sampled_cuts: int = 100,
        track_degrees: bool = True,
        rng: RngLike = None,
    ):
        require(mode in self.MODES, f"mode must be one of {self.MODES}, got {mode!r}")
        self._mode = mode
        self._prefer_known = prefer_known
        self._sampled_cuts = sampled_cuts
        self._track_degrees = track_degrees
        self._rng = ensure_rng(rng)
        self.steps: List[RecordedStep] = []
        # One (node labels, degree array) pair per recorded step.
        self._degree_rows: List[Tuple[Tuple[Hashable, ...], np.ndarray]] = []

    def record(
        self,
        network: DynamicNetwork,
        t: int,
        snapshot: CsrSnapshot,
        informed_count: int,
    ) -> None:
        """Record ``snapshot``, the graph used at step ``t``."""
        metrics: Optional[GraphMetrics] = None
        if self._prefer_known:
            metrics = network.known_step_metrics(t)
        if metrics is None and self._mode == "full":
            metrics = measure_graph(snapshot, sampled_cuts=self._sampled_cuts, rng=self._rng)
        if metrics is None:
            # Cheap record: only the quantities Theorem 1.3 needs.
            metrics = GraphMetrics(
                conductance=float("nan"),
                diligence=float("nan"),
                absolute_diligence=snapshot.absolute_diligence(),
                connected=snapshot.is_connected(),
                n=snapshot.n,
                exact=False,
            )
        self.steps.append(RecordedStep(t=t, metrics=metrics, informed_count=informed_count))
        if self._track_degrees:
            self._degree_rows.append((snapshot.nodes, snapshot.degrees))

    @property
    def degree_history(self) -> Dict[Hashable, List[int]]:
        """Each node's degree at every recorded step, in step order.

        Built when read from the stored degree arrays; consecutive steps over
        the same node tuple are stacked and converted as one block.
        """
        history: Dict[Hashable, List[int]] = {}
        for nodes, rows in groupby(self._degree_rows, key=lambda row: row[0]):
            columns = np.stack([degrees for _, degrees in rows], axis=1).tolist()
            for node, column in zip(nodes, columns):
                history.setdefault(node, []).extend(column)
        return history

    def conductance_series(self) -> List[float]:
        """Per-step conductance values in step order."""
        return [step.metrics.conductance for step in self.steps]

    def diligence_series(self) -> List[float]:
        """Per-step diligence values in step order."""
        return [step.metrics.diligence for step in self.steps]

    def absolute_diligence_series(self) -> List[float]:
        """Per-step absolute diligence values in step order."""
        return [step.metrics.absolute_diligence for step in self.steps]

    def connectivity_series(self) -> List[int]:
        """Per-step ``⌈Φ⌉`` indicators (1 when connected, else 0)."""
        return [step.metrics.conductance_indicator() for step in self.steps]


__all__ = ["DynamicNetwork", "RecordedStep", "SnapshotRecorder"]
