"""Oblivious dynamic networks built from pre-specified snapshots.

These are the simplest instances of the model: the snapshot at step ``t`` does
not depend on the informed set.  They cover

* a static graph viewed as a dynamic network (every snapshot identical) —
  the setting of the classical static results the paper compares against;
* an explicit finite sequence of snapshots, either held at the last graph or
  cycled;
* a periodic alternation of snapshots (used by the Section 1.2 example where
  3-regular graphs alternate with complete graphs);
* an arbitrary callable ``t -> graph`` for bespoke oblivious adversaries.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot, GraphLike
from repro.graphs.metrics import EXACT_ENUMERATION_LIMIT, GraphMetrics, measure_graph
from repro.utils.validation import require


class StaticDynamicNetwork(DynamicNetwork):
    """A static graph exposed at every time step.

    Accepts either a ``networkx.Graph`` (converted to CSR once, here) or a
    :class:`CsrSnapshot`, and returns that one snapshot at every step.
    Precomputes the snapshot metrics once (they never change), so bound
    evaluation on small static-as-dynamic networks is cheap.
    """

    def __init__(
        self,
        graph: GraphLike,
        precompute_metrics: bool = True,
        metrics: Optional[GraphMetrics] = None,
    ):
        snapshot = graph if isinstance(graph, CsrSnapshot) else CsrSnapshot.from_networkx(
            graph, cache_graph=False
        )
        require(snapshot.n >= 1, "graph must have at least one node")
        super().__init__(snapshot.nodes)
        self._snapshot = snapshot
        self._metrics = metrics
        if metrics is None and precompute_metrics and snapshot.n <= EXACT_ENUMERATION_LIMIT:
            self._metrics = measure_graph(snapshot)

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        return self._snapshot

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        return self._metrics


class ExplicitSequenceNetwork(DynamicNetwork):
    """A dynamic network given by an explicit list of snapshots.

    Snapshots may be ``networkx.Graph`` or :class:`CsrSnapshot` objects; all
    are held as CSR in snapshot 0's node order.  After the list is exhausted
    the network either holds the last snapshot (``cycle=False``, the default
    — matching the paper's constructions where ``G(t) = G(1)`` for all
    ``t ≥ 1``) or cycles through the list again (``cycle=True``).
    """

    def __init__(
        self,
        graphs: Sequence[GraphLike],
        cycle: bool = False,
        metrics: Optional[Sequence[Optional[GraphMetrics]]] = None,
    ):
        graphs = list(graphs)
        require(len(graphs) >= 1, "need at least one snapshot")
        first = graphs[0]
        super().__init__(first.nodes if isinstance(first, CsrSnapshot) else list(first.nodes()))
        # One snapshot object per index: periodic alternations repeat the same
        # objects, so the engines skip rate rebuilds on them.
        self._snapshots: List[CsrSnapshot] = []
        for index, graph in enumerate(graphs):
            labels = graph.nodes if isinstance(graph, CsrSnapshot) else graph.nodes()
            require(
                set(labels) == self.node_set,
                f"snapshot {index} has a different node set from snapshot 0",
            )
            if not isinstance(graph, CsrSnapshot):
                graph = CsrSnapshot.from_networkx(graph, nodes=self.nodes, cache_graph=False)
            require(
                graph.nodes == self.nodes,
                f"snapshot {index} lists its nodes in a different order from snapshot 0",
            )
            self._snapshots.append(graph)
        self._cycle = cycle
        if metrics is not None:
            require(len(metrics) == len(graphs), "metrics must align with graphs")
            self._metrics = list(metrics)
        else:
            self._metrics = [None] * len(graphs)

    def _index_for(self, t: int) -> int:
        if t < len(self._snapshots):
            return t
        if self._cycle:
            return t % len(self._snapshots)
        return len(self._snapshots) - 1

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        return self._snapshots[self._index_for(t)]

    def known_step_metrics(self, t: int):
        return self._metrics[self._index_for(t)]


class PeriodicSequenceNetwork(ExplicitSequenceNetwork):
    """A dynamic network cycling through a fixed list of snapshots forever."""

    def __init__(self, graphs: Sequence[GraphLike], metrics=None):
        super().__init__(graphs, cycle=True, metrics=metrics)


class CallableDynamicNetwork(DynamicNetwork):
    """A dynamic network defined by an arbitrary oblivious function of ``t``.

    ``builder(t)`` must return a graph on exactly the declared node set,
    either a :class:`CsrSnapshot` (re-indexed onto the declared node order
    when its own order differs) or a ``networkx.Graph`` (converted each step).
    An optional ``metrics(t)`` callable can supply analytic per-step metrics.
    """

    def __init__(
        self,
        nodes: Sequence[Hashable],
        builder: Callable[[int], GraphLike],
        metrics: Optional[Callable[[int], Optional[GraphMetrics]]] = None,
    ):
        super().__init__(nodes)
        self._builder = builder
        self._metrics_fn = metrics

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        graph = self._builder(t)
        if isinstance(graph, CsrSnapshot):
            return graph.reordered(self._nodes)
        return CsrSnapshot.from_networkx(graph, nodes=self._nodes)

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        if self._metrics_fn is None:
            return None
        return self._metrics_fn(t)


__all__ = [
    "CallableDynamicNetwork",
    "ExplicitSequenceNetwork",
    "PeriodicSequenceNetwork",
    "StaticDynamicNetwork",
]
