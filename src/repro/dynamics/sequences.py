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

from typing import Callable, Hashable, List, Optional, Sequence, Union

import networkx as nx

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.metrics import EXACT_ENUMERATION_LIMIT, GraphMetrics, measure_graph
from repro.utils.validation import require


class StaticDynamicNetwork(DynamicNetwork):
    """A static graph exposed at every time step.

    Accepts either a ``networkx.Graph`` or a :class:`CsrSnapshot` (so the
    CSR-native generators feed the engines without ever building a
    dict-of-dict graph); the other representation is derived lazily on first
    use.  Precomputes the snapshot metrics once (they never change), so bound
    evaluation on small static-as-dynamic networks is cheap.
    """

    def __init__(
        self,
        graph: Union[nx.Graph, CsrSnapshot],
        precompute_metrics: bool = True,
        metrics: Optional[GraphMetrics] = None,
    ):
        if isinstance(graph, CsrSnapshot):
            self._graph: Optional[nx.Graph] = None
            self._snapshot: Optional[CsrSnapshot] = graph
            nodes = graph.nodes
        else:
            self._graph = graph.copy()
            self._snapshot = None
            nodes = list(graph.nodes())
        require(len(nodes) >= 1, "graph must have at least one node")
        super().__init__(nodes)
        self._metrics = metrics
        if metrics is None and precompute_metrics and len(nodes) <= EXACT_ENUMERATION_LIMIT:
            self._metrics = measure_graph(graph)

    def _build_step(self, t: int, informed: frozenset) -> nx.Graph:
        return self.graph

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        return self.materialise()

    def materialise(self) -> CsrSnapshot:
        """Convert to CSR now (idempotent) and return the cached snapshot.

        The cache is identity-keyed on this network object and survives
        ``reset``, so converting once in a parent process before forking
        means every worker inherits the adapter through copy-on-write
        instead of re-deriving it per sub-batch.
        """
        if self._snapshot is None:
            self._snapshot = CsrSnapshot.from_networkx(self._graph, nodes=self._nodes)
        return self._snapshot

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        return self._metrics

    @property
    def graph(self) -> nx.Graph:
        """The underlying static graph (shared, do not mutate)."""
        if self._graph is None:
            self._graph = self._snapshot.to_networkx()
        return self._graph


class ExplicitSequenceNetwork(DynamicNetwork):
    """A dynamic network given by an explicit list of snapshots.

    After the list is exhausted the network either holds the last snapshot
    (``cycle=False``, the default — matching the paper's constructions where
    ``G(t) = G(1)`` for all ``t ≥ 1``) or cycles through the list again
    (``cycle=True``).
    """

    def __init__(
        self,
        graphs: Sequence[nx.Graph],
        cycle: bool = False,
        metrics: Optional[Sequence[Optional[GraphMetrics]]] = None,
    ):
        graphs = list(graphs)
        require(len(graphs) >= 1, "need at least one snapshot")
        node_set = set(graphs[0].nodes())
        for index, graph in enumerate(graphs):
            require(
                set(graph.nodes()) == node_set,
                f"snapshot {index} has a different node set from snapshot 0",
            )
        super().__init__(list(graphs[0].nodes()))
        self._graphs = [g.copy() for g in graphs]
        self._snapshots: List[Optional[CsrSnapshot]] = [None] * len(graphs)
        self._cycle = cycle
        if metrics is not None:
            require(len(metrics) == len(graphs), "metrics must align with graphs")
            self._metrics = list(metrics)
        else:
            self._metrics = [None] * len(graphs)

    def _index_for(self, t: int) -> int:
        if t < len(self._graphs):
            return t
        if self._cycle:
            return t % len(self._graphs)
        return len(self._graphs) - 1

    def _build_step(self, t: int, informed: frozenset) -> nx.Graph:
        return self._graphs[self._index_for(t)]

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        # Per-index cache so periodic alternations keep snapshot identity
        # stable (the engines skip rate rebuilds on identical snapshots).
        index = self._index_for(t)
        if self._snapshots[index] is None:
            self._snapshots[index] = CsrSnapshot.from_networkx(
                self._graphs[index], nodes=self._nodes
            )
        return self._snapshots[index]

    def known_step_metrics(self, t: int):
        return self._metrics[self._index_for(t)]


class PeriodicSequenceNetwork(ExplicitSequenceNetwork):
    """A dynamic network cycling through a fixed list of snapshots forever."""

    def __init__(self, graphs: Sequence[nx.Graph], metrics=None):
        super().__init__(graphs, cycle=True, metrics=metrics)


class CallableDynamicNetwork(DynamicNetwork):
    """A dynamic network defined by an arbitrary oblivious function of ``t``.

    ``builder(t)`` must return a graph on exactly the declared node set.  An
    optional ``metrics(t)`` callable can supply analytic per-step metrics.
    """

    def __init__(
        self,
        nodes: Sequence[Hashable],
        builder: Callable[[int], nx.Graph],
        metrics: Optional[Callable[[int], Optional[GraphMetrics]]] = None,
    ):
        super().__init__(nodes)
        self._builder = builder
        self._metrics_fn = metrics

    def _build_step(self, t: int, informed: frozenset) -> nx.Graph:
        return self._builder(t)

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
