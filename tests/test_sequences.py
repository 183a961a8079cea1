"""Unit tests for the oblivious dynamic network wrappers."""

import networkx as nx
import pytest

from repro.dynamics.sequences import (
    CallableDynamicNetwork,
    ExplicitSequenceNetwork,
    PeriodicSequenceNetwork,
    StaticDynamicNetwork,
)
from repro.graphs.generators import clique, cycle, erdos_renyi_csr, path, path_csr, star
from repro.graphs.metrics import EXACT_ENUMERATION_LIMIT, GraphMetrics


class TestStaticDynamicNetwork:
    def test_every_step_returns_the_same_graph(self):
        network = StaticDynamicNetwork(cycle(range(6)))
        network.reset(0)
        graphs = [network.graph_for_step(t, frozenset()) for t in range(3)]
        assert graphs[0] is graphs[1] is graphs[2]

    def test_small_graph_metrics_are_precomputed(self):
        network = StaticDynamicNetwork(star(0, range(1, 6)))
        metrics = network.known_step_metrics(0)
        assert metrics is not None
        assert metrics.conductance == pytest.approx(1.0)

    def test_explicit_metrics_override(self):
        metrics = GraphMetrics(
            conductance=0.1, diligence=0.2, absolute_diligence=0.3, connected=True, n=6
        )
        network = StaticDynamicNetwork(cycle(range(6)), metrics=metrics)
        assert network.known_step_metrics(5) is metrics

    def test_large_graph_metrics_not_precomputed(self):
        network = StaticDynamicNetwork(clique(range(30)))
        assert network.known_step_metrics(0) is None

    def test_precompute_follows_the_exact_enumeration_limit(self, monkeypatch):
        assert StaticDynamicNetwork(path(range(EXACT_ENUMERATION_LIMIT))).known_step_metrics(0)
        assert StaticDynamicNetwork(path(range(EXACT_ENUMERATION_LIMIT + 1))).known_step_metrics(0) is None
        monkeypatch.setattr("repro.dynamics.sequences.EXACT_ENUMERATION_LIMIT", 5)
        assert StaticDynamicNetwork(star(0, range(1, 6))).known_step_metrics(0) is None

    @pytest.mark.parametrize("n", [2, 5, 11, EXACT_ENUMERATION_LIMIT, EXACT_ENUMERATION_LIMIT + 1])
    def test_csr_and_networkx_input_know_the_same_metrics(self, n):
        for snapshot in (path_csr(range(n)), erdos_renyi_csr(n, 0.5, rng=n)):
            from_csr = StaticDynamicNetwork(snapshot).known_step_metrics(0)
            from_nx = StaticDynamicNetwork(snapshot.to_networkx()).known_step_metrics(0)
            assert from_csr == from_nx
            assert (from_csr is None) == (n > EXACT_ENUMERATION_LIMIT)

    def test_input_graph_is_copied(self):
        graph = path(range(5))
        network = StaticDynamicNetwork(graph)
        graph.add_edge(0, 4)
        network.reset(0)
        assert not network.graph_for_step(0, frozenset()).has_edge(0, 4)


class TestExplicitSequenceNetwork:
    def test_holds_last_snapshot_by_default(self):
        graphs = [path(range(4)), cycle(range(4))]
        network = ExplicitSequenceNetwork(graphs)
        network.reset(0)
        assert network.graph_for_step(0, frozenset()).number_of_edges() == 3
        assert network.graph_for_step(1, frozenset()).number_of_edges() == 4
        assert network.graph_for_step(7, frozenset()).number_of_edges() == 4

    def test_cycle_mode_wraps_around(self):
        graphs = [path(range(4)), cycle(range(4))]
        network = ExplicitSequenceNetwork(graphs, cycle=True)
        network.reset(0)
        assert network.graph_for_step(2, frozenset()).number_of_edges() == 3
        assert network.graph_for_step(3, frozenset()).number_of_edges() == 4

    def test_rejects_mismatched_node_sets(self):
        with pytest.raises(ValueError):
            ExplicitSequenceNetwork([path(range(4)), path(range(5))])

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            ExplicitSequenceNetwork([])

    def test_metrics_align_with_snapshots(self):
        metrics = [
            GraphMetrics(conductance=0.5, diligence=1.0, absolute_diligence=0.5, connected=True, n=4),
            None,
        ]
        network = ExplicitSequenceNetwork([path(range(4)), cycle(range(4))], metrics=metrics)
        assert network.known_step_metrics(0).conductance == 0.5
        assert network.known_step_metrics(1) is None
        assert network.known_step_metrics(9) is None

    def test_metrics_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExplicitSequenceNetwork([path(range(4))], metrics=[None, None])


class TestPeriodicSequenceNetwork:
    def test_alternation(self):
        network = PeriodicSequenceNetwork([path(range(4)), cycle(range(4))])
        network.reset(0)
        edge_counts = [
            network.graph_for_step(t, frozenset()).number_of_edges() for t in range(4)
        ]
        assert edge_counts == [3, 4, 3, 4]


class TestCallableDynamicNetwork:
    def test_builder_receives_step_index(self):
        def builder(t):
            graph = path(range(5))
            if t % 2 == 1:
                graph.add_edge(0, 4)
            return graph

        network = CallableDynamicNetwork(list(range(5)), builder)
        network.reset(0)
        assert not network.graph_for_step(0, frozenset()).has_edge(0, 4)
        assert network.graph_for_step(1, frozenset()).has_edge(0, 4)

    def test_metrics_callable(self):
        metrics = GraphMetrics(
            conductance=0.25, diligence=1.0, absolute_diligence=0.5, connected=True, n=5
        )
        network = CallableDynamicNetwork(
            list(range(5)), lambda t: path(range(5)), metrics=lambda t: metrics if t == 0 else None
        )
        assert network.known_step_metrics(0) is metrics
        assert network.known_step_metrics(1) is None

    def test_wrong_node_set_from_builder_is_caught(self):
        network = CallableDynamicNetwork(list(range(5)), lambda t: path(range(6)))
        network.reset(0)
        with pytest.raises(ValueError):
            network.graph_for_step(0, frozenset())
