"""Unit tests for the Figure 1 dichotomy networks G1 and G2."""

import networkx as nx
import pytest

from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork


class TestCliqueBridgeNetwork:
    def test_node_set_and_source(self):
        network = CliqueBridgeNetwork(10)
        assert network.n == 11
        assert network.default_source() == 11

    def test_initial_snapshot_is_clique_with_pendant(self):
        network = CliqueBridgeNetwork(10)
        network.reset(0)
        graph = network.graph_for_step(0, frozenset({11}))
        assert graph.degree(11) == 1
        assert graph.degree(1) == 10
        assert graph.has_edge(1, 11)

    def test_later_snapshots_are_bridged_cliques(self):
        network = CliqueBridgeNetwork(10)
        network.reset(0)
        network.graph_for_step(0, frozenset({11}))
        graph = network.graph_for_step(1, frozenset({11}))
        copy = graph.copy()
        copy.remove_edge(1, 11)
        assert not nx.is_connected(copy)
        # All later snapshots are the same object (G(t) = G(1) for t >= 1).
        assert network.graph_for_step(2, frozenset({11})) is graph

    def test_csr_runs_never_build_the_networkx_twins(self, monkeypatch):
        import repro.dynamics.dichotomy as dichotomy

        def forbidden(n):
            raise AssertionError("networkx twin built on the CSR path")

        monkeypatch.setattr(dichotomy, "clique_with_pendant", forbidden)
        monkeypatch.setattr(dichotomy, "bridged_double_clique", forbidden)
        network = CliqueBridgeNetwork(10)
        network.reset(0)
        snapshots = [network.snapshot_for_step(t, frozenset({11})) for t in range(4)]
        assert snapshots[0].degree(snapshots[0].index_of[11]) == 1
        assert snapshots[1] is snapshots[2] is snapshots[3]

    def test_known_metrics_shapes(self):
        network = CliqueBridgeNetwork(16)
        first = network.known_step_metrics(0)
        later = network.known_step_metrics(3)
        assert first.conductance == pytest.approx(0.5)
        assert first.absolute_diligence == pytest.approx(1.0)
        assert later.conductance < first.conductance
        assert later.connected

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            CliqueBridgeNetwork(3)


class TestDynamicStarNetwork:
    def test_node_set_and_source(self):
        network = DynamicStarNetwork(10)
        assert network.n == 11
        assert network.default_source() == 1

    def test_initial_center_is_node_zero(self):
        network = DynamicStarNetwork(10)
        network.reset(0)
        graph = network.graph_for_step(0, frozenset({1}))
        assert graph.degree(0) == 10

    def test_center_is_always_uninformed_when_possible(self):
        network = DynamicStarNetwork(10, randomize=False)
        network.reset(0)
        network.graph_for_step(0, frozenset({1}))
        informed = frozenset({0, 1, 2, 3})
        graph = network.graph_for_step(1, informed)
        center = max(graph.degree, key=lambda item: item[1])[0]
        assert center not in informed

    def test_random_center_is_uninformed(self):
        network = DynamicStarNetwork(10, randomize=True)
        network.reset(7)
        network.graph_for_step(0, frozenset({1}))
        informed = frozenset({0, 1, 2})
        for t in range(1, 6):
            graph = network.graph_for_step(t, informed)
            center = max(graph.degree, key=lambda item: item[1])[0]
            assert center not in informed

    def test_all_informed_picks_some_center(self):
        network = DynamicStarNetwork(5)
        network.reset(3)
        network.graph_for_step(0, frozenset({1}))
        everyone = frozenset(range(6))
        graph = network.graph_for_step(1, everyone)
        center = max(graph.degree, key=lambda item: item[1])[0]
        assert center in everyone

    def test_known_metrics_are_star_metrics(self):
        metrics = DynamicStarNetwork(8).known_step_metrics(0)
        assert metrics.conductance == 1.0
        assert metrics.diligence == 1.0
        assert metrics.absolute_diligence == 1.0

    def test_every_snapshot_is_a_star(self):
        network = DynamicStarNetwork(7)
        network.reset(1)
        informed = frozenset({1})
        for t in range(4):
            graph = network.graph_for_step(t, informed)
            degrees = sorted(degree for _, degree in graph.degree())
            assert degrees == [1] * 7 + [7]
