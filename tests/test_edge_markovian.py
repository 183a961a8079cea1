"""Unit tests for the edge-Markovian evolving graph model."""

import networkx as nx
import pytest

from repro.dynamics.edge_markovian import EdgeMarkovianNetwork
from repro.graphs.generators import path_csr
from graph_oracles import clique, edge_set, path


class TestConstruction:
    def test_basic_parameters(self):
        network = EdgeMarkovianNetwork(10, 0.2, 0.3)
        assert network.n == 10
        assert network.stationary_edge_probability() == pytest.approx(0.4)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            EdgeMarkovianNetwork(10, -0.1, 0.5)
        with pytest.raises(ValueError):
            EdgeMarkovianNetwork(10, 0.5, 1.5)
        with pytest.raises(ValueError):
            EdgeMarkovianNetwork(10, 0.0, 0.0)

    def test_explicit_initial_graph_is_used(self):
        initial = path(range(8))
        network = EdgeMarkovianNetwork(8, 0.0, 0.0001, initial_graph=initial)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        assert edge_set(snapshot) == {frozenset(edge) for edge in initial.edges()}

    def test_initial_graph_may_be_csr(self):
        initial = path_csr([3, 1, 0, 2])
        network = EdgeMarkovianNetwork(4, 0.0, 0.0001, initial_graph=initial)
        network.reset(0)
        assert edge_set(network.snapshot_for_step(0, frozenset())) == edge_set(initial)

    def test_initial_graph_node_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EdgeMarkovianNetwork(8, 0.1, 0.1, initial_graph=path(range(5)))


class TestEvolution:
    def test_death_probability_one_empties_the_graph(self):
        network = EdgeMarkovianNetwork(8, 0.0, 1.0, initial_graph=clique(range(8)))
        network.reset(0)
        network.snapshot_for_step(0, frozenset())
        second = network.snapshot_for_step(1, frozenset())
        assert second.edge_count == 0

    def test_birth_probability_one_completes_the_graph(self):
        empty = nx.Graph()
        empty.add_nodes_from(range(6))
        network = EdgeMarkovianNetwork(6, 1.0, 0.0, initial_graph=empty)
        network.reset(0)
        network.snapshot_for_step(0, frozenset())
        second = network.snapshot_for_step(1, frozenset())
        assert second.edge_count == 6 * 5 // 2

    def test_zero_rates_freeze_the_graph(self):
        initial = path(range(8))
        network = EdgeMarkovianNetwork(8, 0.0, 0.0001, initial_graph=initial)
        network.reset(1)
        first = network.snapshot_for_step(0, frozenset())
        # With q tiny the edge set should essentially never change in one step.
        second = network.snapshot_for_step(1, frozenset())
        assert abs(second.edge_count - first.edge_count) <= 1

    def test_stationary_density_is_roughly_preserved(self):
        network = EdgeMarkovianNetwork(20, 0.3, 0.3, rng=0)
        network.reset(0)
        densities = []
        possible = 20 * 19 / 2
        for t in range(10):
            snapshot = network.snapshot_for_step(t, frozenset())
            densities.append(snapshot.edge_count / possible)
        average = sum(densities) / len(densities)
        assert 0.3 < average < 0.7

    def test_independent_runs_differ(self):
        network = EdgeMarkovianNetwork(12, 0.4, 0.4)
        network.reset(0)
        first = network.snapshot_for_step(0, frozenset())
        network.reset(1)
        second = network.snapshot_for_step(0, frozenset())
        assert edge_set(first) != edge_set(second)

    def test_seeded_runs_reproduce(self):
        network_a = EdgeMarkovianNetwork(12, 0.4, 0.4)
        network_b = EdgeMarkovianNetwork(12, 0.4, 0.4)
        network_a.reset(42)
        network_b.reset(42)
        edges_a = [edge_set(network_a.snapshot_for_step(t, frozenset())) for t in range(3)]
        edges_b = [edge_set(network_b.snapshot_for_step(t, frozenset())) for t in range(3)]
        assert edges_a == edges_b
