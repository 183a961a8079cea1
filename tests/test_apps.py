"""Unit tests for the downstream applications (averaging, resource discovery)."""

import math

import pytest

from repro.apps.averaging import run_gossip_averaging
from repro.apps.resource_discovery import run_resource_discovery
from repro.dynamics.edge_markovian import EdgeMarkovianNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, cycle, path


class TestGossipAveraging:
    def test_values_converge_to_the_mean_on_a_clique(self):
        network = StaticDynamicNetwork(clique(range(12)))
        values = {node: float(node) for node in range(12)}
        result = run_gossip_averaging(network, values, max_time=60.0, rng=0)
        assert result.target_mean == pytest.approx(5.5)
        assert result.converged
        assert result.final_deviation() < 1e-3
        for value in result.final_values.values():
            assert value == pytest.approx(5.5, abs=0.1)

    def test_sum_is_conserved(self):
        network = StaticDynamicNetwork(cycle(range(10)))
        values = {node: float(node % 3) for node in range(10)}
        result = run_gossip_averaging(network, values, max_time=5.0, rng=1)
        assert sum(result.final_values.values()) == pytest.approx(sum(values.values()))

    def test_variance_trace_is_monotone_nonincreasing(self):
        network = StaticDynamicNetwork(clique(range(8)))
        values = {node: float(node) for node in range(8)}
        result = run_gossip_averaging(network, values, max_time=10.0, rng=2)
        deviations = [value for _, value in result.variance_trace]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(deviations, deviations[1:]))

    def test_already_converged_input(self):
        network = StaticDynamicNetwork(clique(range(5)))
        values = {node: 2.0 for node in range(5)}
        result = run_gossip_averaging(network, values, max_time=1.0, rng=3)
        assert result.converged
        assert result.convergence_time == 0.0

    def test_missing_values_rejected(self):
        network = StaticDynamicNetwork(clique(range(5)))
        with pytest.raises(ValueError):
            run_gossip_averaging(network, {0: 1.0}, rng=0)

    def test_convergence_slower_on_a_path_than_a_clique(self):
        values = {node: float(node) for node in range(10)}
        clique_result = run_gossip_averaging(
            StaticDynamicNetwork(clique(range(10))), values, max_time=200.0, tolerance=1e-2, rng=4
        )
        path_result = run_gossip_averaging(
            StaticDynamicNetwork(path(range(10))), values, max_time=200.0, tolerance=1e-2, rng=4
        )
        assert clique_result.converged
        assert (not path_result.converged) or (
            path_result.convergence_time > clique_result.convergence_time
        )


class TestResourceDiscovery:
    def test_every_node_learns_every_resource(self):
        network = StaticDynamicNetwork(clique(range(10)))
        result = run_resource_discovery(network, rng=0)
        assert result.completed
        assert all(len(known) == 10 for known in result.knowledge.values())
        assert result.full_knowledge_time > 0

    def test_custom_initial_resources(self):
        network = StaticDynamicNetwork(cycle(range(6)))
        initial = {node: ({"gold"} if node == 0 else set()) for node in range(6)}
        result = run_resource_discovery(network, initial_resources=initial, rng=1)
        assert result.completed
        assert all(known == frozenset({"gold"}) for known in result.knowledge.values())

    def test_time_limit_produces_incomplete_result(self):
        network = StaticDynamicNetwork(path(range(30)))
        result = run_resource_discovery(network, max_time=0.5, rng=2)
        assert not result.completed
        assert math.isinf(result.full_knowledge_time)

    def test_coverage_trace_is_monotone(self):
        network = StaticDynamicNetwork(clique(range(8)))
        result = run_resource_discovery(network, rng=3)
        coverage = [count for _, count in result.coverage_trace]
        assert coverage == sorted(coverage)

    def test_missing_initial_resources_rejected(self):
        network = StaticDynamicNetwork(clique(range(4)))
        with pytest.raises(ValueError):
            run_resource_discovery(network, initial_resources={0: {"a"}}, rng=0)

    def test_runs_on_random_dynamic_networks(self):
        network = EdgeMarkovianNetwork(10, 0.4, 0.2, rng=0)
        result = run_resource_discovery(network, rng=4)
        assert result.completed
