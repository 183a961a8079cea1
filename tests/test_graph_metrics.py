"""Unit tests for conductance, diligence and absolute diligence."""

import math

import networkx as nx
import pytest

from repro.graphs.metrics import (
    GraphMetrics,
    absolute_diligence,
    average_degree,
    conductance_estimate,
    conductance_exact,
    conductance_of_cut,
    conductance_spectral_bounds,
    cut_edges,
    degree_variation_ratio,
    diligence_exact,
    diligence_of_cut,
    diligence_sampled,
    measure_graph,
    volume,
)
from graph_oracles import clique, cycle, path, star


class TestVolumeAndCuts:
    def test_volume_of_whole_graph_is_twice_edges(self):
        graph = clique(range(6))
        assert volume(graph) == 2 * graph.number_of_edges()

    def test_volume_of_subset(self):
        graph = star(0, range(1, 5))
        assert volume(graph, [0]) == 4
        assert volume(graph, [1, 2]) == 2

    def test_cut_edges_of_star_center(self):
        graph = star(0, range(1, 6))
        crossing = cut_edges(graph, {0})
        assert len(crossing) == 5
        assert all(edge[0] == 0 for edge in crossing)

    def test_cut_edges_unknown_node_raises(self):
        graph = path(range(4))
        with pytest.raises(ValueError):
            cut_edges(graph, {99})

    def test_average_degree(self):
        graph = star(0, range(1, 5))
        assert average_degree(graph, [1, 2, 3, 4]) == 1.0
        assert average_degree(graph, [0]) == 4.0


class TestConductance:
    def test_clique_conductance_is_about_half(self):
        graph = clique(range(8))
        phi = conductance_exact(graph)
        # Balanced cut of K_8: 16 crossing edges over volume 28.
        assert phi == pytest.approx(16 / 28)

    def test_cycle_conductance(self):
        graph = cycle(range(10))
        assert conductance_exact(graph) == pytest.approx(2 / 10)

    def test_star_conductance_is_one(self):
        graph = star(0, range(1, 8))
        assert conductance_exact(graph) == pytest.approx(1.0)

    def test_path_conductance(self):
        graph = path(range(6))
        # Cut in the middle: 1 edge over volume 5.
        assert conductance_exact(graph) == pytest.approx(1 / 5)

    def test_disconnected_graph_has_zero_conductance(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert conductance_exact(graph) == 0.0

    def test_conductance_of_specific_cut(self):
        graph = cycle(range(8))
        assert conductance_of_cut(graph, {0, 1, 2, 3}) == pytest.approx(2 / 8)

    def test_conductance_of_cut_rejects_zero_volume_side(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(ValueError):
            conductance_of_cut(graph, {2})

    def test_exact_conductance_rejects_large_graphs(self):
        graph = clique(range(25))
        with pytest.raises(ValueError):
            conductance_exact(graph)

    def test_spectral_bounds_bracket_exact_value(self):
        for graph in (clique(range(10)), cycle(range(12)), star(0, range(1, 10))):
            low, high = conductance_spectral_bounds(graph)
            exact = conductance_exact(graph)
            assert low <= exact + 1e-9
            assert exact <= high + 1e-9

    def test_spectral_bounds_zero_for_disconnected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert conductance_spectral_bounds(graph) == (0.0, 0.0)

    def test_conductance_estimate_matches_exact_for_small_graphs(self):
        graph = cycle(range(9))
        assert conductance_estimate(graph) == pytest.approx(conductance_exact(graph))


class TestDiligence:
    def test_star_is_one_diligent(self):
        graph = star(0, range(1, 10))
        assert diligence_exact(graph) == pytest.approx(1.0)

    def test_regular_graphs_are_one_diligent(self):
        for graph in (clique(range(7)), cycle(range(8))):
            assert diligence_exact(graph) == pytest.approx(1.0)

    def test_diligence_bounds_for_connected_graph(self):
        # 1/(n-1) <= rho(G) <= 1 for every connected G (paper, Section 1.1).
        graph = path(range(7))
        rho = diligence_exact(graph)
        n = graph.number_of_nodes()
        assert 1 / (n - 1) - 1e-12 <= rho <= 1 + 1e-12

    def test_disconnected_graph_has_zero_diligence(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert diligence_exact(graph) == 0.0

    def test_single_node_graph_has_diligence_one(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert diligence_exact(graph) == 1.0

    def test_diligence_of_cut_requires_smaller_side(self):
        graph = star(0, range(1, 8))
        with pytest.raises(ValueError):
            # The centre side has the larger volume... actually both have the
            # same volume here; use a clearly larger subset to trigger.
            diligence_of_cut(graph, set(range(8)) - {3})

    def test_diligence_of_cut_on_star_leaf(self):
        graph = star(0, range(1, 6))
        # Single leaf: average degree 1, crossing edge to the centre of degree 5.
        assert diligence_of_cut(graph, {1}) == pytest.approx(1.0)

    def test_sampled_diligence_upper_bounds_exact(self):
        graph = nx.lollipop_graph(6, 4)
        exact = diligence_exact(graph)
        sampled = diligence_sampled(graph, samples=300, rng=3)
        assert sampled >= exact - 1e-9

    def test_sampled_diligence_exactness_on_star(self):
        graph = star(0, range(1, 12))
        assert diligence_sampled(graph, samples=100, rng=1) == pytest.approx(1.0)


class TestAbsoluteDiligence:
    def test_star_absolute_diligence_is_one(self):
        graph = star(0, range(1, 9))
        assert absolute_diligence(graph) == pytest.approx(1.0)

    def test_clique_absolute_diligence(self):
        graph = clique(range(9))
        assert absolute_diligence(graph) == pytest.approx(1 / 8)

    def test_empty_graph_has_zero_absolute_diligence(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        assert absolute_diligence(graph) == 0.0

    def test_absolute_diligence_lower_bound(self):
        # For any nonempty graph, rho-bar >= 1/(n-1).
        graph = nx.lollipop_graph(5, 3)
        n = graph.number_of_nodes()
        assert absolute_diligence(graph) >= 1 / (n - 1) - 1e-12


class TestDegreeVariation:
    def test_constant_degrees_give_ratio_one(self):
        history = {0: [3, 3, 3], 1: [3, 3, 3]}
        assert degree_variation_ratio(history) == pytest.approx(1.0)

    def test_alternating_regular_complete_ratio(self):
        history = {u: [3, 99] for u in range(5)}
        assert degree_variation_ratio(history) == pytest.approx(33.0)

    def test_zero_degree_nodes_are_skipped(self):
        history = {0: [0, 5], 1: [2, 4]}
        assert degree_variation_ratio(history) == pytest.approx(2.0)

    def test_all_zero_minimum_raises(self):
        with pytest.raises(ValueError):
            degree_variation_ratio({0: [0, 3]})


class TestMeasureGraph:
    def test_small_graph_measured_exactly(self):
        metrics = measure_graph(star(0, range(1, 8)))
        assert metrics.exact
        assert metrics.connected
        assert metrics.conductance == pytest.approx(1.0)
        assert metrics.diligence == pytest.approx(1.0)
        assert metrics.absolute_diligence == pytest.approx(1.0)
        assert metrics.conductance_indicator() == 1

    def test_large_graph_uses_estimates(self):
        metrics = measure_graph(clique(range(30)), rng=0)
        assert not metrics.exact
        assert metrics.connected
        assert metrics.absolute_diligence == pytest.approx(1 / 29)

    def test_empty_graph_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="measure_graph needs a graph with at least one node"):
            measure_graph(nx.Graph())

    def test_disconnected_indicator_is_zero(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        metrics = measure_graph(graph)
        assert not metrics.connected
        assert metrics.conductance_indicator() == 0
