"""Unit tests for the H_{k,Δ}(A, B) construction of Section 4."""

import math

import pytest

from repro.graphs.hk_delta import HkDeltaGraph, build_hk_delta, minimum_side_sizes
from repro.graphs.metrics import absolute_diligence, conductance_spectral_bounds
from graph_oracles import degree, has_edge


def small_instance(k=3, delta=4, size_a=30, size_b=70, rng=0):
    part_a = list(range(size_a))
    part_b = list(range(size_a, size_a + size_b))
    return build_hk_delta(part_a, part_b, k=k, delta=delta, rng=rng)


class TestConstruction:
    def test_node_set_is_the_union_of_the_parts(self):
        built = small_instance()
        assert set(built.graph.nodes) == set(built.part_a) | set(built.part_b)

    def test_clusters_have_size_delta(self):
        built = small_instance(k=4, delta=3)
        assert len(built.clusters) == 5
        assert all(len(cluster) == 3 for cluster in built.clusters)

    def test_first_cluster_in_a_rest_in_b(self):
        built = small_instance()
        assert set(built.clusters[0]) <= set(built.part_a)
        for cluster in built.clusters[1:]:
            assert set(cluster) <= set(built.part_b)

    def test_consecutive_clusters_completely_joined(self):
        built = small_instance(k=2, delta=3)
        for left, right in zip(built.clusters, built.clusters[1:]):
            for u in left:
                for v in right:
                    assert has_edge(built.graph, u, v)

    def test_chain_nodes_have_degree_two_delta(self):
        built = small_instance(k=3, delta=4)
        for cluster in built.clusters:
            for node in cluster:
                assert degree(built.graph, node) == 2 * built.delta

    def test_expander_nodes_have_small_degree(self):
        built = small_instance(k=3, delta=4)
        chain_nodes = {node for cluster in built.clusters for node in cluster}
        extra_allowed = math.ceil(built.delta**2 / (len(built.part_a) - built.delta)) + 1
        for node in built.graph.nodes:
            if node in chain_nodes:
                continue
            assert degree(built.graph, node) <= 4 + extra_allowed

    def test_graph_is_connected(self):
        built = small_instance()
        assert built.graph.is_connected()

    def test_cluster_of(self):
        built = small_instance()
        first = built.clusters[0][0]
        last = built.clusters[-1][0]
        assert built.cluster_of(first) == 0
        assert built.cluster_of(last) == built.k
        outsider = [u for u in built.part_a if built.cluster_of(u) == -1]
        assert outsider

    def test_rejects_overlapping_parts(self):
        with pytest.raises(ValueError):
            build_hk_delta([0, 1, 2], [2, 3, 4], k=1, delta=1)

    def test_rejects_too_small_sides(self):
        min_a, min_b = minimum_side_sizes(k=3, delta=4)
        with pytest.raises(ValueError):
            build_hk_delta(list(range(min_a - 1)), list(range(100, 200)), k=3, delta=4)
        with pytest.raises(ValueError):
            build_hk_delta(list(range(min_a)), list(range(100, 100 + min_b - 1)), k=3, delta=4)


class TestObservation41:
    def test_analytic_conductance_formula(self):
        built = small_instance(k=3, delta=4, size_a=30, size_b=70)
        n = built.n
        assert built.analytic_conductance() == pytest.approx(16 / (3 * 16 + n))

    def test_analytic_diligence_formula(self):
        built = small_instance(delta=5)
        assert built.analytic_diligence() == pytest.approx(1 / 5)

    def test_absolute_diligence_matches_analytic_value(self):
        built = small_instance(k=3, delta=4, size_a=40, size_b=90)
        measured = absolute_diligence(built.graph)
        # The bottleneck edges join two degree-2Δ nodes.
        assert measured == pytest.approx(built.analytic_absolute_diligence(), rel=0.5)

    def test_cheeger_upper_bound_consistent_with_small_conductance(self):
        built = small_instance(k=4, delta=3, size_a=30, size_b=60)
        low, high = conductance_spectral_bounds(built.graph)
        analytic = built.analytic_conductance()
        # The true conductance is within the Cheeger bracket and the analytic
        # Θ-value should not exceed the upper Cheeger bound by a large factor.
        assert low <= high
        assert analytic <= 5 * high
