"""Exact Φ and ρ: the bitmask cut scan against a cut-by-cut reference oracle.

The oracle below is the original ``itertools`` enumeration: it walks every
cut as a Python set and evaluates the per-cut definitions
(:func:`conductance_of_cut`, :func:`diligence_of_cut`).  The library's scan
promises *bit-identical* results, so every comparison here is ``==`` on
floats, never ``approx``.
"""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphs.metrics as metrics
from repro.dynamics.edge_markovian import EdgeMarkovianNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.metrics import (
    conductance_exact,
    conductance_of_cut,
    diligence_exact,
    diligence_of_cut,
    measure_graph,
    volume,
)
from graph_oracles import bridged_double_clique, clique, clique_with_pendant, cycle, path, star


def oracle_conductance(graph: nx.Graph) -> float:
    """``Φ(G)`` by enumerating every cut that contains the first node."""
    n = graph.number_of_nodes()
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    nodes = list(graph.nodes())
    best = math.inf
    rest = nodes[1:]
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            subset = {nodes[0], *combo}
            if len(subset) == n:
                continue
            phi = conductance_of_cut(graph, subset)
            if phi < best:
                best = phi
    return best


def oracle_diligence(graph: nx.Graph) -> float:
    """``ρ(G)`` by enumerating every smaller-volume side of every cut."""
    n = graph.number_of_nodes()
    if n == 1:
        return 1.0
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    total_volume = volume(graph)
    nodes = list(graph.nodes())
    best = math.inf
    for size in range(1, n):
        for combo in itertools.combinations(nodes, size):
            subset = set(combo)
            vol_s = volume(graph, subset)
            if vol_s == 0 or vol_s > total_volume / 2:
                continue
            rho = diligence_of_cut(graph, subset)
            if rho < best:
                best = rho
    return best if best is not math.inf else 1.0


def assert_matches_oracle(graph: nx.Graph) -> None:
    phi, rho = oracle_conductance(graph), oracle_diligence(graph)
    snapshot = CsrSnapshot.from_networkx(graph, cache_graph=False)
    for subject in (graph, snapshot):
        assert conductance_exact(subject) == phi
        assert diligence_exact(subject) == rho
        measured = measure_graph(subject)
        assert (measured.conductance, measured.diligence) == (phi, rho)
        assert measured.exact


@st.composite
def small_graphs(draw, max_nodes=10):
    """Graphs on 1..10 nodes: connected (a spanning path is added) or not."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(list(range(n)))))
    graph.add_edges_from(edges)
    if draw(st.booleans()):
        order = draw(st.permutations(list(range(n))))
        graph.add_edges_from(zip(order, order[1:]))
    return graph


class TestScanMatchesOracle:
    @given(graph=small_graphs())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hypothesis_graphs(self, graph):
        assert_matches_oracle(graph)

    def test_irregular_and_disconnected_cases(self):
        # The minimising cut of this graph has equal volumes on both sides,
        # so ρ must read d̄ on its side with more nodes, whichever side the
        # last node (never in a scanned mask) falls on.
        balanced = []
        for order in (range(5), reversed(range(5))):
            graph = nx.Graph()
            graph.add_nodes_from(order)
            graph.add_edges_from([(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
            balanced.append(graph)
        graphs = [
            *balanced,
            nx.Graph([(0, 0)]),
            nx.lollipop_graph(5, 4),
            nx.barbell_graph(4, 2),
            nx.star_graph(8),
            nx.Graph([(0, 1), (2, 3)]),
            nx.empty_graph(3),
            nx.empty_graph(1),
            nx.Graph([(0, 1)]),
        ]
        for graph in graphs:
            assert_matches_oracle(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            path(range(6)),
            star(0, range(1, 9)),
            cycle(range(9)),
            *(clique_with_pendant(n) for n in range(4, 12)),
            *(bridged_double_clique(n) for n in (5, 8, 11)),
        ],
        ids=lambda graph: f"n{graph.number_of_nodes()}m{graph.number_of_edges()}",
    )
    def test_verify_families(self, graph):
        assert_matches_oracle(graph)

    def test_edge_markovian_snapshots(self):
        network = EdgeMarkovianNetwork(12, 0.3, 0.3)
        network.reset(7)
        for step in range(20):
            assert_matches_oracle(network.snapshot_for_step(step, frozenset()).to_networkx())

    def test_chunk_boundary_splits_the_mask_range(self, monkeypatch):
        # 2^9 - 1 = 511 masks in blocks of 7: blocks split mid-range and the
        # last block is short.
        monkeypatch.setattr(metrics, "_CUT_CHUNK", 7)
        for graph in (
            clique_with_pendant(9),
            bridged_double_clique(9),
            nx.lollipop_graph(6, 4),
            path(range(10)),
        ):
            assert graph.number_of_nodes() == 10
            assert_matches_oracle(graph)


class TestConventions:
    def test_single_node(self):
        graph = nx.empty_graph(1)
        assert conductance_exact(graph) == 0.0
        assert diligence_exact(graph) == 1.0

    def test_disconnected_is_zero(self):
        graph = nx.Graph([(0, 1), (1, 2), (3, 4)])
        assert conductance_exact(graph) == 0.0
        assert diligence_exact(graph) == 0.0

    def test_disconnected_graph_beyond_the_limit_is_zero(self):
        graph = nx.disjoint_union(clique(range(12)), clique(range(12)))
        assert conductance_exact(graph) == 0.0
        assert diligence_exact(graph) == 0.0

    @pytest.mark.parametrize(
        ("function", "alternative"),
        [(conductance_exact, "conductance_spectral_bounds"), (diligence_exact, "diligence_sampled")],
    )
    def test_limit_error_names_the_function_and_alternative(self, function, alternative):
        graph = path(range(metrics.EXACT_ENUMERATION_LIMIT + 1))
        with pytest.raises(ValueError, match=f"{function.__name__} enumerates 2\\^n cuts") as info:
            function(graph)
        assert alternative in str(info.value)

    def test_largest_exact_size_is_measured(self):
        graph = path(range(metrics.EXACT_ENUMERATION_LIMIT))
        measured = measure_graph(graph)
        assert measured.exact
        assert measured.conductance == 1 / (metrics.EXACT_ENUMERATION_LIMIT - 1)

    def test_csr_input_skips_networkx(self, monkeypatch):
        snapshot = CsrSnapshot.from_networkx(clique_with_pendant(8), cache_graph=False)

        def forbidden(self):
            raise AssertionError("measure_graph converted a small CSR snapshot to networkx")

        monkeypatch.setattr(CsrSnapshot, "to_networkx", forbidden)
        measured = measure_graph(snapshot)
        assert measured.exact and measured.connected
