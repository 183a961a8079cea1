"""Unit tests for the CSR snapshot layer and the CSR-native generators."""

import importlib.abc
import sys

import networkx as nx
import numpy as np
import pytest

from repro.api import EventLog
from repro.graphs import generators
from repro.graphs.csr import CsrSnapshot, concatenated_neighbors, normalized_laplacian_lambda2
from repro.graphs.generators import (
    bridged_double_clique,
    bridged_double_clique_csr,
    clique,
    clique_csr,
    clique_with_pendant,
    clique_with_pendant_csr,
    condensed_to_pair,
    cycle,
    cycle_csr,
    dynamic_star_csr,
    dynamic_star_graph,
    erdos_renyi_csr,
    pair_to_condensed,
    path,
    star,
    star_csr,
)
from repro.graphs.metrics import conductance_spectral_bounds
from repro.scenarios.measurements import measure_point
from repro.scenarios.networks import build_network
from repro.scenarios.scenario import Scenario


def edge_set(snapshot: CsrSnapshot):
    return {frozenset(edge) for edge in snapshot.to_networkx().edges()}


def nx_edge_set(graph: nx.Graph):
    return {frozenset(edge) for edge in graph.edges()}


def arrays(snapshot: CsrSnapshot):
    """Everything an engine reads: node order, row bounds and entry order."""
    return snapshot.nodes, snapshot.indptr.tolist(), snapshot.indices.tolist()


#: The static registry families and the networkx graphs they used to be built
#: from, with each family's minimum ``n``.
STATIC_TWINS = {
    "clique": (2, lambda n: clique(range(n))),
    "star": (2, lambda n: star(0, range(1, n))),
    "cycle": (3, lambda n: cycle(range(n))),
    "path": (2, lambda n: path(range(n))),
}


class TestCsrSnapshot:
    def test_basic_structure(self):
        snapshot = clique_csr(range(5))
        assert snapshot.n == 5
        assert snapshot.edge_count == 10
        assert list(snapshot.degrees) == [4] * 5
        assert sorted(snapshot.neighbors(2).tolist()) == [0, 1, 3, 4]
        assert snapshot.index_of[3] == 3

    def test_arrays_are_read_only(self):
        snapshot = clique_csr(range(4))
        with pytest.raises(ValueError):
            snapshot.indices[0] = 99
        with pytest.raises(ValueError):
            snapshot.degrees[0] = 99

    def test_inverse_degrees_handles_isolated_nodes(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        graph.add_edge(0, 1)
        snapshot = CsrSnapshot.from_networkx(graph, cache_graph=False)
        assert snapshot.inverse_degrees.tolist() == [1.0, 1.0, 0.0]

    def test_row_owner_enumerates_directed_edges(self):
        snapshot = star_csr(0, [1, 2, 3])
        pairs = set(zip(snapshot.row_owner.tolist(), snapshot.indices.tolist()))
        assert pairs == {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}

    def test_from_networkx_caches_source_graph(self):
        graph = clique(range(6))
        snapshot = CsrSnapshot.from_networkx(graph)
        assert snapshot.to_networkx() is graph

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CsrSnapshot(np.array([0, 2]), np.array([1, 0]), [0, 1, 2])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CsrSnapshot(np.array([0, 0, 0]), np.empty(0, dtype=np.int64), [0, 0])

    def test_is_connected(self):
        assert clique_csr(range(4)).is_connected()
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert not CsrSnapshot.from_networkx(graph, cache_graph=False).is_connected()

    def test_concatenated_neighbors(self):
        snapshot = cycle_csr(range(6))
        out = concatenated_neighbors(snapshot, np.array([0, 3]))
        assert sorted(out.tolist()) == [1, 2, 4, 5]
        empty = concatenated_neighbors(snapshot, np.empty(0, dtype=np.int64))
        assert empty.size == 0


class TestCsrGenerators:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_clique_csr_matches_networkx(self, n):
        expected = arrays(CsrSnapshot.from_networkx(clique(range(n))))
        assert arrays(clique_csr(range(n))) == expected

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_cycle_csr_matches_networkx(self, n):
        expected = arrays(CsrSnapshot.from_networkx(cycle(range(n))))
        assert arrays(cycle_csr(range(n))) == expected

    @pytest.mark.parametrize(
        "family,n",
        [
            (family, n)
            for family, (minimum, _) in STATIC_TWINS.items()
            for n in [*range(minimum, 13), 24, 94]
        ],
    )
    def test_static_family_snapshot_equals_networkx_twin(self, family, n):
        # Entry order fixes which neighbour the boundary engine draws and
        # which delay percolation assigns to each entry, so the CSR-native
        # build must reproduce the converted twin array for array.
        network = build_network(family, n=n)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        twin = STATIC_TWINS[family][1](n)
        assert arrays(snapshot) == arrays(CsrSnapshot.from_networkx(twin))

    def test_star_csr_matches_networkx(self):
        expected = arrays(CsrSnapshot.from_networkx(star(0, range(1, 8))))
        assert arrays(star_csr(0, range(1, 8))) == expected

    @pytest.mark.parametrize("center", [0, 3, 7])
    def test_dynamic_star_csr_keeps_label_order(self, center):
        snapshot = dynamic_star_csr(8, center)
        assert snapshot.nodes == tuple(range(8))
        assert edge_set(snapshot) == nx_edge_set(dynamic_star_graph(8, center))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_dichotomy_builders_match_networkx(self, n):
        assert edge_set(clique_with_pendant_csr(n)) == nx_edge_set(clique_with_pendant(n))
        assert edge_set(bridged_double_clique_csr(n)) == nx_edge_set(bridged_double_clique(n))
        assert clique_with_pendant_csr(n).nodes == tuple(range(1, n + 2))

    def test_condensed_pair_mapping_round_trips(self):
        n = 23
        pair_ids = np.arange(n * (n - 1) // 2)
        i, j = condensed_to_pair(pair_ids, n)
        assert bool(np.all(i < j))
        assert bool(np.all(pair_to_condensed(i, j, n) == pair_ids))

    def test_erdos_renyi_edge_count_is_binomial(self):
        n = 300
        p = 0.04
        snapshot = erdos_renyi_csr(n, p, rng=5)
        expectation = p * n * (n - 1) / 2
        deviation = 6 * (expectation * (1 - p)) ** 0.5
        assert abs(snapshot.edge_count - expectation) < deviation
        assert snapshot.n == n

    def test_erdos_renyi_extremes(self):
        empty = erdos_renyi_csr(20, 0.0, rng=0)
        assert empty.edge_count == 0
        full = erdos_renyi_csr(20, 1.0, rng=0)
        assert full.edge_count == 20 * 19 // 2

    def test_erdos_renyi_reproducible(self):
        first = erdos_renyi_csr(50, 0.1, rng=123)
        second = erdos_renyi_csr(50, 0.1, rng=123)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)

    def test_erdos_renyi_geometric_edge_count_agrees_with_bernoulli(self):
        # The geometric-skip sampler must realise the same G(n, p) model as
        # the Bernoulli sweep: the edge count is Binomial(n(n-1)/2, p), so
        # both empirical means must sit within a few standard errors of the
        # exact expectation (and of each other).
        n, p, reps = 40, 0.12, 300
        pairs = n * (n - 1) // 2
        mean = pairs * p
        std = (pairs * p * (1 - p)) ** 0.5
        counts = {
            method: np.array(
                [
                    erdos_renyi_csr(n, p, rng=base + i, method=method).edge_count
                    for i in range(reps)
                ]
            )
            for base, method in ((10_000, "bernoulli"), (20_000, "geometric"))
        }
        tolerance = 5 * std / reps**0.5
        for method, observed in counts.items():
            assert abs(observed.mean() - mean) < tolerance, method
        assert abs(counts["bernoulli"].mean() - counts["geometric"].mean()) < 2 * tolerance

    def test_erdos_renyi_geometric_produces_simple_sorted_pairs(self):
        snapshot = erdos_renyi_csr(120, 0.08, rng=9, method="geometric")
        undirected = set()
        for i in range(snapshot.n):
            neighbours = snapshot.neighbors(i)
            assert i not in set(int(j) for j in neighbours)  # no self loops
            for j in neighbours:
                undirected.add((min(i, int(j)), max(i, int(j))))
        assert len(undirected) == snapshot.edge_count  # no duplicate edges

    def test_erdos_renyi_geometric_extremes_and_validation(self):
        assert erdos_renyi_csr(20, 0.0, rng=0, method="geometric").edge_count == 0
        assert erdos_renyi_csr(20, 1.0, rng=0, method="geometric").edge_count == 190
        with pytest.raises(ValueError, match="method"):
            erdos_renyi_csr(20, 0.1, method="quantum")

    def test_erdos_renyi_auto_threshold_keeps_small_n_stream(self):
        # Small graphs stay on the Bernoulli sweep under method="auto", so
        # fixed-seed graphs baked into tests and benchmarks are unchanged.
        auto = erdos_renyi_csr(50, 0.1, rng=123, method="auto")
        bernoulli = erdos_renyi_csr(50, 0.1, rng=123, method="bernoulli")
        assert np.array_equal(auto.indices, bernoulli.indices)


def _forbidden(*args, **kwargs):
    raise AssertionError("networkx graph built on the CSR-native path")


class _BlockScipy(importlib.abc.MetaPathFinder):
    """Import hook making ``scipy`` unimportable, as in a clean install."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


class TestNoNetworkxOrScipy:
    def test_observed_clique_trials_point_builds_no_networkx_graph(self, monkeypatch):
        # The service measures trials points with a streaming observer.
        monkeypatch.setattr(generators, "clique", _forbidden)
        monkeypatch.setattr(CsrSnapshot, "from_networkx", _forbidden)
        monkeypatch.setattr(nx.Graph, "__init__", _forbidden)
        point = Scenario.from_dict({
            "label": "csr-native", "kind": "trials", "network": "clique",
            "params": {"n": 24}, "trials": 5, "seed": 0,
        }).points()[0]
        log = EventLog()
        payload = measure_point(point, observer=log)
        assert payload["summary"]["trials"] == 5
        assert any(event[0] == "event" for event in log.events)

    def test_expander_and_spectral_bounds_run_without_scipy(self, monkeypatch):
        for name in [name for name in sys.modules if name.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(sys, "meta_path", [_BlockScipy(), *sys.meta_path])
        network = build_network("expander", n=32, degree=4, rng=0)
        with pytest.raises(ImportError):
            nx.normalized_laplacian_matrix(network.graph)
        low, high = conductance_spectral_bounds(network.graph)
        assert 0 < low <= high

    def test_lambda2_equals_networkx_normalized_laplacian(self):
        pytest.importorskip("scipy")
        graphs = [nx.random_regular_graph(degree, n, seed=seed)
                  for seed, (degree, n) in enumerate([(3, 10), (4, 17), (4, 32), (6, 41)])]
        graphs += [nx.gnp_random_graph(n, 0.2, seed=seed) for seed, n in enumerate([8, 15, 30])]
        graphs += [path(range(9)), star(0, range(1, 12)), clique(range(7))]
        isolated = cycle(range(6))
        isolated.add_node(6)
        graphs.append(isolated)
        for graph in graphs:
            laplacian = nx.normalized_laplacian_matrix(graph).toarray()
            expected = float(np.sort(np.linalg.eigvalsh(laplacian))[1])
            assert normalized_laplacian_lambda2(graph) == expected
            assert normalized_laplacian_lambda2(CsrSnapshot.from_networkx(graph)) == expected
