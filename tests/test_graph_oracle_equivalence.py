"""The CSR builders against their networkx constructions, bit for bit.

Every family that used to be assembled in networkx and converted is now built
straight into CSR.  The engines' random draws index adjacency entries, so a
builder must give the exact ``indptr``/``indices``/node order that
``CsrSnapshot.from_networkx`` gave for the networkx graph, not just the same
edge set.  The oracles live in ``graph_oracles``.
"""

import random

import networkx as nx
import numpy as np
import pytest

import graph_oracles as oracle
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.dynamics.absolute_diligent import AbsolutelyDiligentNetwork
from repro.dynamics.diligent import DiligentDynamicNetwork
from repro.dynamics.mobile_agents import MobileAgentsNetwork
from repro.graphs import generators
from repro.graphs.csr import CsrSnapshot
from repro.graphs.hk_delta import HkDeltaGraph, build_hk_delta
from repro.graphs.metrics import (
    absolute_diligence,
    conductance_spectral_bounds,
    diligence_sampled,
)


def assert_same_csr(snapshot, graph, nodes=None):
    expected = CsrSnapshot.from_networkx(graph, nodes=nodes)
    assert snapshot.nodes == expected.nodes
    assert np.array_equal(snapshot.indptr, expected.indptr)
    assert np.array_equal(snapshot.indices, expected.indices)


def full_shuffles(monkeypatch, length):
    """Count ``random.Random.shuffle`` calls on a full stub list (one per pairing try)."""
    calls = []
    shuffle = random.Random.shuffle

    def spy(self, stubs):
        if len(stubs) == length:
            calls.append(1)
        return shuffle(self, stubs)

    monkeypatch.setattr(random.Random, "shuffle", spy)
    return calls


class TestExpanders:
    @pytest.mark.parametrize(("degree", "n"), [(4, 6), (4, 7), (3, 6), (4, 8), (3, 8)])
    def test_pairing_port_restarts_like_networkx(self, monkeypatch, degree, n):
        calls = full_shuffles(monkeypatch, degree * n)
        for seed in range(12):
            edges = generators._pairing_edges(degree, n, seed)
            expected = nx.random_regular_graph(degree, n, seed=seed)
            snapshot = CsrSnapshot.from_edge_sequence(range(n), edges[:, 0], edges[:, 1])
            assert_same_csr(snapshot, expected)
        # Port and networkx each shuffle once per try: some seed restarted.
        assert len(calls) > 2 * 12

    @pytest.mark.parametrize(("degree", "n"), [(4, 5), (4, 6), (4, 7), (4, 12), (4, 40), (3, 30), (6, 90)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_regular_expander(self, degree, n, seed):
        labels = [f"v{i}" for i in range(n)]
        built = generators.random_regular_expander(degree, labels, rng=seed)
        assert_same_csr(built, oracle.random_regular_expander(degree, labels, rng=seed))

    def test_expander_spectral_gap_reads_the_same_matrix(self):
        built = generators.random_regular_expander(4, range(50), rng=3)
        expected = oracle.random_regular_expander(4, range(50), rng=3)
        assert generators.spectral_gap(built) == generators.spectral_gap(expected)


class TestSectionFiveOneBuilders:
    @pytest.mark.parametrize(("n", "degree"), [(10, 3), (12, 3), (20, 5), (9, 4), (15, 6)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_regular_connected_graph(self, n, degree, seed):
        nodes = list(range(100, 100 + n))
        built = generators.regular_connected_graph(nodes, degree, rng=seed)
        assert_same_csr(built, oracle.regular_connected_graph(nodes, degree, rng=seed))

    @pytest.mark.parametrize(
        ("n", "base", "hub_degree", "hub_index"),
        [(10, 4, 4, 0), (30, 4, 10, 0), (30, 4, 10, 17), (25, 2, 8, 3), (40, 4, 16, 39), (12, 2, 6, 0)],
    )
    def test_near_regular_with_hub(self, n, base, hub_degree, hub_index):
        nodes = [f"a{i}" for i in range(n)]
        built, hub = generators.near_regular_with_hub(nodes, base, hub_degree, hub=nodes[hub_index])
        expected, expected_hub = oracle.near_regular_with_hub(
            nodes, base, hub_degree, hub=nodes[hub_index]
        )
        assert hub == expected_hub
        assert_same_csr(built, expected)

    def test_disconnecting_rewire_fails_loudly(self, monkeypatch):
        # The old "retry with another rng draw" rebuilt the same deterministic
        # circulant and recursed until RecursionError.
        monkeypatch.setattr(CsrSnapshot, "is_connected", lambda self: False)
        with pytest.raises(RuntimeError, match="disconnected"):
            generators.near_regular_with_hub(list(range(30)), 4, 10)


class TestHkDelta:
    @pytest.mark.parametrize(
        ("size_a", "size_b", "k", "delta"),
        [(30, 70, 3, 4), (40, 120, 2, 6), (12, 40, 1, 5), (25, 75, 4, 3)],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_complete_graph_and_node_order(self, size_a, size_b, k, delta, seed):
        part_a = list(range(size_a))
        part_b = list(range(size_a, size_a + size_b))
        built = build_hk_delta(part_a, part_b, k=k, delta=delta, rng=seed)
        expected = oracle.hk_delta_graph(part_a, part_b, k=k, delta=delta, rng=seed)
        # Node order S_0..S_k, expander A, expander B, as networkx composed them.
        assert_same_csr(built.graph, expected)
        assert_same_csr(built.graph.reordered(range(size_a + size_b)), expected,
                        nodes=range(size_a + size_b))

    def test_hk_snapshot_metrics_equal_networkx(self):
        part_a, part_b = list(range(60)), list(range(60, 240))
        built = build_hk_delta(part_a, part_b, k=3, delta=5, rng=np.random.default_rng(4))
        expected = oracle.hk_delta_graph(part_a, part_b, k=3, delta=5, rng=np.random.default_rng(4))
        assert conductance_spectral_bounds(built.graph) == conductance_spectral_bounds(expected)
        assert absolute_diligence(built.graph) == oracle.absolute_diligence(expected)

    def test_complete_bipartite_chain(self):
        clusters = [["a", "b"], ["c"], ["d", "e", "f"], ["g", "h"]]
        built = generators.complete_bipartite_chain(clusters)
        assert_same_csr(built, oracle.complete_bipartite_chain(clusters))


class TestMobileProximity:
    @pytest.mark.parametrize(
        ("agents", "side", "radius", "torus"),
        [
            (40, 8, 1, True),
            (40, 8, 1, False),
            (30, 2, 1, True),   # 2·radius+1 > side: one cell reached twice
            (25, 3, 2, True),
            (30, 5, 0, True),   # radius 0: co-located agents only
            (30, 4, 3, False),
        ],
    )
    def test_proximity_graph(self, agents, side, radius, torus):
        network = MobileAgentsNetwork(agents, side=side, radius=radius, torus=torus)
        network.reset(9)
        for t in range(6):
            snapshot = network.snapshot_for_step(t, frozenset())
            graph = oracle.proximity_graph(network.positions(), side, radius, torus)
            assert_same_csr(snapshot, graph, nodes=range(agents))


class OracleDiligent(DiligentDynamicNetwork):
    def _rebuild(self, part_b):
        part_a = [u for u in self.nodes if u not in part_b]
        graph = oracle.hk_delta_graph(part_a, sorted(part_b), self.k, self.delta, rng=self._run_rng)
        self._current = HkDeltaGraph(
            CsrSnapshot.from_networkx(graph), tuple(part_a), tuple(part_b), (), self.delta, self.k
        )
        self._snapshot = CsrSnapshot.from_networkx(graph, nodes=self._nodes)


class OracleAbsolutelyDiligent(AbsolutelyDiligentNetwork):
    def _rebuild(self, part_b, informed):
        part_a = [u for u in self.nodes if u not in part_b]
        part_b_sorted = sorted(part_b)
        graph_a, hub = oracle.near_regular_with_hub(
            part_a, min(4, self.delta), self.delta, hub=part_a[0], rng=self._run_rng
        )
        degree_b = max(min(self.delta, len(part_b_sorted) - 1) // 2 * 2, 2)
        graph = nx.compose(graph_a, oracle.regular_connected_graph(part_b_sorted, degree_b))
        uninformed = [u for u in part_b_sorted if u not in informed]
        graph.add_edge(hub, uninformed[0] if uninformed else part_b_sorted[0])
        self._hub = hub
        self._snapshot = CsrSnapshot.from_networkx(graph, nodes=self._nodes)


class OracleMobile(MobileAgentsNetwork):
    def _proximity_graph(self):
        graph = oracle.proximity_graph(self._positions, self.side, self.radius, self.torus)
        return CsrSnapshot.from_networkx(graph, nodes=self._nodes)


NETWORKS = [
    (lambda cls: cls(200, 0.2, rng=1), DiligentDynamicNetwork, OracleDiligent),
    (lambda cls: cls(240, 0.1, k=2, rng=2), DiligentDynamicNetwork, OracleDiligent),
    (lambda cls: cls(120, 0.2, rng=3), AbsolutelyDiligentNetwork, OracleAbsolutelyDiligent),
    (lambda cls: cls(90, 0.5, rng=4), AbsolutelyDiligentNetwork, OracleAbsolutelyDiligent),
    (lambda cls: cls(30, side=4, radius=1, rng=5), MobileAgentsNetwork, OracleMobile),
    (lambda cls: cls(30, side=2, radius=1, rng=6), MobileAgentsNetwork, OracleMobile),
]


@pytest.mark.parametrize(("make", "cls", "oracle_cls"), NETWORKS)
class TestDynamicFamilies:
    def test_snapshots_step_by_step(self, make, cls, oracle_cls):
        network, expected = make(cls), make(oracle_cls)
        order = np.random.default_rng(8).permutation(network.n).tolist()
        network.reset(21)
        expected.reset(21)
        for t in range(12):
            # A growing informed set, so the adaptive families rebuild.
            informed = frozenset(order[: 1 + 9 * t])
            snapshot = network.snapshot_for_step(t, informed)
            reference = expected.snapshot_for_step(t, informed)
            assert snapshot.nodes == reference.nodes
            assert np.array_equal(snapshot.indptr, reference.indptr)
            assert np.array_equal(snapshot.indices, reference.indices)

    def test_whole_run_is_identical(self, make, cls, oracle_cls):
        engine = AsynchronousRumorSpreading()
        result = engine.run(make(cls), rng=13, max_time=400.0)
        reference = engine.run(make(oracle_cls), rng=13, max_time=400.0)
        assert result.informed_times == reference.informed_times


class TestMetricsMatchCutByCut:
    GRAPHS = [
        lambda: nx.lollipop_graph(6, 4),
        lambda: nx.barbell_graph(7, 3),
        lambda: nx.random_regular_graph(3, 40, seed=2),
        lambda: nx.gnp_random_graph(60, 0.08, seed=5),
        lambda: oracle.star("hub", [f"leaf{i}" for i in range(20)]),
        lambda: nx.path_graph(30),
        # Small graphs whose samples hit cuts of exactly half the volume,
        # where the side ρ reads is fixed by the definition's tie rule.
        lambda: nx.gnp_random_graph(6, 0.4, seed=32),
        lambda: nx.gnp_random_graph(9, 0.4, seed=3),
    ]

    @pytest.mark.parametrize("make", GRAPHS)
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_diligence_sampled(self, make, seed):
        graph = make()
        if not nx.is_connected(graph):
            graph = graph.subgraph(max(nx.connected_components(graph), key=len)).copy()
        expected = oracle.diligence_sampled(graph, samples=150, rng=seed)
        assert diligence_sampled(graph, samples=150, rng=seed) == expected
        snapshot = CsrSnapshot.from_networkx(graph)
        assert diligence_sampled(snapshot, samples=150, rng=seed) == expected

    @pytest.mark.parametrize("make", GRAPHS)
    def test_absolute_diligence(self, make):
        graph = make()
        assert absolute_diligence(graph) == oracle.absolute_diligence(graph)
