"""Unit tests for the Figure 1 dichotomy networks G1 and G2."""

import networkx as nx
import numpy as np
import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.synchronous import SynchronousRumorSpreading
from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork
from graph_oracles import degree, has_edge
import process_oracles


def center_of(snapshot):
    """Label of the highest-degree node (the centre of a star)."""
    return snapshot.nodes[int(np.argmax(snapshot.degrees))]


class TestCliqueBridgeNetwork:
    def test_node_set_and_source(self):
        network = CliqueBridgeNetwork(10)
        assert network.n == 11
        assert network.default_source() == 11

    def test_initial_snapshot_is_clique_with_pendant(self):
        network = CliqueBridgeNetwork(10)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset({11}))
        assert degree(snapshot, 11) == 1
        assert degree(snapshot, 1) == 10
        assert has_edge(snapshot, 1, 11)

    def test_later_snapshots_are_bridged_cliques(self):
        network = CliqueBridgeNetwork(10)
        network.reset(0)
        network.snapshot_for_step(0, frozenset({11}))
        snapshot = network.snapshot_for_step(1, frozenset({11}))
        copy = snapshot.to_networkx().copy()
        copy.remove_edge(1, 11)
        assert not nx.is_connected(copy)
        # All later snapshots are the same object (G(t) = G(1) for t >= 1).
        assert network.snapshot_for_step(2, frozenset({11})) is snapshot
        assert network.snapshot_for_step(3, frozenset({11})) is snapshot

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
        snapshot = network.snapshot_for_step(0, frozenset({1}))
        assert degree(snapshot, 0) == 10

    def test_center_is_always_uninformed_when_possible(self):
        network = DynamicStarNetwork(10, randomize=False)
        network.reset(0)
        network.snapshot_for_step(0, frozenset({1}))
        informed = frozenset({0, 1, 2, 3})
        snapshot = network.snapshot_for_step(1, informed)
        assert center_of(snapshot) not in informed

    def test_random_center_is_uninformed(self):
        network = DynamicStarNetwork(10, randomize=True)
        network.reset(7)
        network.snapshot_for_step(0, frozenset({1}))
        informed = frozenset({0, 1, 2})
        for t in range(1, 6):
            snapshot = network.snapshot_for_step(t, informed)
            assert center_of(snapshot) not in informed

    def test_all_informed_picks_some_center(self):
        network = DynamicStarNetwork(5)
        network.reset(3)
        network.snapshot_for_step(0, frozenset({1}))
        everyone = frozenset(range(6))
        snapshot = network.snapshot_for_step(1, everyone)
        assert center_of(snapshot) in everyone

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
            snapshot = network.snapshot_for_step(t, informed)
            assert sorted(snapshot.degrees.tolist()) == [1] * 7 + [7]

    @pytest.mark.parametrize("randomize", [True, False])
    def test_centre_sequence_matches_the_label_scan(self, randomize):
        # The array-built candidates pick the same centres, and leave the run
        # generator in the same state, as the old scan over node labels,
        # including steps after every node is informed.
        leaves = 12
        for seed in range(6):
            network = DynamicStarNetwork(leaves, randomize=randomize)
            network.reset(seed)
            oracle_rng = np.random.default_rng(seed)
            growth = np.random.default_rng(100 + seed)
            informed = {1}
            network.snapshot_for_step(0, frozenset(informed))
            last_center = 0
            for t in range(1, 12):
                informed |= {int(u) for u in growth.choice(leaves + 1, size=2)}
                if t >= 8:
                    informed = set(range(leaves + 1))
                network.snapshot_for_step(t, frozenset(informed))
                last_center = process_oracles.dynamic_star_center(
                    network.nodes, frozenset(informed), last_center, randomize, oracle_rng
                )
                assert network._last_center == last_center, (seed, t)
            assert network._run_rng.random() == oracle_rng.random()


class RecordingStar(DynamicStarNetwork):
    """A dynamic star that records its centres, optionally picked by the oracle."""

    def __init__(self, n, oracle):
        super().__init__(n)
        self.oracle = oracle
        self.centres = []

    def _pick_center(self, informed):
        if self.oracle:
            return process_oracles.dynamic_star_center(
                self.nodes, informed, self._last_center, self._randomize, self._run_rng
            )
        return super()._pick_center(informed)

    def _center_for(self, t, informed):
        centre = super()._center_for(t, informed)
        self.centres.append(centre)
        return centre


class TestCentreDrawInWholeRuns:
    """``integers`` picks the centres ``Generator.choice`` picked, run after run."""

    @pytest.mark.parametrize(
        "process",
        [
            AsynchronousRumorSpreading(engine="boundary"),
            AsynchronousRumorSpreading(engine="naive"),
            SynchronousRumorSpreading(),
        ],
        ids=["boundary", "naive", "sync"],
    )
    def test_equal_centres_and_spread_times(self, process):
        for seed in range(5):
            library, oracle = RecordingStar(20, False), RecordingStar(20, True)
            result = process.run(library, rng=seed)
            expected = process.run(oracle, rng=seed)
            assert library.centres == oracle.centres and len(library.centres) > 2
            assert result.spread_time == expected.spread_time
            assert result.informed_times == expected.informed_times
