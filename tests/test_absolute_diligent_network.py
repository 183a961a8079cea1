"""Unit tests for the Theorem 1.5 adaptive network (absolute diligence)."""

import pytest

from repro.dynamics.absolute_diligent import AbsolutelyDiligentNetwork, even_delta_for_rho
from graph_oracles import edge_set


class TestEvenDelta:
    def test_even_delta_values(self):
        assert even_delta_for_rho(0.25) == 4
        assert even_delta_for_rho(0.2) == 6
        assert even_delta_for_rho(1.0) == 2
        assert even_delta_for_rho(0.1) == 10

    def test_even_delta_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            even_delta_for_rho(0.0)
        with pytest.raises(ValueError):
            even_delta_for_rho(2.0)


class TestConstruction:
    def test_basic_parameters(self):
        network = AbsolutelyDiligentNetwork(48, 0.25)
        assert network.n == 48
        assert network.delta == 4
        assert network.default_source() == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            AbsolutelyDiligentNetwork(20, 0.25)

    def test_rejects_incompatible_rho(self):
        with pytest.raises(ValueError):
            AbsolutelyDiligentNetwork(48, 0.01)

    def test_initial_snapshot_structure(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=0)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset({1}))
        assert snapshot.nodes == tuple(range(48))
        assert snapshot.is_connected()
        # There is exactly one edge between the two halves (the bridge).
        half_a = set(range(24))
        crossing = [edge for edge in edge_set(snapshot) if len(edge & half_a) == 1]
        assert len(crossing) == 1

    def test_absolute_diligence_matches_one_over_delta_plus_one(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=1)
        network.reset(1)
        snapshot = network.snapshot_for_step(0, frozenset({1}))
        assert snapshot.absolute_diligence() == pytest.approx(1 / (network.delta + 1))

    def test_large_rho_degrades_base_degree_gracefully(self):
        network = AbsolutelyDiligentNetwork(48, 1.0, rng=2)
        network.reset(2)
        snapshot = network.snapshot_for_step(0, frozenset({1}))
        assert snapshot.is_connected()

    def test_known_metrics(self):
        network = AbsolutelyDiligentNetwork(60, 0.2)
        metrics = network.known_step_metrics(0)
        assert metrics.absolute_diligence == pytest.approx(1 / (network.delta + 1))
        assert metrics.connected


class TestAdaptivity:
    def test_snapshot_kept_when_b_unchanged(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=3)
        network.reset(3)
        informed = frozenset({1})
        first = network.snapshot_for_step(0, informed)
        second = network.snapshot_for_step(1, informed)
        assert second is first

    def test_snapshot_rebuilt_when_b_shrinks(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=4)
        network.reset(4)
        first = network.snapshot_for_step(0, frozenset({1}))
        informed = frozenset({1, 30, 31})
        second = network.snapshot_for_step(1, informed)
        assert second is not first
        assert not (set(network._part_b) & informed)

    def test_bridge_targets_an_uninformed_b_node(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=5)
        network.reset(5)
        network.snapshot_for_step(0, frozenset({1}))
        informed = frozenset({1, 30})
        snapshot = network.snapshot_for_step(1, informed)
        hub_neighbours = snapshot.neighbors(snapshot.index_of[network._hub])
        labels = [snapshot.nodes[i] for i in hub_neighbours.tolist()]
        b_neighbours = [v for v in labels if v in set(network._part_b)]
        assert len(b_neighbours) == 1
        assert b_neighbours[0] not in informed

    def test_rebuild_stops_when_b_reaches_sixth(self):
        network = AbsolutelyDiligentNetwork(48, 0.25, rng=6)
        network.reset(6)
        first = network.snapshot_for_step(0, frozenset({1}))
        informed = frozenset(range(45))
        second = network.snapshot_for_step(1, informed)
        assert second is first

    def test_predictions(self):
        network = AbsolutelyDiligentNetwork(60, 0.125)
        assert network.predicted_lower_bound() == pytest.approx(60 * 8 / 20)
        assert network.predicted_absolute_upper_bound() == pytest.approx(2 * 60 * 9)
