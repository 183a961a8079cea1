"""Unit tests for the Theorem 1.2 adaptive network G(n, rho)."""

import math

import pytest

from repro.dynamics.diligent import DiligentDynamicNetwork, default_chain_length


class TestDefaults:
    def test_default_chain_length_grows_slowly(self):
        assert default_chain_length(100) >= 1
        assert default_chain_length(10_000) >= default_chain_length(100)
        assert default_chain_length(10_000) <= 10

    def test_default_chain_length_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_chain_length(1)


class TestConstruction:
    def test_basic_parameters(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=0)
        assert network.n == 160
        assert network.delta == 4
        assert network.k == default_chain_length(160)

    def test_rejects_too_small_n(self):
        with pytest.raises(ValueError):
            DiligentDynamicNetwork(30, 0.25)

    def test_rejects_incompatible_rho(self):
        # rho so small that |B| cannot host the chain plus an expander.
        with pytest.raises(ValueError):
            DiligentDynamicNetwork(60, 0.01)

    def test_rejects_invalid_rho(self):
        with pytest.raises(ValueError):
            DiligentDynamicNetwork(160, 0.0)
        with pytest.raises(ValueError):
            DiligentDynamicNetwork(160, 1.5)

    def test_default_source_is_in_part_a_expander(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=0)
        source = network.default_source()
        network.reset(0)
        network.snapshot_for_step(0, frozenset({source}))
        assert source in set(range(160 // 4))  # part A initially is nodes 0..n/4-1
        assert source >= network.delta  # not in S_0

    def test_initial_snapshot_is_connected_with_right_nodes(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=1)
        network.reset(1)
        snapshot = network.snapshot_for_step(0, frozenset({network.default_source()}))
        assert snapshot.nodes == tuple(range(160))
        assert snapshot.is_connected()


class TestAdaptivity:
    def test_snapshot_kept_when_b_does_not_shrink(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=2)
        network.reset(2)
        informed = frozenset({network.default_source()})
        first = network.snapshot_for_step(0, informed)
        second = network.snapshot_for_step(1, informed)
        # No B-node was informed, so the snapshot must be reused verbatim.
        assert second is first

    def test_snapshot_rebuilt_when_b_shrinks(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=3)
        network.reset(3)
        source = network.default_source()
        first = network.snapshot_for_step(0, frozenset({source}))
        # Inform a couple of B-side nodes (B initially is nodes n/4 .. n-1).
        informed = frozenset({source, 60, 61, 62})
        second = network.snapshot_for_step(1, informed)
        assert second is not first
        # The freshly informed B nodes must now sit on the A side: they are no
        # longer in any cluster S_1..S_k nor in the B expander; equivalently
        # the current B part excludes them.
        assert not (set(network._part_b) & set(informed))

    def test_rebuild_stops_when_b_reaches_quarter(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=4)
        network.reset(4)
        source = network.default_source()
        first = network.snapshot_for_step(0, frozenset({source}))
        # Inform so many B nodes that |B| would fall below n/4.
        informed = frozenset(range(0, 140))
        second = network.snapshot_for_step(1, informed)
        assert second is first

    def test_known_metrics_match_observation_4_1(self):
        network = DiligentDynamicNetwork(160, 0.25, rng=5)
        network.reset(5)
        network.snapshot_for_step(0, frozenset({network.default_source()}))
        metrics = network.known_step_metrics(0)
        delta = network.delta
        assert metrics.diligence == pytest.approx(1 / delta)
        assert metrics.conductance == pytest.approx(
            delta**2 / (network.k * delta**2 + 160)
        )
        assert metrics.connected

    def test_predictions_are_positive_and_ordered(self):
        network = DiligentDynamicNetwork(200, 0.2, rng=6)
        lower = network.predicted_lower_bound()
        upper = network.predicted_upper_bound()
        assert 0 < lower
        assert lower < upper
