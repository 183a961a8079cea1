"""Unit tests for the DynamicNetwork protocol and the SnapshotRecorder."""

import math

import pytest

from repro.dynamics.base import DynamicNetwork, SnapshotRecorder
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.generators import clique_csr, star_csr
from repro.graphs.metrics import GraphMetrics


class MinimalNetwork(DynamicNetwork):
    """A trivial concrete network for protocol tests."""

    def __init__(self, n=5):
        super().__init__(list(range(n)))
        self.build_calls = []

    def _build_snapshot_step(self, t, informed):
        self.build_calls.append((t, informed))
        return clique_csr(range(self.n))


class WrongNodesNetwork(DynamicNetwork):
    def _build_snapshot_step(self, t, informed):
        return clique_csr(range(self.n + 1))


class ReorderedNodesNetwork(DynamicNetwork):
    def _build_snapshot_step(self, t, informed):
        return clique_csr(reversed(self.nodes))


class TestProtocol:
    def test_nodes_and_n(self):
        network = MinimalNetwork(7)
        assert network.n == 7
        assert network.nodes == tuple(range(7))

    def test_default_source_is_first_node(self):
        assert MinimalNetwork(4).default_source() == 0

    def test_reset_required_before_snapshots(self):
        network = MinimalNetwork()
        with pytest.raises(ValueError):
            network.snapshot_for_step(0, frozenset())

    def test_steps_must_increase(self):
        network = MinimalNetwork()
        network.reset(0)
        network.snapshot_for_step(0, frozenset())
        network.snapshot_for_step(2, frozenset())
        with pytest.raises(ValueError):
            network.snapshot_for_step(1, frozenset())

    def test_negative_or_non_integer_step_rejected(self):
        network = MinimalNetwork()
        network.reset(0)
        with pytest.raises(ValueError):
            network.snapshot_for_step(-1, frozenset())
        with pytest.raises(ValueError):
            network.snapshot_for_step(0.5, frozenset())

    def test_reset_allows_reuse(self):
        network = MinimalNetwork()
        network.reset(0)
        network.snapshot_for_step(3, frozenset())
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        assert snapshot.n == network.n

    def test_informed_set_is_passed_as_frozenset(self):
        network = MinimalNetwork()
        network.reset(0)
        network.snapshot_for_step(0, {1, 2})
        assert isinstance(network.build_calls[0][1], frozenset)
        assert network.build_calls[0][1] == frozenset({1, 2})

    def test_snapshot_node_set_is_validated(self):
        network = WrongNodesNetwork(list(range(4)))
        network.reset(0)
        with pytest.raises(ValueError):
            network.snapshot_for_step(0, frozenset())

    def test_snapshot_node_order_is_validated(self):
        network = ReorderedNodesNetwork(list(range(4)))
        network.reset(0)
        with pytest.raises(ValueError, match="node order"):
            network.snapshot_for_step(0, frozenset())

    def test_build_snapshot_step_is_the_only_abstract_method(self):
        assert DynamicNetwork.__abstractmethods__ == frozenset({"_build_snapshot_step"})

    def test_duplicate_node_labels_rejected(self):
        class DuplicateLabels(DynamicNetwork):
            def __init__(self):
                super().__init__([1, 1, 2])

            def _build_snapshot_step(self, t, informed):
                return clique_csr([1, 2])

        with pytest.raises(ValueError):
            DuplicateLabels()

    def test_known_metrics_default_is_none(self):
        assert MinimalNetwork().known_step_metrics(0) is None


class TestSnapshotRecorder:
    def test_full_mode_measures_small_snapshots(self):
        network = StaticDynamicNetwork(star_csr(0, range(1, 8)), precompute_metrics=False)
        recorder = SnapshotRecorder(mode="full", prefer_known=False)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        recorder.record(network, 0, snapshot, informed_count=1)
        assert recorder.conductance_series() == pytest.approx([1.0])
        assert recorder.diligence_series() == pytest.approx([1.0])
        assert recorder.absolute_diligence_series() == pytest.approx([1.0])
        assert recorder.connectivity_series() == [1]

    def test_cheap_mode_skips_expensive_metrics(self):
        network = StaticDynamicNetwork(clique_csr(range(25)), precompute_metrics=False)
        recorder = SnapshotRecorder(mode="cheap", prefer_known=False)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        recorder.record(network, 0, snapshot, informed_count=1)
        assert math.isnan(recorder.conductance_series()[0])
        assert recorder.absolute_diligence_series()[0] == pytest.approx(1 / 24)
        assert recorder.connectivity_series() == [1]

    def test_prefer_known_uses_network_metrics(self):
        metrics = GraphMetrics(
            conductance=0.42, diligence=0.9, absolute_diligence=0.1, connected=True, n=25
        )
        network = StaticDynamicNetwork(clique_csr(range(25)), metrics=metrics)
        recorder = SnapshotRecorder(mode="cheap", prefer_known=True)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        recorder.record(network, 0, snapshot, informed_count=1)
        assert recorder.conductance_series() == [0.42]
        assert recorder.diligence_series() == [0.9]

    def test_degree_history_tracking(self):
        network = StaticDynamicNetwork(star_csr(0, range(1, 5)))
        recorder = SnapshotRecorder(mode="cheap")
        network.reset(0)
        for step in range(3):
            snapshot = network.snapshot_for_step(step, frozenset())
            recorder.record(network, step, snapshot, informed_count=1)
        assert recorder.degree_history[0] == [4, 4, 4]
        assert recorder.degree_history[1] == [1, 1, 1]

    def test_track_degrees_can_be_disabled(self):
        network = StaticDynamicNetwork(star_csr(0, range(1, 5)))
        recorder = SnapshotRecorder(mode="cheap", track_degrees=False)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        recorder.record(network, 0, snapshot, informed_count=1)
        assert recorder.degree_history == {}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SnapshotRecorder(mode="approximate")

    def test_disconnected_snapshot_indicator(self):
        graph = CsrSnapshot.from_edge_arrays(range(4), [0, 2], [1, 3])
        network = StaticDynamicNetwork(graph, precompute_metrics=False)
        recorder = SnapshotRecorder(mode="cheap", prefer_known=False)
        network.reset(0)
        snapshot = network.snapshot_for_step(0, frozenset())
        recorder.record(network, 0, snapshot, informed_count=1)
        assert recorder.connectivity_series() == [0]
