"""Unit tests for the fault model and fault-injected runs."""

import math

import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.faults import FaultModel
from repro.core.synchronous import SynchronousRumorSpreading
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, path


class TestFaultModel:
    def test_none_model_has_no_faults(self):
        model = FaultModel.none()
        assert not model.has_faults
        assert model.delivery_probability() == 1.0

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            FaultModel(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultModel(drop_probability=-0.1)

    def test_crashed_nodes_are_down_forever(self):
        model = FaultModel(crashed_nodes={3})
        assert model.is_down(3, 0.0)
        assert model.is_down(3, 100.0)
        assert not model.is_down(2, 50.0)

    def test_crash_times(self):
        model = FaultModel(crash_times={5: 10.0})
        assert not model.is_down(5, 9.9)
        assert model.is_down(5, 10.0)
        assert model.is_down(5, 11.0)

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(crash_times={1: -2.0})

    def test_active_nodes(self):
        model = FaultModel(crashed_nodes={0}, crash_times={1: 5.0})
        assert model.active_nodes(range(4), 0.0) == frozenset({1, 2, 3})
        assert model.active_nodes(range(4), 6.0) == frozenset({2, 3})


class TestFaultInjectedRuns:
    def test_async_run_with_crashed_node_completes_on_survivors(self):
        network = StaticDynamicNetwork(clique(range(8)))
        faults = FaultModel(crashed_nodes={7})
        process = AsynchronousRumorSpreading(faults=faults)
        result = process.run(network, source=0, rng=0)
        assert result.completed
        assert 7 not in result.informed_times
        assert len(result.informed_times) == 7

    def test_crashed_cut_vertex_leaves_far_side_unreachable(self):
        # Crashing the middle of a path cuts the rumor off from the far side:
        # nodes 3 and 4 stay alive but unreachable, so the run never completes.
        network = StaticDynamicNetwork(path(range(5)))
        faults = FaultModel(crashed_nodes={2})
        process = AsynchronousRumorSpreading(faults=faults)
        result = process.run(network, source=0, rng=1, max_time=50.0)
        assert not result.completed
        assert set(result.informed_times) == {0, 1}

    def test_message_drops_slow_the_spread(self):
        network = StaticDynamicNetwork(clique(range(12)))
        slow = AsynchronousRumorSpreading(faults=FaultModel(drop_probability=0.9))
        fast = AsynchronousRumorSpreading()
        slow_times = [slow.run(network, rng=seed).spread_time for seed in range(10)]
        fast_times = [fast.run(network, rng=seed).spread_time for seed in range(10)]
        assert sum(slow_times) / 10 > sum(fast_times) / 10

    def test_drop_probability_one_never_completes(self):
        network = StaticDynamicNetwork(clique(range(6)))
        process = AsynchronousRumorSpreading(faults=FaultModel(drop_probability=1.0))
        result = process.run(network, rng=0, max_time=20.0)
        assert not result.completed
        assert math.isinf(result.spread_time)
        assert len(result.informed_times) == 1

    def test_crash_time_mid_run_boundary_engine(self):
        network = StaticDynamicNetwork(path(range(4)))
        faults = FaultModel(crash_times={3: 0.001})
        process = AsynchronousRumorSpreading(faults=faults)
        result = process.run(network, source=0, rng=2, max_time=100.0)
        assert result.completed
        assert 3 not in result.informed_times

    def test_sync_run_with_drops_and_crashes(self):
        network = StaticDynamicNetwork(clique(range(10)))
        faults = FaultModel(drop_probability=0.5, crashed_nodes={9})
        process = SynchronousRumorSpreading(faults=faults)
        result = process.run(network, source=0, rng=3)
        assert result.completed
        assert 9 not in result.informed_times

    def test_naive_engine_honours_faults(self):
        network = StaticDynamicNetwork(clique(range(6)))
        faults = FaultModel(crashed_nodes={5})
        process = AsynchronousRumorSpreading(engine="naive", faults=faults)
        result = process.run(network, source=0, rng=4)
        assert result.completed
        assert 5 not in result.informed_times
