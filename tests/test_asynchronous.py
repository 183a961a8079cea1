"""Unit tests for the asynchronous rumor spreading simulator."""

import math

import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading, default_time_limit
from repro.core.variants import Variant
from repro.dynamics.base import SnapshotRecorder
from repro.dynamics.dichotomy import DynamicStarNetwork
from repro.dynamics.sequences import ExplicitSequenceNetwork, StaticDynamicNetwork
import networkx as nx
from graph_oracles import clique, cycle, path, star


class TestBasics:
    def test_single_run_informs_everyone(self, small_clique_network, async_process):
        result = async_process.run(small_clique_network, rng=0)
        assert result.completed
        assert result.informed_count == 10
        assert result.spread_time > 0
        assert not result.synchronous

    def test_source_is_informed_at_time_zero(self, small_path_network, async_process):
        result = async_process.run(small_path_network, source=3, rng=1)
        assert result.informed_times[3] == 0.0
        assert result.source == 3

    def test_unknown_source_rejected(self, small_path_network, async_process):
        with pytest.raises(ValueError):
            async_process.run(small_path_network, source=99, rng=0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            AsynchronousRumorSpreading(engine="magic")

    def test_invalid_max_time_rejected(self, small_path_network, async_process):
        with pytest.raises(ValueError):
            async_process.run(small_path_network, rng=0, max_time=0.0)

    def test_default_time_limit_scales_quadratically(self):
        assert default_time_limit(10) < default_time_limit(100)
        assert default_time_limit(100) >= 4 * 100 * 100

    def test_informing_times_are_non_decreasing_along_path(self, async_process):
        network = StaticDynamicNetwork(path(range(8)))
        result = async_process.run(network, source=0, rng=2)
        times = [result.informed_times[node] for node in range(8)]
        assert times == sorted(times)

    def test_timeout_produces_incomplete_result(self, async_process):
        network = StaticDynamicNetwork(path(range(30)))
        result = async_process.run(network, source=0, rng=3, max_time=0.5)
        assert not result.completed
        assert math.isinf(result.spread_time)
        assert result.informed_count < 30

    def test_reproducibility_with_same_seed(self, small_cycle_network, async_process):
        first = async_process.run(small_cycle_network, rng=7)
        second = async_process.run(small_cycle_network, rng=7)
        assert first.spread_time == second.spread_time
        assert first.informed_times == second.informed_times

    def test_different_seeds_differ(self, small_clique_network, async_process):
        first = async_process.run(small_clique_network, rng=1)
        second = async_process.run(small_clique_network, rng=2)
        assert first.spread_time != second.spread_time

    def test_single_node_network(self, async_process):
        graph = nx.Graph()
        graph.add_node(0)
        network = StaticDynamicNetwork(graph)
        result = async_process.run(network, rng=0)
        assert result.completed
        assert result.spread_time == 0.0

    def test_events_counted(self, small_clique_network, async_process):
        result = async_process.run(small_clique_network, rng=0)
        assert result.events == 9  # one informing event per non-source node


class TestDisconnectedAndDynamic:
    def test_disconnected_static_network_never_completes(self, async_process):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        network = StaticDynamicNetwork(graph, precompute_metrics=False)
        result = async_process.run(network, source=0, rng=0, max_time=30.0)
        assert not result.completed
        assert set(result.informed_times) == {0, 1}

    def test_temporarily_disconnected_network_completes_after_reconnection(self, async_process):
        # Step 0: only {0,1} and {2,3} components; step 1 onwards: a path.
        disconnected = nx.Graph()
        disconnected.add_edges_from([(0, 1), (2, 3)])
        connected = path(range(4))
        network = ExplicitSequenceNetwork([disconnected, connected])
        result = async_process.run(network, source=0, rng=1)
        assert result.completed
        # Nodes 2 and 3 can only have been informed after the reconnection.
        assert result.informed_times[2] >= 1.0
        assert result.informed_times[3] >= 1.0

    def test_adaptive_network_receives_growing_informed_sets(self, async_process):
        observed = []

        class Spy(DynamicStarNetwork):
            def _build_snapshot_step(self, t, informed):
                observed.append(len(informed))
                return super()._build_snapshot_step(t, informed)

        result = async_process.run(Spy(12), rng=0)
        assert result.completed
        assert len(observed) > 0
        assert observed == sorted(observed)

    def test_recorder_sees_every_step(self, async_process):
        network = StaticDynamicNetwork(cycle(range(12)))
        recorder = SnapshotRecorder(mode="cheap")
        result = async_process.run(network, rng=4, recorder=recorder)
        assert len(recorder.steps) == result.steps_used
        assert [step.t for step in recorder.steps] == list(range(result.steps_used))


class TestVariants:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_all_variants_complete_on_a_clique(self, variant):
        process = AsynchronousRumorSpreading(variant=variant)
        network = StaticDynamicNetwork(clique(range(8)))
        result = process.run(network, rng=0)
        assert result.completed

    def test_pull_only_cannot_cross_into_a_leaf_forest(self):
        # On a star with the rumor at the centre, pull-only still works (leaves
        # pull); with the rumor at a leaf, push-only still works... both
        # complete, but pure PULL from a leaf source requires the centre to
        # pull from the leaf, which happens at rate 1/n — so it is much slower
        # than push-pull.
        network = StaticDynamicNetwork(star(0, range(1, 15)))
        pull = AsynchronousRumorSpreading(variant=Variant.PULL)
        push_pull = AsynchronousRumorSpreading(variant=Variant.PUSH_PULL)
        pull_times = [pull.run(network, source=1, rng=seed).spread_time for seed in range(8)]
        push_pull_times = [
            push_pull.run(network, source=1, rng=seed).spread_time for seed in range(8)
        ]
        assert sum(pull_times) > sum(push_pull_times)

    def test_two_push_is_faster_than_push_on_regular_graphs(self):
        network = StaticDynamicNetwork(cycle(range(16)))
        push = AsynchronousRumorSpreading(variant=Variant.PUSH)
        two_push = AsynchronousRumorSpreading(variant=Variant.TWO_PUSH)
        push_mean = sum(push.run(network, rng=seed).spread_time for seed in range(10)) / 10
        two_push_mean = sum(two_push.run(network, rng=seed).spread_time for seed in range(10)) / 10
        assert two_push_mean < push_mean


class TestNaiveEngine:
    def test_naive_engine_completes(self, small_clique_network):
        process = AsynchronousRumorSpreading(engine="naive")
        result = process.run(small_clique_network, rng=0)
        assert result.completed
        assert result.events > 0

    def test_naive_engine_counts_all_ticks(self, small_clique_network):
        process = AsynchronousRumorSpreading(engine="naive")
        result = process.run(small_clique_network, rng=0)
        # Every tick is an event, so there are at least as many events as
        # informing contacts.
        assert result.events >= result.informed_count - 1

    def test_naive_engine_timeout(self):
        network = StaticDynamicNetwork(path(range(20)))
        process = AsynchronousRumorSpreading(engine="naive")
        result = process.run(network, source=0, rng=1, max_time=0.2)
        assert not result.completed
