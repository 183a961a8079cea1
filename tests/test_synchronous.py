"""Unit tests for the synchronous rumor spreading simulator."""

import math

import networkx as nx
import pytest

from repro.core.faults import FaultModel
from repro.core.synchronous import SynchronousRumorSpreading, SyncVariant, default_round_limit
from repro.dynamics.base import SnapshotRecorder
from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, path, star


class TestBasics:
    def test_run_completes_and_counts_rounds(self, small_clique_network, sync_process):
        result = sync_process.run(small_clique_network, rng=0)
        assert result.completed
        assert result.synchronous
        assert result.spread_time == float(int(result.spread_time))
        assert result.spread_time >= 1

    def test_unknown_source_rejected(self, small_clique_network, sync_process):
        with pytest.raises(ValueError):
            sync_process.run(small_clique_network, source=123, rng=0)

    def test_round_limit(self, sync_process):
        network = StaticDynamicNetwork(path(range(40)))
        result = sync_process.run(network, source=0, rng=0, max_rounds=2)
        assert not result.completed
        assert math.isinf(result.spread_time)

    def test_default_round_limit_scales(self):
        assert default_round_limit(50) >= 4 * 50 * 50

    def test_reproducibility(self, small_cycle_network, sync_process):
        first = sync_process.run(small_cycle_network, rng=11)
        second = sync_process.run(small_cycle_network, rng=11)
        assert first.informed_times == second.informed_times

    def test_recorder_sees_each_round(self, small_star_network, sync_process):
        recorder = SnapshotRecorder(mode="cheap")
        result = sync_process.run(small_star_network, rng=1, recorder=recorder)
        assert len(recorder.steps) == result.steps_used


class TestRoundSemantics:
    def test_push_pull_on_an_edge_takes_one_round(self, sync_process):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        network = StaticDynamicNetwork(graph)
        result = sync_process.run(network, source=0, rng=0)
        assert result.spread_time == 1.0

    def test_star_from_center_one_round_informs_many(self, sync_process):
        network = StaticDynamicNetwork(star(0, range(1, 20)))
        result = sync_process.run(network, source=0, rng=0)
        # Every leaf pulls from the centre in the first round.
        assert result.informed_at(1.0) == 20

    def test_knowledge_is_evaluated_at_round_start(self, sync_process):
        # On a path 0-1-2 with the rumor at 0, node 2 can never learn the
        # rumor in round 1: node 1 only learns it during round 1.
        network = StaticDynamicNetwork(path(range(3)))
        for seed in range(10):
            result = sync_process.run(network, source=0, rng=seed)
            assert result.informed_times[2] >= 2.0

    def test_dynamic_star_takes_exactly_n_rounds(self, sync_process):
        for n in (8, 17, 33):
            result = sync_process.run(DynamicStarNetwork(n), rng=n)
            assert result.completed
            assert result.spread_time == float(n)

    def test_clique_bridge_first_round_crosses_pendant(self, sync_process):
        result = sync_process.run(CliqueBridgeNetwork(16), rng=0)
        assert result.informed_times[1] == 1.0  # the pendant's only neighbour
        assert result.completed
        assert result.spread_time <= 4 * math.log2(16)


class TestVariantsAndFaults:
    def test_flooding_on_a_path_takes_diameter_rounds(self):
        process = SynchronousRumorSpreading(variant=SyncVariant.FLOODING)
        network = StaticDynamicNetwork(path(range(9)))
        result = process.run(network, source=0, rng=0)
        assert result.completed
        assert result.spread_time == 8.0

    def test_flooding_on_clique_takes_one_round(self):
        process = SynchronousRumorSpreading(variant=SyncVariant.FLOODING)
        network = StaticDynamicNetwork(clique(range(12)))
        result = process.run(network, source=3, rng=0)
        assert result.spread_time == 1.0

    def test_push_only_from_star_center(self):
        # Push-only from the centre: each round the centre pushes to one
        # uniformly random leaf, so it takes many rounds (coupon collector).
        process = SynchronousRumorSpreading(variant=SyncVariant.PUSH)
        network = StaticDynamicNetwork(star(0, range(1, 8)))
        result = process.run(network, source=0, rng=0)
        assert result.completed
        assert result.spread_time >= 7.0

    def test_pull_only_from_star_center(self):
        # Pull-only from the centre: every leaf pulls from the centre in the
        # first round.
        process = SynchronousRumorSpreading(variant=SyncVariant.PULL)
        network = StaticDynamicNetwork(star(0, range(1, 8)))
        result = process.run(network, source=0, rng=0)
        assert result.spread_time == 1.0

    def test_crashed_node_is_excluded(self):
        process = SynchronousRumorSpreading(faults=FaultModel(crashed_nodes={4}))
        network = StaticDynamicNetwork(clique(range(6)))
        result = process.run(network, source=0, rng=0)
        assert result.completed
        assert 4 not in result.informed_times

    def test_full_message_loss_never_completes(self):
        process = SynchronousRumorSpreading(faults=FaultModel(drop_probability=1.0))
        network = StaticDynamicNetwork(clique(range(6)))
        result = process.run(network, source=0, rng=0, max_rounds=30)
        assert not result.completed
        assert result.informed_count == 1
