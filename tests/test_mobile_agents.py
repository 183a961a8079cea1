"""Unit tests for the mobile-agents proximity network."""

import numpy as np
import pytest

from repro.dynamics.mobile_agents import MobileAgentsNetwork
from graph_oracles import edge_set


class TestConstruction:
    def test_basic_parameters(self):
        network = MobileAgentsNetwork(10, side=8, radius=1)
        assert network.n == 10
        assert network.side == 8

    def test_positions_require_reset(self):
        network = MobileAgentsNetwork(5, side=4)
        with pytest.raises(ValueError):
            network.positions()

    def test_positions_within_grid(self):
        network = MobileAgentsNetwork(20, side=5, rng=0)
        network.reset(0)
        positions = network.positions()
        assert positions.shape == (20, 2)
        assert positions.min() >= 0
        assert positions.max() < 5


class TestSnapshots:
    def test_snapshot_nodes_are_agents(self):
        network = MobileAgentsNetwork(12, side=6)
        network.reset(1)
        snapshot = network.snapshot_for_step(0, frozenset())
        assert snapshot.nodes == tuple(range(12))

    def test_radius_zero_connects_only_colocated_agents(self):
        network = MobileAgentsNetwork(30, side=2, radius=0, rng=2)
        network.reset(2)
        snapshot = network.snapshot_for_step(0, frozenset())
        positions = network.positions()
        for u, v in edge_set(snapshot):
            assert tuple(positions[u]) == tuple(positions[v])

    def test_radius_one_connects_adjacent_cells(self):
        network = MobileAgentsNetwork(40, side=4, radius=1, rng=3)
        network.reset(3)
        snapshot = network.snapshot_for_step(0, frozenset())
        positions = network.positions()
        side = network.side
        for u, v in edge_set(snapshot):
            dx = abs(int(positions[u, 0]) - int(positions[v, 0]))
            dy = abs(int(positions[u, 1]) - int(positions[v, 1]))
            dx = min(dx, side - dx)
            dy = min(dy, side - dy)
            assert max(dx, dy) <= 1

    def test_large_radius_yields_complete_graph(self):
        network = MobileAgentsNetwork(8, side=3, radius=3, rng=4)
        network.reset(4)
        snapshot = network.snapshot_for_step(0, frozenset())
        assert snapshot.edge_count == 8 * 7 // 2

    def test_positions_move_by_at_most_one_cell_per_step(self):
        network = MobileAgentsNetwork(15, side=10, torus=False, rng=5)
        network.reset(5)
        network.snapshot_for_step(0, frozenset())
        before = network.positions()
        network.snapshot_for_step(1, frozenset())
        after = network.positions()
        assert np.all(np.abs(after - before) <= 1)

    def test_reflecting_walk_stays_in_bounds(self):
        network = MobileAgentsNetwork(10, side=3, torus=False, rng=6)
        network.reset(6)
        for t in range(20):
            network.snapshot_for_step(t, frozenset())
        positions = network.positions()
        assert positions.min() >= 0
        assert positions.max() < 3

    def test_seeded_runs_reproduce(self):
        network_a = MobileAgentsNetwork(10, side=6, rng=0)
        network_b = MobileAgentsNetwork(10, side=6, rng=0)
        network_a.reset(9)
        network_b.reset(9)
        for t in range(4):
            snapshot_a = network_a.snapshot_for_step(t, frozenset())
            snapshot_b = network_b.snapshot_for_step(t, frozenset())
            assert edge_set(snapshot_a) == edge_set(snapshot_b)
