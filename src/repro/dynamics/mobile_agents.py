"""Mobile-agent proximity networks (Pettarin et al. / Lam et al. baselines).

The related work of the paper (Section 1.2) considers information
dissemination among mobile agents performing independent random walks on a
2-dimensional grid, where two agents can communicate whenever they are within
a fixed transmission radius.  We model this directly: the dynamic network's
nodes are the agents, and snapshot ``t`` connects every pair of agents whose
Chebyshev (or Manhattan) distance on the grid is at most ``radius`` after the
``t``-th simultaneous random-walk step.

Snapshots may be disconnected — this is the main practical difference from
the adversarial constructions, and it exercises the ``⌈Φ⌉`` indicator of
Theorem 1.3 (disconnected steps contribute nothing to the bound's budget).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count, require_positive

#: The four axis-aligned moves plus "stay put" (lazy walk keeps the chain aperiodic).
_MOVES = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)


class MobileAgentsNetwork(DynamicNetwork):
    """Agents performing lazy random walks on a ``side × side`` torus/grid.

    Parameters
    ----------
    agents:
        Number of agents (= nodes of the dynamic network).
    side:
        Side length of the square grid.
    radius:
        Communication radius: agents at Chebyshev distance at most ``radius``
        are joined by an edge in the snapshot.
    torus:
        If True (default) the grid wraps around; otherwise walks reflect at
        the boundary.
    rng:
        Seed / generator for initial placement and the walks.
    """

    def __init__(
        self,
        agents: int,
        side: int,
        radius: int = 1,
        torus: bool = True,
        rng: RngLike = None,
    ):
        require_node_count(agents, minimum=2, name="agents")
        require_node_count(side, minimum=2, name="side")
        require_node_count(radius, minimum=0, name="radius")
        super().__init__(list(range(agents)))
        self.side = side
        self.radius = radius
        self.torus = torus
        self._base_rng = ensure_rng(rng)
        self._run_rng = None
        self._positions: Optional[np.ndarray] = None

    def _on_reset(self, rng) -> None:
        self._run_rng = rng
        self._positions = rng.integers(0, self.side, size=(self.n, 2))

    def positions(self) -> np.ndarray:
        """Return a copy of the current agent positions (``n × 2`` array)."""
        require(self._positions is not None, "call reset() before reading positions")
        return self._positions.copy()

    def _step_walk(self) -> None:
        moves = _MOVES[self._run_rng.integers(0, len(_MOVES), size=self.n)]
        new_positions = self._positions + moves
        if self.torus:
            new_positions %= self.side
        else:
            new_positions = np.clip(new_positions, 0, self.side - 1)
        self._positions = new_positions

    def _proximity_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        positions = self._positions
        # Bucket agents by cell, then only compare agents in nearby buckets.
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for agent in range(self.n):
            cell = (int(positions[agent, 0]), int(positions[agent, 1]))
            buckets.setdefault(cell, []).append(agent)
        radius = self.radius
        for (x, y), members in buckets.items():
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    if self.torus:
                        other_cell = ((x + dx) % self.side, (y + dy) % self.side)
                    else:
                        other_cell = (x + dx, y + dy)
                    if other_cell not in buckets:
                        continue
                    for a in members:
                        for b in buckets[other_cell]:
                            if a < b:
                                graph.add_edge(a, b)
        return graph

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        require(self._positions is not None, "call reset() before requesting snapshots")
        if t > 0:
            self._step_walk()
        return CsrSnapshot.from_networkx(self._proximity_graph(), nodes=self._nodes)


__all__ = ["MobileAgentsNetwork"]
