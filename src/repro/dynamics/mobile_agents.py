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

from typing import Optional

import numpy as np

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.utils.rng import RngLike
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
        Ignored; accepted for backward compatibility.  Initial placement and
        the walks are drawn from the generator passed to ``reset``.
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

    def _proximity_graph(self) -> CsrSnapshot:
        """Join every pair of agents within Chebyshev distance ``radius``.

        Each agent ``a`` lists its partners ``b > a`` cell offset by cell
        offset (``dx`` then ``dy``, ascending), and within a cell by agent id,
        keeping a pair's first occurrence: a torus with ``2·radius + 1 > side``
        reaches one cell through several offsets.  That is the order in which
        networkx lists the edges of the graph built by scanning cells and
        offsets, so the snapshot equals its ``from_networkx`` conversion.
        """
        n, side, radius = self.n, self.side, self.radius
        x, y = self._positions[:, 0], self._positions[:, 1]
        # Agents grouped by cell, ascending within each cell.
        cell = x * side + y
        by_cell = np.argsort(cell, kind="stable")
        cells, first, counts = np.unique(cell[by_cell], return_index=True, return_counts=True)
        offsets = np.arange(-radius, radius + 1)
        tx = x[:, None] + np.repeat(offsets, len(offsets))[None, :]
        ty = y[:, None] + np.tile(offsets, len(offsets))[None, :]
        if self.torus:
            tx, ty = tx % side, ty % side
            valid = np.ones(tx.shape, dtype=bool)
        else:
            valid = (tx >= 0) & (tx < side) & (ty >= 0) & (ty < side)
        target = (tx * side + ty).ravel()
        slot = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
        hit = np.flatnonzero(valid.ravel() & (cells[slot] == target))
        slot = slot[hit]
        # Expand each (agent, offset) hit into the members of its target cell.
        sizes = counts[slot]
        total = int(sizes.sum())
        shifts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        u_ids = np.repeat(hit // len(offsets) ** 2, sizes)
        v_ids = by_cell[np.arange(total) - shifts + np.repeat(first[slot], sizes)]
        later = v_ids > u_ids
        u_ids, v_ids = u_ids[later], v_ids[later]
        if self.torus and 2 * radius + 1 > side:
            _, keep = np.unique(u_ids * n + v_ids, return_index=True)
            keep.sort()
            u_ids, v_ids = u_ids[keep], v_ids[keep]
        return CsrSnapshot.from_edge_arrays(self._nodes, u_ids, v_ids)

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        require(self._positions is not None, "call reset() before requesting snapshots")
        if t > 0:
            self._step_walk()
        return self._proximity_graph()


__all__ = ["MobileAgentsNetwork"]
