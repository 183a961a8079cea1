"""The dichotomy networks ``G1`` and ``G2`` of Figure 1 / Theorem 1.7.

``G1`` (Figure 1(a), oblivious):
    ``G(0)`` is an ``n``-node clique ``{1..n}`` with a pendant edge to node
    ``n+1``, which holds the rumor.  Every later snapshot is two equally-sized
    cliques joined by the bridge ``{1, n+1}``, with node 1 in the left clique
    and node ``n+1`` in the right clique.  The asynchronous algorithm misses
    the one-unit window to cross the pendant edge with constant probability
    and then needs ``Ω(n)`` time to cross the bridge, while the synchronous
    algorithm crosses the pendant edge deterministically in round 1 and
    finishes in ``Θ(log n)`` rounds.

``G2`` (Figure 1(b), adaptive):
    Every snapshot is a star on ``n+1`` nodes; the centre of snapshot ``t+1``
    is chosen to be an *uninformed* node (an arbitrary node when none remain).
    The synchronous algorithm informs exactly one node per round (the centre,
    which is immediately rotated out), so ``Ts(G2) = n``; the asynchronous
    algorithm finishes in ``Θ(log n)`` time, and Theorem 1.7(iii) gives the
    quantitative tail ``Pr[spread > 2k] ≤ e^{-k/2-o(1)} + e^{-k-o(1)}``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.generators import (
    bridged_double_clique_csr,
    clique_with_pendant_csr,
    dynamic_star_csr,
)
from repro.graphs.metrics import GraphMetrics
from repro.utils.validation import require_node_count


class CliqueBridgeNetwork(DynamicNetwork):
    """``G1``: clique with a pendant rumor holder, then two bridged cliques.

    Nodes are labelled ``1..n+1``; the pendant / bridge endpoint carrying the
    rumor is node ``n+1`` and its only neighbour is node ``1``.
    """

    def __init__(self, n: int):
        require_node_count(n, minimum=4)
        self._clique_size = n
        super().__init__(list(range(1, n + 2)))
        # The two snapshots, keyed by ``t > 0``, built on first use and reused.
        self._stages: Dict[bool, CsrSnapshot] = {}

    def default_source(self) -> Hashable:
        """The pendant node ``n + 1`` (the square node of Figure 1(a))."""
        return self._clique_size + 1

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        later = t > 0
        if later not in self._stages:
            builder = bridged_double_clique_csr if later else clique_with_pendant_csr
            self._stages[later] = builder(self._clique_size)
        return self._stages[later]

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        n = self._clique_size
        if t == 0:
            # Clique plus pendant: the sparsest cut is a balanced clique split
            # (Θ(1) conductance); the pendant edge fixes ρ̄ = 1.
            return GraphMetrics(
                conductance=0.5,
                diligence=1.0,
                absolute_diligence=1.0,
                connected=True,
                n=n + 1,
                exact=False,
            )
        # Two bridged cliques: the bridge cut has one edge against volume Θ(n²).
        half = (n + 1) // 2
        return GraphMetrics(
            conductance=1.0 / (half * (half - 1)),
            diligence=2.0 / half,
            absolute_diligence=2.0 / (n + 1),
            connected=True,
            n=n + 1,
            exact=False,
        )


class DynamicStarNetwork(DynamicNetwork):
    """``G2``: the adaptive dynamic star of Figure 1(b).

    Nodes are labelled ``0..n``; snapshot 0 is centred at node 0 and the rumor
    starts at leaf node 1.  The centre of every later snapshot is an
    uninformed node when one exists (the lowest-labelled one by default, or a
    uniformly random one when ``randomize=True``), otherwise a random node.
    """

    def __init__(self, n: int, randomize: bool = True):
        require_node_count(n, minimum=2)
        self._leaves = n
        self._randomize = randomize
        super().__init__(list(range(n + 1)))
        self._run_rng = None
        self._last_center: Optional[int] = None

    def default_source(self) -> Hashable:
        """Leaf node 1 (snapshot 0 is centred at node 0)."""
        return 1

    def _on_reset(self, rng) -> None:
        self._run_rng = rng
        self._last_center = None

    def _pick_center(self, informed: frozenset) -> int:
        # Labels equal compact ids (0..n), so the candidates are id arrays in
        # label order; ``integers(0, k)`` draws the index that
        # ``Generator.choice`` would over the same k candidates.
        candidates = np.ones(self.n, dtype=bool)
        if len(informed) < self.n:
            candidates[np.fromiter(informed, dtype=np.int64, count=len(informed))] = False
        else:
            candidates[self._last_center] = False
        candidates = np.flatnonzero(candidates)
        if self._randomize and self._run_rng is not None:
            return int(candidates[self._run_rng.integers(candidates.size)])
        return int(candidates[0])

    def _center_for(self, t: int, informed: frozenset) -> int:
        center = 0 if t == 0 else self._pick_center(informed)
        self._last_center = center
        return center

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        return dynamic_star_csr(self._leaves + 1, self._center_for(t, informed))

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        # Every snapshot is a star: Φ = 1, ρ = 1 and ρ̄ = 1 (the paper notes a
        # sequence of stars is 1-diligent and absolutely 1-diligent).
        return GraphMetrics(
            conductance=1.0,
            diligence=1.0,
            absolute_diligence=1.0,
            connected=True,
            n=self._leaves + 1,
            exact=True,
        )


__all__ = ["CliqueBridgeNetwork", "DynamicStarNetwork"]
