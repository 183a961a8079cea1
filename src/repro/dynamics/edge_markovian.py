"""Edge-Markovian evolving graphs (Clementi et al., related work baseline).

In the edge-Markovian model each potential edge evolves as an independent
two-state Markov chain: a non-edge is *born* with probability ``p`` at each
step and an existing edge *dies* with probability ``q``.  The paper's related
work (Section 1.2) cites the result that the push algorithm finishes in
``O(log n)`` rounds when ``p = Ω(1/n)`` and ``q`` is constant; we include the
model as a realistic random dynamic substrate for exercising Theorem 1.1's
bound on networks that are neither static nor adversarial.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot, GraphLike, as_snapshot
from repro.graphs.generators import condensed_to_pair, pair_to_condensed
from repro.utils.rng import RngLike
from repro.utils.validation import require, require_node_count, require_probability


class EdgeMarkovianNetwork(DynamicNetwork):
    """A dynamic network whose edges flip on and off as independent Markov chains.

    Parameters
    ----------
    n:
        Number of nodes (labelled ``0..n-1``).
    birth_probability:
        Probability ``p`` that a currently absent edge appears at the next step.
    death_probability:
        Probability ``q`` that a currently present edge disappears at the next
        step.
    initial_graph:
        Snapshot at ``t = 0`` (networkx or CSR).  Defaults to a sample from
        the stationary distribution, an Erdős–Rényi graph with edge
        probability ``p / (p + q)``.
    rng:
        Ignored; accepted for backward compatibility.  The stationary start
        and every edge flip are drawn from the generator passed to
        ``reset``, so runs reset with different seeds see independent
        trajectories.
    """

    def __init__(
        self,
        n: int,
        birth_probability: float,
        death_probability: float,
        initial_graph: Optional[GraphLike] = None,
        rng: RngLike = None,
    ):
        require_node_count(n, minimum=2)
        require_probability(birth_probability, "birth_probability")
        require_probability(death_probability, "death_probability")
        require(
            birth_probability + death_probability > 0,
            "birth_probability and death_probability cannot both be zero",
        )
        super().__init__(list(range(n)))
        self.birth_probability = birth_probability
        self.death_probability = death_probability
        # Condensed upper-triangle edge state of ``initial_graph``, if given.
        self._initial_state: Optional[np.ndarray] = None
        if initial_graph is not None:
            initial = as_snapshot(initial_graph)
            require(
                set(initial.nodes) == set(self.nodes),
                "initial_graph must be on nodes 0..n-1",
            )
            labels = np.asarray(initial.nodes, dtype=np.int64)
            u_labels = labels[initial.row_owner]
            v_labels = labels[initial.indices]
            forward = u_labels < v_labels
            self._initial_state = np.zeros(n * (n - 1) // 2, dtype=bool)
            self._initial_state[pair_to_condensed(u_labels[forward], v_labels[forward], n)] = True
        self._run_rng = None
        # Condensed upper-triangle edge state of the current snapshot.
        self._edge_state: Optional[np.ndarray] = None

    def stationary_edge_probability(self) -> float:
        """Return the stationary probability ``p / (p + q)`` of an edge existing."""
        return self.birth_probability / (self.birth_probability + self.death_probability)

    def _on_reset(self, rng) -> None:
        self._run_rng = rng
        self._edge_state = None

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        """Evolve every potential edge's Markov chain in one vectorised sweep.

        The chain is kept as a condensed boolean vector over the ``n(n-1)/2``
        node pairs.  Step 0 is ``initial_graph`` or, by default, one uniform
        draw per pair against the stationary probability ``p / (p + q)``.
        Each later step draws one uniform per pair, which decides survival
        (``r ≥ q``) of a present edge or birth (``r < p``) of an absent one.
        """
        if t == 0 or self._edge_state is None:
            if self._initial_state is not None:
                self._edge_state = self._initial_state
            else:
                pairs = self.n * (self.n - 1) // 2
                self._edge_state = self._run_rng.random(pairs) < self.stationary_edge_probability()
        else:
            draws = self._run_rng.random(len(self._edge_state))
            self._edge_state = np.where(
                self._edge_state,
                draws >= self.death_probability,
                draws < self.birth_probability,
            )
        live = np.nonzero(self._edge_state)[0]
        u_ids, v_ids = condensed_to_pair(live, self.n)
        return CsrSnapshot.from_edge_arrays(self.nodes, u_ids, v_ids)


__all__ = ["EdgeMarkovianNetwork"]
