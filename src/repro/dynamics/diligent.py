"""The Θ(ρ)-diligent lower-bound family ``G(n, ρ)`` of Theorem 1.2.

Construction (Section 4, "ρ-Diligent Dynamic Network G(n, ρ)"):

* ``Δ = ⌈1/ρ⌉`` and ``k = Θ(log n / log log n)``.
* ``G(0) = H_{k,Δ}(A₀, B₀)`` with ``|A₀| = n/4`` and ``|B₀| = 3n/4``; the rumor
  starts at a node of ``A₀``.
* At every step boundary ``t + 1`` the adversary removes the freshly informed
  nodes from the ``B`` side: ``B_{t+1} = B_t \\ I_{t+1}`` and
  ``A_{t+1} = V \\ B_{t+1}``.  If ``|B_{t+1}| ≥ n/4`` and the ``B`` side
  actually shrank, the snapshot is rebuilt as ``H_{k,Δ}(A_{t+1}, B_{t+1})``;
  otherwise the previous snapshot is kept.

Intuitively the adversary keeps re-drawing the ``k``-hop bipartite bottleneck
between the informed territory and the uninformed territory, so the rumor must
cross the full chain over and over; Lemma 4.2 shows one unit of time almost
never suffices to cross it, giving the ``Ω(nρ/k)`` lower bound.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.hk_delta import HkDeltaGraph, build_hk_delta, minimum_side_sizes
from repro.graphs.metrics import GraphMetrics
from repro.utils.rng import RngLike
from repro.utils.validation import require, require_node_count


def default_chain_length(n: int) -> int:
    """Return the paper's choice ``k = Θ(log n / log log n)`` (at least 1)."""
    require_node_count(n, minimum=3)
    if n < 8:
        return 1
    return max(1, round(math.log(n) / math.log(math.log(n))))


class DiligentDynamicNetwork(DynamicNetwork):
    """The adaptive dynamic network ``G(n, ρ)`` of Theorem 1.2.

    Parameters
    ----------
    n:
        Total number of nodes.
    rho:
        Target diligence ``ρ ∈ [1/√n, 1]``; the cluster size is ``Δ = ⌈1/ρ⌉``.
    k:
        Chain length; defaults to ``Θ(log n / log log n)``.
    rng:
        Ignored; accepted for backward compatibility.  Every random
        component (the expanders of each rebuilt ``H_{k,Δ}``) is drawn from
        the generator passed to ``reset``, so independent runs see
        independent expanders.
    """

    def __init__(
        self,
        n: int,
        rho: float,
        k: Optional[int] = None,
        rng: RngLike = None,
    ):
        require_node_count(n, minimum=40)
        require(0 < rho <= 1, f"rho must lie in (0, 1], got {rho}")
        delta = math.ceil(1.0 / rho)
        k = default_chain_length(n) if k is None else k
        require_node_count(k, minimum=1, name="k")
        min_a, min_b = minimum_side_sizes(k, delta)
        size_a = n // 4
        size_b = n - size_a
        require(
            size_a >= min_a and size_b >= min_b,
            f"n = {n} is too small for rho = {rho} and k = {k}: the construction needs "
            f"|A| >= {min_a} and |B| >= {min_b} but has |A| = {size_a}, |B| = {size_b}. "
            "Increase n, increase rho, or decrease k.",
        )
        super().__init__(list(range(n)))
        self.rho = rho
        self.delta = delta
        self.k = k
        self._size_a0 = size_a
        self._run_rng = None
        self._part_b: Optional[frozenset] = None
        self._current: Optional[HkDeltaGraph] = None
        self._snapshot: Optional[CsrSnapshot] = None

    # -- construction ---------------------------------------------------------

    def default_source(self) -> Hashable:
        """A node of the ``A₀``-side expander (outside the cluster chain)."""
        return self.delta  # nodes 0..delta-1 form S_0; node `delta` is in the expander

    def _on_reset(self, rng) -> None:
        self._run_rng = rng
        self._part_b = frozenset(range(self._size_a0, self.n))
        self._current = None
        self._snapshot = None

    def _rebuild(self, part_b: frozenset) -> None:
        part_a = [u for u in self.nodes if u not in part_b]
        self._current = build_hk_delta(
            part_a=part_a,
            part_b=sorted(part_b),
            k=self.k,
            delta=self.delta,
            rng=self._run_rng,
        )
        self._snapshot = self._current.graph.reordered(self._nodes)

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        if t == 0 or self._current is None:
            self._rebuild(self._part_b)
            return self._snapshot
        new_b = self._part_b - informed
        min_a, min_b = minimum_side_sizes(self.k, self.delta)
        shrank = len(new_b) < len(self._part_b)
        big_enough = len(new_b) >= max(self.n // 4, min_b)
        if shrank and big_enough:
            self._part_b = new_b
            self._rebuild(new_b)
        # Unchanged steps return the same object, so engines skip the rate rebuild.
        return self._snapshot

    # -- analytic metrics ------------------------------------------------------

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        """Observation 4.1 values for the current snapshot (Θ-level)."""
        if self._current is None:
            return None
        snapshot = self._current
        return GraphMetrics(
            conductance=snapshot.analytic_conductance(),
            diligence=snapshot.analytic_diligence(),
            absolute_diligence=snapshot.analytic_absolute_diligence(),
            connected=True,
            n=self.n,
            exact=False,
        )

    # -- theoretical predictions ------------------------------------------------

    def predicted_lower_bound(self) -> float:
        """The Theorem 1.2 lower bound ``n / (4 k ⌈1/ρ⌉)`` on the spread time."""
        return self.n / (4.0 * self.k * self.delta)

    def predicted_upper_bound(self, log_factor: float = 1.0) -> float:
        """The Theorem 1.1 upper bound ``O((ρn + k/ρ) log n)`` for this family."""
        n = self.n
        return log_factor * (self.rho * n + self.k / self.rho) * math.log(n)


__all__ = ["DiligentDynamicNetwork", "default_chain_length"]
