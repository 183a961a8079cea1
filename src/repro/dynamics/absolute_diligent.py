"""The absolutely Θ(ρ)-diligent lower-bound family of Theorem 1.5.

Construction (Section 5.1, "Absolutely ρ-Diligent Dynamic Network G(n, ρ)"):

* ``Δ`` is the even member of ``{⌈1/ρ⌉, ⌈1/ρ⌉ + 1}``.
* ``G(0)`` consists of ``G(A₀, 4, Δ)`` — a connected graph on ``⌊n/2⌋`` nodes
  where every node has degree 4 except one hub of degree ``Δ`` — and
  ``G(B₀, Δ)`` — a connected ``Δ``-regular graph on ``⌈n/2⌉`` nodes — joined
  by a single bridge edge from the hub to an arbitrary node of ``G(B₀, Δ)``.
  The rumor starts inside ``G(A₀, 4, Δ)``.
* At every step boundary the adversary strips the informed nodes out of the
  ``B`` side (``B_{t+1} = B_t \\ I_t``) and, as long as ``|B_{t+1}| ≥ n/6``
  and the side actually shrank, rebuilds both components and a fresh bridge
  whose ``B``-endpoint is uninformed.  Otherwise the previous snapshot is
  kept.

Every snapshot has absolute diligence ``ρ̄ = 1/(Δ + 1)`` (the bridge edge) and
``Φ = Θ(1/n)``; the single bridge, constantly re-rooted at an uninformed node,
forces the rumor to pay ``Θ(Δ)`` expected time per new ``B``-side node, giving
the ``Ω(n/ρ)`` lower bound that matches Theorem 1.3 up to a constant.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Tuple

from repro.dynamics.base import DynamicNetwork
from repro.graphs.csr import CsrSnapshot, compose_disjoint
from repro.graphs.generators import near_regular_with_hub, regular_connected_graph
from repro.graphs.metrics import GraphMetrics
from repro.utils.rng import RngLike
from repro.utils.validation import require, require_node_count


def even_delta_for_rho(rho: float) -> int:
    """Return the even ``Δ ∈ {⌈1/ρ⌉, ⌈1/ρ⌉+1}`` used by the construction."""
    require(0 < rho <= 1, f"rho must lie in (0, 1], got {rho}")
    delta = math.ceil(1.0 / rho)
    if delta % 2 == 1:
        delta += 1
    return max(delta, 2)


class AbsolutelyDiligentNetwork(DynamicNetwork):
    """The adaptive dynamic network of Theorem 1.5.

    Parameters
    ----------
    n:
        Total number of nodes (must be large enough that both halves can host
        their regular components: roughly ``n ≥ 6(Δ + 1)``).
    rho:
        Target absolute diligence; ``Δ`` is the even member of
        ``{⌈1/ρ⌉, ⌈1/ρ⌉+1}`` so every snapshot is absolutely ``1/(Δ+1)``-diligent.
    rng:
        Ignored; accepted for backward compatibility.  The random components
        of the regular graphs are drawn from the generator passed to
        ``reset``.
    """

    def __init__(self, n: int, rho: float, rng: RngLike = None):
        require_node_count(n, minimum=24)
        delta = even_delta_for_rho(rho)
        size_a = n // 2
        size_b = n - size_a
        require(
            delta + 1 < min(size_a, size_b) and size_b // 3 > delta,
            f"n = {n} is too small for rho = {rho} (Δ = {delta}): both halves must "
            f"exceed Δ+1 nodes and the B side must stay Δ-regular down to n/6 nodes.",
        )
        super().__init__(list(range(n)))
        self.rho = rho
        self.delta = delta
        self._size_a0 = size_a
        self._run_rng = None
        self._part_b: Optional[frozenset] = None
        self._snapshot: Optional[CsrSnapshot] = None
        self._hub: Optional[Hashable] = None

    def default_source(self) -> Hashable:
        """A non-hub node of the ``A₀`` component."""
        return 1

    def _on_reset(self, rng) -> None:
        self._run_rng = rng
        self._part_b = frozenset(range(self._size_a0, self.n))
        self._snapshot = None
        self._hub = None

    # -- construction ---------------------------------------------------------

    def _rebuild(self, part_b: frozenset, informed: frozenset) -> None:
        part_a = [u for u in self.nodes if u not in part_b]
        part_b_sorted = sorted(part_b)
        # The paper uses G(A, 4, Δ); for large rho (Δ < 4) the hub degree would
        # drop below the base degree, so the base degree is capped at Δ — the
        # A side then degenerates to a Δ-regular connected graph, which still
        # has constant degree and a single bridge, preserving the lower bound.
        base_degree_a = min(4, self.delta)
        graph_a, hub = near_regular_with_hub(
            part_a,
            base_degree=base_degree_a,
            hub_degree=self.delta,
            hub=part_a[0],
            rng=self._run_rng,
        )
        degree_b = min(self.delta, len(part_b_sorted) - 1)
        if degree_b % 2 == 1:
            degree_b -= 1
        degree_b = max(degree_b, 2)
        graph_b = regular_connected_graph(part_b_sorted, degree_b, rng=self._run_rng)
        # Bridge from the hub to an uninformed node of B when one exists.
        bridge_target = next((u for u in part_b_sorted if u not in informed), part_b_sorted[0])
        graph = compose_disjoint(
            [graph_a, graph_b],
            [graph_a.index_of[hub]],
            [graph_a.n + graph_b.index_of[bridge_target]],
        )
        self._hub = hub
        self._snapshot = graph.reordered(self._nodes)

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        if t == 0 or self._snapshot is None:
            self._rebuild(self._part_b, informed)
            return self._snapshot
        new_b = self._part_b - informed
        shrank = len(new_b) < len(self._part_b)
        big_enough = len(new_b) >= max(self.n // 6, self.delta + 2)
        if shrank and big_enough:
            self._part_b = new_b
            self._rebuild(new_b, informed)
        # Unchanged steps return the same object, so engines skip the rate rebuild.
        return self._snapshot

    # -- analytic metrics ------------------------------------------------------

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        """Per-snapshot analytic metrics: ``ρ̄ = 1/(Δ+1)``, ``Φ = Θ(1/n)``."""
        return GraphMetrics(
            conductance=1.0 / (2.0 * self.n),
            diligence=4.0 / (self.delta + 1.0),
            absolute_diligence=1.0 / (self.delta + 1.0),
            connected=True,
            n=self.n,
            exact=False,
        )

    # -- theoretical predictions ------------------------------------------------

    def predicted_lower_bound(self) -> float:
        """The Theorem 1.5 lower bound ``Ω(n/ρ)``: ``n Δ / 20`` informative waits."""
        return self.n * self.delta / 20.0

    def predicted_absolute_upper_bound(self) -> float:
        """The Theorem 1.3 bound ``T_abs = 2n(Δ+1)`` for this family."""
        return 2.0 * self.n * (self.delta + 1.0)


__all__ = ["AbsolutelyDiligentNetwork", "even_delta_for_rho"]
