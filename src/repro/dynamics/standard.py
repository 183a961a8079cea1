"""Standard oblivious dynamic networks with analytic per-step metrics.

The bound-validation experiments exercise Theorem 1.1 on well-understood
topologies at sizes where exact cut enumeration is infeasible; this module
builds those networks together with their (asymptotically exact) analytic
``Φ``, ``ρ`` and ``ρ̄`` values so bound evaluation stays cheap.  It lives in
the dynamics layer so the scenario network registry can use it without
pulling in the experiment modules.

Values used (all standard):

* complete graph ``K_n``: ``Φ ≈ 1/2``, ``ρ = 1`` (regular), ``ρ̄ = 1/(n−1)``;
* star ``K_{1,n−1}``: ``Φ = 1``, ``ρ = 1``, ``ρ̄ = 1``;
* cycle ``C_n``: ``Φ = 1/⌊n/2⌋``, ``ρ = 1``, ``ρ̄ = 1/2``;
* random ``d``-regular graph: ``Φ = Θ(1)`` (a conservative 0.2 is used),
  ``ρ = 1``, ``ρ̄ = 1/d``.
"""

from __future__ import annotations

from repro.dynamics.sequences import PeriodicSequenceNetwork, StaticDynamicNetwork
from repro.graphs.generators import (
    clique_csr,
    cycle_csr,
    erdos_renyi_csr,
    path_csr,
    random_regular_expander,
    star_csr,
)
from repro.graphs.metrics import GraphMetrics
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Conservative Θ(1) conductance used for random regular expanders.
EXPANDER_CONDUCTANCE = 0.2


def clique_metrics(n: int) -> GraphMetrics:
    """Analytic metrics of the complete graph ``K_n``."""
    require_node_count(n, minimum=2)
    return GraphMetrics(
        conductance=0.5,
        diligence=1.0,
        absolute_diligence=1.0 / (n - 1),
        connected=True,
        n=n,
        exact=False,
    )


def star_metrics(n: int) -> GraphMetrics:
    """Analytic metrics of the star on ``n`` nodes (1 centre, ``n−1`` leaves)."""
    require_node_count(n, minimum=2)
    return GraphMetrics(
        conductance=1.0,
        diligence=1.0,
        absolute_diligence=1.0,
        connected=True,
        n=n,
        exact=True,
    )


def cycle_metrics(n: int) -> GraphMetrics:
    """Analytic metrics of the cycle ``C_n``."""
    require_node_count(n, minimum=3)
    return GraphMetrics(
        conductance=1.0 / (n // 2),
        diligence=1.0,
        absolute_diligence=0.5,
        connected=True,
        n=n,
        exact=True,
    )


def regular_metrics(n: int, degree: int, conductance: float = EXPANDER_CONDUCTANCE) -> GraphMetrics:
    """Analytic (Θ-level) metrics of a random ``degree``-regular expander."""
    require_node_count(n, minimum=degree + 1)
    return GraphMetrics(
        conductance=conductance,
        diligence=1.0,
        absolute_diligence=1.0 / degree,
        connected=True,
        n=n,
        exact=False,
    )


def static_clique_network(n: int) -> StaticDynamicNetwork:
    """``K_n`` exposed at every step, with analytic metrics attached."""
    return StaticDynamicNetwork(clique_csr(range(n)), metrics=clique_metrics(n))


def static_star_network(n: int) -> StaticDynamicNetwork:
    """A static star on ``n`` nodes (centre 0), with analytic metrics attached."""
    return StaticDynamicNetwork(star_csr(0, range(1, n)), metrics=star_metrics(n))


def static_cycle_network(n: int) -> StaticDynamicNetwork:
    """A static cycle on ``n`` nodes, with analytic metrics attached."""
    return StaticDynamicNetwork(cycle_csr(range(n)), metrics=cycle_metrics(n))


def static_path_network(n: int) -> StaticDynamicNetwork:
    """A static path on ``n`` nodes."""
    return StaticDynamicNetwork(path_csr(range(n)))


def static_expander_network(n: int, degree: int, rng: RngLike = None) -> StaticDynamicNetwork:
    """A static random ``degree``-regular expander on ``n`` nodes."""
    return StaticDynamicNetwork(random_regular_expander(degree, range(n), rng=rng))


def static_erdos_renyi_network(n: int, p: float, rng: RngLike = None) -> StaticDynamicNetwork:
    """A static G(n, p), sampled directly into CSR form."""
    return StaticDynamicNetwork(erdos_renyi_csr(n, p, rng=rng))


def alternating_regular_complete_network(
    n: int, degree: int = 3, rng: RngLike = None
) -> PeriodicSequenceNetwork:
    """The Section 1.2 example: a ``d``-regular graph alternating with ``K_n``.

    On this sequence the degree-variation ratio ``M(G)`` of the Giakkoupis et
    al. bound is ``(n−1)/d = Θ(n)`` while both snapshots are 1-diligent, so
    the diligence-based bound of Theorem 1.1 is a factor Θ(n) tighter.
    """
    require_node_count(n, minimum=degree + 2)
    require(degree * n % 2 == 0, "degree * n must be even")
    gen = ensure_rng(rng)
    regular = random_regular_expander(degree, range(n), rng=gen)
    complete = clique_csr(range(n))
    return PeriodicSequenceNetwork(
        [regular, complete],
        metrics=[regular_metrics(n, degree), clique_metrics(n)],
    )


__all__ = [
    "EXPANDER_CONDUCTANCE",
    "alternating_regular_complete_network",
    "clique_metrics",
    "cycle_metrics",
    "regular_metrics",
    "star_metrics",
    "static_clique_network",
    "static_cycle_network",
    "static_erdos_renyi_network",
    "static_expander_network",
    "static_path_network",
    "static_star_network",
]
