"""The ``H_{k,Δ}(A, B)`` construction of Section 4.

The lower-bound family of Theorem 1.2 is built from snapshots of the form
``H_{k,Δ}(A, B)`` where ``A ∪ B`` partitions the node set:

1. Disjoint clusters ``S_0, ..., S_k`` of size ``Δ`` each, with ``S_0 ⊂ A``
   and ``S_1 ∪ ... ∪ S_k ⊂ B``; consecutive clusters are completely joined
   (a "string of complete bipartite graphs" with ``kΔ²`` edges).
2. Two 4-regular expanders, ``G₁`` on ``A \\ S_0`` and ``G₂`` on
   ``B \\ (S_1 ∪ ... ∪ S_k)``; every node of ``S_0`` is attached to ``Δ``
   distinct nodes of ``G₁`` (and every node of ``S_k`` to ``Δ`` distinct nodes
   of ``G₂``) so that no expander node gains more than a constant number of
   extra edges.

Observation 4.1 gives the analytic parameters used by the bounds:
``Φ(H_{k,Δ}) = Θ(Δ² / (kΔ² + n))`` and ``ρ(H_{k,Δ}) = Θ(1/Δ)``.

The snapshot is assembled straight into CSR, in the node and entry order the
networkx construction (chain, ``compose`` with each expander, then the
attachment edges) gives, so the diligent network's random draws are those of
that construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CsrSnapshot, compose_disjoint
from repro.graphs.generators import complete_bipartite_chain, random_regular_expander
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Minimum expander size; 4-regular graphs need at least 5 nodes.
_MIN_EXPANDER_SIZE = 5


@dataclass
class HkDeltaGraph:
    """A built ``H_{k,Δ}(A, B)`` snapshot together with its structure.

    Attributes
    ----------
    graph:
        The assembled simple graph as a :class:`CsrSnapshot`.  Its node order
        is ``S_0, …, S_k``, then expander ``G₁``'s nodes, then ``G₂``'s (each
        in the order of ``part_a``/``part_b``).  Spectral quantities read
        from it depend on that order at the last bit; use
        :meth:`CsrSnapshot.reordered` for another node order.
    part_a, part_b:
        The two sides of the partition (``A`` holds ``S_0`` and expander
        ``G₁``; ``B`` holds ``S_1..S_k`` and expander ``G₂``).
    clusters:
        The clusters ``S_0, ..., S_k`` in order.
    delta:
        Cluster size ``Δ``.
    k:
        Number of cluster-to-cluster hops (there are ``k + 1`` clusters).
    """

    graph: CsrSnapshot
    part_a: Tuple[Hashable, ...]
    part_b: Tuple[Hashable, ...]
    clusters: Tuple[Tuple[Hashable, ...], ...]
    delta: int
    k: int

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return self.graph.n

    def analytic_conductance(self) -> float:
        """Return the Observation 4.1 value ``Δ² / (kΔ² + n)`` (up to Θ(1))."""
        return self.delta**2 / (self.k * self.delta**2 + self.n)

    def analytic_diligence(self) -> float:
        """Return the Observation 4.1 value ``1/Δ`` (up to Θ(1))."""
        return 1.0 / self.delta

    def analytic_absolute_diligence(self) -> float:
        """Return ``ρ̄`` of the snapshot, which is ``Θ(1/Δ)`` as well.

        Every crossing edge of the bottleneck has both endpoints of degree
        ``2Δ``; the global minimum over edges is attained there, giving
        ``1/(2Δ)``.
        """
        return 1.0 / (2.0 * self.delta)

    def cluster_of(self, node: Hashable) -> int:
        """Return the index ``i`` such that ``node ∈ S_i``, or ``-1`` if none."""
        for index, cluster in enumerate(self.clusters):
            if node in cluster:
                return index
        return -1


def _attachment_edges(
    cluster_ids: np.ndarray, expander_base: int, expander_size: int, delta: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Join every cluster node to ``delta`` distinct expander nodes (union ids).

    Edges are dealt round-robin over the expander, so each expander node
    gains at most ``⌈Δ²/|expander|⌉`` extra edges — an additive constant
    whenever ``Δ² = O(|expander|)``, matching the paper's requirement.
    """
    require(
        expander_size >= delta,
        "expander side too small to give each cluster node Δ distinct neighbours "
        f"(need at least {delta}, have {expander_size})",
    )
    targets = expander_base + np.arange(len(cluster_ids) * delta) % expander_size
    return np.repeat(cluster_ids, delta), targets


def build_hk_delta(
    part_a: Sequence[Hashable],
    part_b: Sequence[Hashable],
    k: int,
    delta: int,
    rng: RngLike = None,
) -> HkDeltaGraph:
    """Build ``H_{k,Δ}(A, B)`` over the given partition.

    Parameters
    ----------
    part_a, part_b:
        Disjoint node sets forming the partition ``A ∪ B``.  The paper assumes
        ``n/4 ≤ |A| ≤ 3n/4``; the builder only requires each side to be large
        enough to host its clusters plus a 4-regular expander.
    k:
        Number of bipartite hops; the chain has ``k + 1`` clusters.
    delta:
        Cluster size ``Δ`` (the paper takes ``Δ = ⌈1/ρ⌉ = O(√n)``).
    rng:
        Seed / generator used for the two random regular expanders.

    Returns
    -------
    HkDeltaGraph
        The snapshot plus its structural metadata and analytic metrics.
    """
    part_a = list(part_a)
    part_b = list(part_b)
    require(len(set(part_a) & set(part_b)) == 0, "part_a and part_b must be disjoint")
    require_node_count(k, minimum=1, name="k")
    require_node_count(delta, minimum=1, name="delta")
    require(
        len(part_a) >= delta + _MIN_EXPANDER_SIZE,
        f"|A| must be at least Δ + {_MIN_EXPANDER_SIZE} = {delta + _MIN_EXPANDER_SIZE}, "
        f"got {len(part_a)}",
    )
    require(
        len(part_b) >= k * delta + _MIN_EXPANDER_SIZE,
        f"|B| must be at least kΔ + {_MIN_EXPANDER_SIZE} = {k * delta + _MIN_EXPANDER_SIZE}, "
        f"got {len(part_b)}",
    )
    gen = ensure_rng(rng)

    cluster_s0 = tuple(part_a[:delta])
    expander_a_nodes = part_a[delta:]
    clusters_b = [tuple(part_b[i * delta:(i + 1) * delta]) for i in range(k)]
    expander_b_nodes = part_b[k * delta:]
    clusters = (cluster_s0, *clusters_b)

    # Step 1: the chain of complete bipartite graphs S_0 - S_1 - ... - S_k.
    chain = complete_bipartite_chain(clusters)

    # Step 2: the two 4-regular expanders, glued to S_0 and S_k respectively.
    expander_a = random_regular_expander(4, expander_a_nodes, rng=gen)
    expander_b = random_regular_expander(4, expander_b_nodes, rng=gen)
    base_a = chain.n
    base_b = base_a + expander_a.n
    attach_a = _attachment_edges(np.arange(delta), base_a, expander_a.n, delta)
    attach_b = _attachment_edges(np.arange(k * delta, base_a), base_b, expander_b.n, delta)
    graph = compose_disjoint(
        [chain, expander_a, expander_b],
        np.concatenate([attach_a[0], attach_b[0]]),
        np.concatenate([attach_a[1], attach_b[1]]),
    )

    built = HkDeltaGraph(
        graph=graph,
        part_a=tuple(part_a),
        part_b=tuple(part_b),
        clusters=clusters,
        delta=delta,
        k=k,
    )
    return built


def minimum_side_sizes(k: int, delta: int) -> Tuple[int, int]:
    """Return the minimum ``(|A|, |B|)`` accepted by :func:`build_hk_delta`."""
    return (delta + _MIN_EXPANDER_SIZE, k * delta + _MIN_EXPANDER_SIZE)


__all__ = ["HkDeltaGraph", "build_hk_delta", "minimum_side_sizes"]
