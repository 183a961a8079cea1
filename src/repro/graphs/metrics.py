"""Graph parameters used throughout the paper.

The paper's analysis is driven by three quantities of a static snapshot
``G = (V, E)``:

* the **conductance** ``Φ(G) = min_S |E(S, S̄)| / min(vol(S), vol(S̄))``
  (Equation (2) of the paper);
* the **diligence** ``ρ(G) = min_S min_{(u,v)∈E(S,S̄)} max(d̄(S)/d_u, d̄(S)/d_v)``
  where the outer minimum ranges over cuts with ``0 < vol(S) ≤ vol(G)/2`` and
  ``d̄(S)`` is the average degree of the smaller side (Section 1.1);
* the **absolute diligence**
  ``ρ̄(G) = min_{(u,v)∈E} max(1/d_u, 1/d_v)`` (Section 5).

Both ``Φ`` and ``ρ`` minimise over exponentially many cuts.  They are exact
for ``n ≤ EXACT_ENUMERATION_LIMIT``: one scan over the CSR arrays walks the
bitmasks ``1 … 2ⁿ⁻¹−1`` of the side that leaves the last node out (each cut
once), ``_CUT_CHUNK`` masks at a time.  A block is a boolean ``(chunk, n)``
membership matrix; volumes are one product with the degree vector and crossing
edges are ``bits[:, u] != bits[:, v]``, so transient memory stays near 10 MB
at ``n = 18``.  The scan is bit-identical to the cut-by-cut definitions:
volumes are integers below ``2⁵³``, so float64 division rounds like Python's
``int / int``, and IEEE division is monotone in the denominator, so
``min_e max(d̄/d_u, d̄/d_v) = d̄ / max_e min(d_u, d_v)``.  Larger graphs get
spectral (Cheeger) bounds for ``Φ`` and a sampled-cut upper estimate for
``ρ``; the paper's own constructions expose analytic values via
:class:`repro.dynamics.base.DynamicNetwork.known_metrics`.

Every function reads a :class:`CsrSnapshot`; a ``networkx.Graph`` argument
is converted first.  The per-cut helpers and the sampled estimate return
exactly what the cut-by-cut networkx definitions do (``tests/graph_oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.graphs.csr import (
    CsrSnapshot,
    GraphLike,
    as_snapshot,
    concatenated_neighbors,
    normalized_laplacian_lambda2,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Largest node count for which exact (cut-enumeration) metrics are attempted.
EXACT_ENUMERATION_LIMIT = 18

#: Cut masks per block of the exact scan (bounds its transient memory).
_CUT_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def _membership(snapshot: CsrSnapshot, subset: Iterable) -> np.ndarray:
    """Boolean mask of ``subset`` over the snapshot's compact ids."""
    index = snapshot.index_of
    inside = np.zeros(snapshot.n, dtype=bool)
    for u in subset:
        if u not in index:
            raise ValueError(f"node {u!r} not in graph")
        inside[index[u]] = True
    return inside


def volume(graph: GraphLike, nodes: Optional[Iterable] = None) -> int:
    """Return ``vol(S) = Σ_{u∈S} d_u`` (or ``vol(G)`` when ``nodes`` is None)."""
    snapshot = as_snapshot(graph)
    if nodes is None:
        return 2 * snapshot.edge_count
    index, degrees = snapshot.index_of, snapshot.degrees
    total = 0
    for u in nodes:
        require(u in index, f"node {u!r} not in graph")
        total += int(degrees[index[u]])
    return total


def cut_edges(graph: GraphLike, subset: Iterable) -> Set[Tuple]:
    """Return the set of edges crossing ``subset`` and its complement.

    Edges are returned with the endpoint inside ``subset`` first, which the
    simulators rely on when computing push/pull rates per crossing edge.
    """
    snapshot = as_snapshot(graph)
    inside = _membership(snapshot, subset)
    owner, neighbour = snapshot.row_owner, snapshot.indices
    crossing = inside[owner] & ~inside[neighbour]
    labels = snapshot.nodes
    return {
        (labels[u], labels[v])
        for u, v in zip(owner[crossing].tolist(), neighbour[crossing].tolist())
    }


def average_degree(graph: GraphLike, nodes: Iterable) -> float:
    """Return ``d̄(S) = vol(S)/|S|`` for the node set ``nodes``."""
    nodes = list(nodes)
    require(len(nodes) > 0, "average_degree requires a non-empty node set")
    return volume(graph, nodes) / len(nodes)


# ---------------------------------------------------------------------------
# Conductance
# ---------------------------------------------------------------------------

def conductance_of_cut(graph: GraphLike, subset: Iterable) -> float:
    """Return ``|E(S, S̄)| / min(vol(S), vol(S̄))`` for the cut defined by ``subset``.

    Raises ``ValueError`` when either side has zero volume (the ratio is not
    defined by Equation (2) in that case).
    """
    snapshot = as_snapshot(graph)
    inside = _membership(snapshot, subset)
    vol_s = int(snapshot.degrees[inside].sum())
    denom = min(vol_s, 2 * snapshot.edge_count - vol_s)
    require(denom > 0, "conductance_of_cut: both sides of the cut must have positive volume")
    crossing = inside[snapshot.row_owner] & ~inside[snapshot.indices]
    return int(crossing.sum()) / denom


def _cut_minima(snapshot: CsrSnapshot) -> Tuple[float, float]:
    """Return ``(Φ, ρ)`` of a connected snapshot by one scan over its cuts.

    Every cut of a connected graph has a crossing edge, so each mask bounds
    both minima; with ``n = 1`` there is no cut and both stay ``inf``.
    """
    n, degrees = snapshot.n, snapshot.degrees
    u, v = snapshot.forward_edges()
    # Heaviest edge first, so a cut's first crossing edge has its largest w_e.
    weight = np.minimum(degrees[u], degrees[v])
    order = np.argsort(-weight, kind="stable")
    u, v, weight = u[order], v[order], weight[order]
    total = int(degrees.sum())
    phi = rho = math.inf
    stop = 1 << (n - 1)
    for start in range(1, stop, _CUT_CHUNK):
        masks = np.arange(start, min(start + _CUT_CHUNK, stop))
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        vol, size = bits @ degrees, bits.sum(1)
        crossing = bits[:, u] != bits[:, v]
        side_vol = np.minimum(vol, total - vol)
        phi = min(phi, float((crossing.sum(1) / side_vol).min()))
        # d̄ is read on the smaller-volume side; of a balanced cut's two
        # sides, the one with more nodes has the smaller d̄.
        smaller = 2 * vol <= total
        side_size = np.maximum(np.where(smaller, size, 0), np.where(2 * vol >= total, n - size, 0))
        rho = min(rho, float((side_vol / side_size / weight[crossing.argmax(1)]).min()))
    return phi, rho


def _exact_cut_metrics(graph: GraphLike, caller: str, alternative: str) -> Tuple[float, float]:
    """Return exact ``(Φ, ρ)`` with the paper's conventions for edge cases."""
    snapshot = as_snapshot(graph)
    n = snapshot.n
    require_node_count(n, minimum=1)
    if not snapshot.is_connected():
        return 0.0, (1.0 if n == 1 else 0.0)
    require(
        n <= EXACT_ENUMERATION_LIMIT,
        f"{caller} enumerates 2^n cuts and is limited to n <= "
        f"{EXACT_ENUMERATION_LIMIT}; use {alternative} or the "
        f"construction's analytic value instead (n = {n})",
    )
    phi, rho = _cut_minima(snapshot)
    return phi, (rho if rho < math.inf else 1.0)


def conductance_exact(graph: GraphLike) -> float:
    """Return the exact conductance ``Φ(G)`` by enumerating all cuts.

    Only feasible for small graphs (``n ≤ EXACT_ENUMERATION_LIMIT``).  Returns
    ``0.0`` for disconnected or empty graphs, matching the convention used by
    the paper for the ``⌈Φ⌉`` indicator in Theorem 1.3.
    """
    return _exact_cut_metrics(graph, "conductance_exact", "conductance_spectral_bounds")[0]


def conductance_spectral_bounds(graph: GraphLike) -> Tuple[float, float]:
    """Return Cheeger bounds ``(λ₂/2, sqrt(2 λ₂))`` on the conductance.

    ``λ₂`` is the second-smallest eigenvalue of the normalised Laplacian.  The
    true conductance satisfies ``λ₂/2 ≤ Φ(G) ≤ sqrt(2 λ₂)``.  Returns
    ``(0.0, 0.0)`` for disconnected graphs.
    """
    snapshot = as_snapshot(graph)
    if not snapshot.is_connected():
        return (0.0, 0.0)
    if snapshot.n < 3:
        # K2: conductance is exactly 1.
        return (1.0, 1.0)
    lambda2 = max(normalized_laplacian_lambda2(snapshot), 0.0)
    return (lambda2 / 2.0, math.sqrt(2.0 * lambda2))


def conductance_estimate(graph: GraphLike) -> float:
    """Best-effort conductance: exact for small graphs, Cheeger midpoint otherwise."""
    snapshot = as_snapshot(graph)
    if snapshot.n <= EXACT_ENUMERATION_LIMIT:
        return conductance_exact(snapshot)
    low, high = conductance_spectral_bounds(snapshot)
    return math.sqrt(low * high) if low > 0 else 0.0


# ---------------------------------------------------------------------------
# Diligence
# ---------------------------------------------------------------------------

def _side_diligence(
    inside: np.ndarray, u: np.ndarray, v: np.ndarray, weight: np.ndarray, vol_s: int, size: int
) -> float:
    """``ρ(S)`` of the side ``inside`` (``vol_s``, ``size`` nodes), ``inf`` if no edge crosses.

    ``(u, v)`` lists every edge once and ``weight`` is ``min(d_u, d_v)`` per
    edge.  IEEE division is monotone in the denominator, so
    ``min_e max(d̄/d_u, d̄/d_v) = d̄ / max_e min(d_u, d_v)`` bit for bit.
    """
    crossing = inside[u] != inside[v]
    if not crossing.any():
        return math.inf
    return (vol_s / size) / int(weight[crossing].max())


def diligence_of_cut(graph: GraphLike, subset: Iterable) -> float:
    """Return ``ρ(S) = min_{(u,v)∈E(S,S̄)} max(d̄(S)/d_u, d̄(S)/d_v)``.

    ``subset`` must identify the *smaller-volume* side of the cut; the
    function checks this and raises otherwise, because the paper's definition
    takes ``d̄`` over the smaller side.  Returns ``inf`` when no edge crosses
    the cut (such cuts never constrain the minimum over connected graphs).
    """
    snapshot = as_snapshot(graph)
    inside = _membership(snapshot, subset)
    size = int(inside.sum())
    require(0 < size < snapshot.n, "cut must be a proper non-empty subset")
    vol_s = int(snapshot.degrees[inside].sum())
    vol_c = 2 * snapshot.edge_count - vol_s
    require(vol_s > 0, "the chosen side of the cut must have positive volume")
    require(
        vol_s <= vol_c,
        "diligence_of_cut expects the smaller-volume side of the cut "
        f"(vol(S)={vol_s} > vol(S̄)={vol_c})",
    )
    u, v = snapshot.forward_edges()
    weight = np.minimum(snapshot.degrees[u], snapshot.degrees[v])
    return _side_diligence(inside, u, v, weight, vol_s, size)


def diligence_exact(graph: GraphLike) -> float:
    """Return the exact diligence ``ρ(G)`` by cut enumeration.

    Matches the paper's conventions: ``ρ(G) = 0`` when ``G`` is disconnected,
    and for connected graphs ``1/(n-1) ≤ ρ(G) ≤ 1``.  Limited to
    ``n ≤ EXACT_ENUMERATION_LIMIT``.
    """
    return _exact_cut_metrics(graph, "diligence_exact", "diligence_sampled")[1]


def _ball(snapshot: CsrSnapshot, centre: int, radius: int) -> np.ndarray:
    """Mask of the nodes within ``radius`` hops of compact node ``centre``."""
    seen = np.zeros(snapshot.n, dtype=bool)
    seen[centre] = True
    frontier = np.array([centre], dtype=np.int64)
    for _ in range(radius):
        reached = concatenated_neighbors(snapshot, frontier)
        frontier = np.unique(reached[~seen[reached]])
        if not frontier.size:
            break
        seen[frontier] = True
    return seen


def diligence_sampled(
    graph: GraphLike,
    samples: int = 200,
    rng: RngLike = None,
) -> float:
    """Return an *upper estimate* of ``ρ(G)`` from randomly sampled cuts.

    ``ρ(G)`` is a minimum over cuts, so sampling can only overestimate it.
    The sampler mixes three cut families that are the usual minimisers:
    single-node cuts, random balanced bisections, and BFS-ball cuts around a
    random centre.
    """
    snapshot = as_snapshot(graph)
    n = snapshot.n
    require_node_count(n, minimum=2)
    if not snapshot.is_connected():
        return 0.0
    gen = ensure_rng(rng)
    degrees = snapshot.degrees
    total_volume = 2 * snapshot.edge_count
    u, v = snapshot.forward_edges()
    weight = np.minimum(degrees[u], degrees[v])

    # Single-node cuts, often the minimiser when degrees are skewed: the
    # crossing edges of {x} are x's own, and ρ reads the smaller side.
    entry_weight = np.minimum(degrees[snapshot.row_owner], degrees[snapshot.indices])
    heaviest = np.maximum.reduceat(entry_weight, snapshot.indptr[:-1])
    alone = 2 * degrees <= total_volume
    d_bar = np.where(alone, degrees / 1, (total_volume - degrees) / (n - 1))
    best = float((d_bar / heaviest).min())

    for _ in range(samples):
        if gen.integers(0, 2) == 0:
            size = int(gen.integers(1, n))
            inside = np.zeros(n, dtype=bool)
            inside[gen.choice(n, size=size, replace=False)] = True
        else:
            centre = int(gen.integers(0, n))
            inside = _ball(snapshot, centre, int(gen.integers(1, 4)))
        size = int(inside.sum())
        if size == n:
            continue
        # Connected, so both sides have positive volume; ρ reads the smaller.
        vol = int(degrees[inside].sum())
        if 2 * vol > total_volume:
            inside, vol, size = ~inside, total_volume - vol, n - size
        best = min(best, _side_diligence(inside, u, v, weight, vol, size))
    return best


# ---------------------------------------------------------------------------
# Absolute diligence and other degree statistics
# ---------------------------------------------------------------------------

def absolute_diligence(graph: GraphLike) -> float:
    """Return ``ρ̄(G) = min_{(u,v)∈E} max(1/d_u, 1/d_v)``; 0 for empty graphs."""
    return as_snapshot(graph).absolute_diligence()


def degree_variation_ratio(degree_history: Dict) -> float:
    """Return ``M(G) = max_u Δ_u / δ_u`` from per-node degree histories.

    ``degree_history`` maps each node to an iterable of its degrees over the
    time steps considered.  This is the quantity appearing in the upper bound
    of Giakkoupis, Sauerwald and Stauffer [17] that the paper's Section 1.2
    compares against.  Nodes whose minimum degree is zero are skipped (the
    ratio is undefined); if every node has minimum degree zero the function
    raises.
    """
    best = 0.0
    found = False
    for node, degrees in degree_history.items():
        degrees = list(degrees)
        require(len(degrees) > 0, f"empty degree history for node {node!r}")
        low = min(degrees)
        high = max(degrees)
        if low == 0:
            continue
        found = True
        best = max(best, high / low)
    require(found, "degree_variation_ratio: every node has minimum degree 0")
    return best


# ---------------------------------------------------------------------------
# Bundled snapshot metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphMetrics:
    """All per-snapshot quantities the bounds of the paper consume.

    Attributes
    ----------
    conductance:
        ``Φ(G)`` (exact, analytic, or an estimate depending on provenance).
    diligence:
        ``ρ(G)``.
    absolute_diligence:
        ``ρ̄(G)``.
    connected:
        Whether the snapshot is connected; drives the ``⌈Φ⌉`` indicator of
        Theorem 1.3.
    n:
        Number of nodes.
    exact:
        True when conductance and diligence were computed by full cut
        enumeration (or supplied analytically by a construction).
    """

    conductance: float
    diligence: float
    absolute_diligence: float
    connected: bool
    n: int
    exact: bool = True

    def conductance_indicator(self) -> int:
        """Return ``⌈Φ(G)⌉`` as used by Theorem 1.3: 1 if connected else 0."""
        return 1 if self.connected else 0


def measure_graph(graph: GraphLike, sampled_cuts: int = 200, rng: RngLike = None) -> GraphMetrics:
    """Compute a :class:`GraphMetrics` bundle for ``graph`` (networkx or CSR).

    Uses exact enumeration when the graph is small enough and falls back to
    spectral / sampled estimates otherwise (marking ``exact=False``).
    """
    snapshot = as_snapshot(graph)
    n = snapshot.n
    require(n >= 1, f"measure_graph needs a graph with at least one node, got n = {n}")
    exact = n <= EXACT_ENUMERATION_LIMIT
    if exact:
        phi, rho = _exact_cut_metrics(snapshot, "measure_graph", "the estimates")
    else:
        phi = conductance_estimate(snapshot)
        rho = diligence_sampled(snapshot, sampled_cuts, rng)
    return GraphMetrics(
        conductance=phi, diligence=rho, absolute_diligence=snapshot.absolute_diligence(),
        connected=snapshot.is_connected(), n=n, exact=exact,
    )


__all__ = [
    "EXACT_ENUMERATION_LIMIT",
    "GraphMetrics",
    "absolute_diligence",
    "average_degree",
    "conductance_estimate",
    "conductance_exact",
    "conductance_of_cut",
    "conductance_spectral_bounds",
    "cut_edges",
    "degree_variation_ratio",
    "diligence_exact",
    "diligence_of_cut",
    "diligence_sampled",
    "measure_graph",
    "volume",
]
