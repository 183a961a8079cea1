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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CsrSnapshot, GraphLike, as_snapshot, normalized_laplacian_lambda2
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Largest node count for which exact (cut-enumeration) metrics are attempted.
EXACT_ENUMERATION_LIMIT = 18

#: Cut masks per block of the exact scan (bounds its transient memory).
_CUT_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def volume(graph: nx.Graph, nodes: Optional[Iterable] = None) -> int:
    """Return ``vol(S) = Σ_{u∈S} d_u`` (or ``vol(G)`` when ``nodes`` is None)."""
    if nodes is None:
        return 2 * graph.number_of_edges()
    return sum(graph.degree(u) for u in nodes)


def cut_edges(graph: nx.Graph, subset: Iterable) -> Set[Tuple]:
    """Return the set of edges crossing ``subset`` and its complement.

    Edges are returned with the endpoint inside ``subset`` first, which the
    simulators rely on when computing push/pull rates per crossing edge.
    """
    inside = set(subset)
    crossing = set()
    for u in inside:
        if u not in graph:
            raise ValueError(f"node {u!r} not in graph")
        for v in graph.neighbors(u):
            if v not in inside:
                crossing.add((u, v))
    return crossing


def average_degree(graph: nx.Graph, nodes: Iterable) -> float:
    """Return ``d̄(S) = vol(S)/|S|`` for the node set ``nodes``."""
    nodes = list(nodes)
    require(len(nodes) > 0, "average_degree requires a non-empty node set")
    return volume(graph, nodes) / len(nodes)


# ---------------------------------------------------------------------------
# Conductance
# ---------------------------------------------------------------------------

def conductance_of_cut(graph: nx.Graph, subset: Iterable) -> float:
    """Return ``|E(S, S̄)| / min(vol(S), vol(S̄))`` for the cut defined by ``subset``.

    Raises ``ValueError`` when either side has zero volume (the ratio is not
    defined by Equation (2) in that case).
    """
    subset = set(subset)
    complement = set(graph.nodes()) - subset
    vol_s = volume(graph, subset)
    vol_c = volume(graph, complement)
    denom = min(vol_s, vol_c)
    require(denom > 0, "conductance_of_cut: both sides of the cut must have positive volume")
    return len(cut_edges(graph, subset)) / denom


def _cut_minima(snapshot: CsrSnapshot) -> Tuple[float, float]:
    """Return ``(Φ, ρ)`` of a connected snapshot by one scan over its cuts.

    Every cut of a connected graph has a crossing edge, so each mask bounds
    both minima; with ``n = 1`` there is no cut and both stay ``inf``.
    """
    n, degrees = snapshot.n, snapshot.degrees
    forward = snapshot.row_owner < snapshot.indices
    u, v = snapshot.row_owner[forward], snapshot.indices[forward]
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

def diligence_of_cut(graph: nx.Graph, subset: Iterable) -> float:
    """Return ``ρ(S) = min_{(u,v)∈E(S,S̄)} max(d̄(S)/d_u, d̄(S)/d_v)``.

    ``subset`` must identify the *smaller-volume* side of the cut; the
    function checks this and raises otherwise, because the paper's definition
    takes ``d̄`` over the smaller side.  Returns ``inf`` when no edge crosses
    the cut (such cuts never constrain the minimum over connected graphs).
    """
    subset = set(subset)
    complement = set(graph.nodes()) - subset
    require(len(subset) > 0 and len(complement) > 0, "cut must be a proper non-empty subset")
    vol_s = volume(graph, subset)
    vol_c = volume(graph, complement)
    require(vol_s > 0, "the chosen side of the cut must have positive volume")
    require(
        vol_s <= vol_c,
        "diligence_of_cut expects the smaller-volume side of the cut "
        f"(vol(S)={vol_s} > vol(S̄)={vol_c})",
    )
    crossing = cut_edges(graph, subset)
    if not crossing:
        return math.inf
    d_bar = vol_s / len(subset)
    return min(max(d_bar / graph.degree(u), d_bar / graph.degree(v)) for u, v in crossing)


def diligence_exact(graph: GraphLike) -> float:
    """Return the exact diligence ``ρ(G)`` by cut enumeration.

    Matches the paper's conventions: ``ρ(G) = 0`` when ``G`` is disconnected,
    and for connected graphs ``1/(n-1) ≤ ρ(G) ≤ 1``.  Limited to
    ``n ≤ EXACT_ENUMERATION_LIMIT``.
    """
    return _exact_cut_metrics(graph, "diligence_exact", "diligence_sampled")[1]


def diligence_sampled(
    graph: nx.Graph,
    samples: int = 200,
    rng: RngLike = None,
) -> float:
    """Return an *upper estimate* of ``ρ(G)`` from randomly sampled cuts.

    ``ρ(G)`` is a minimum over cuts, so sampling can only overestimate it.
    The sampler mixes three cut families that are the usual minimisers:
    single-node cuts, random balanced bisections, and BFS-ball cuts around a
    random centre.
    """
    require_node_count(graph.number_of_nodes(), minimum=2)
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    gen = ensure_rng(rng)
    nodes = list(graph.nodes())
    total_volume = volume(graph)
    best = math.inf

    def consider(subset: Set) -> None:
        nonlocal best
        if not subset or len(subset) == len(nodes):
            return
        # Connected, so both sides have positive volume; ρ reads the smaller.
        side = subset if 2 * volume(graph, subset) <= total_volume else set(nodes) - subset
        best = min(best, diligence_of_cut(graph, side))

    # Single-node cuts: often the minimiser when degrees are skewed.
    for u in nodes:
        consider({u})
    for _ in range(samples):
        mode = gen.integers(0, 2)
        if mode == 0:
            size = int(gen.integers(1, len(nodes)))
            subset = set(gen.choice(nodes, size=size, replace=False).tolist())
        else:
            centre = nodes[int(gen.integers(0, len(nodes)))]
            radius = int(gen.integers(1, 4))
            subset = set(nx.single_source_shortest_path_length(graph, centre, cutoff=radius))
        consider(subset)
    return best if best is not math.inf else 1.0


# ---------------------------------------------------------------------------
# Absolute diligence and other degree statistics
# ---------------------------------------------------------------------------

def absolute_diligence(graph: nx.Graph) -> float:
    """Return ``ρ̄(G) = min_{(u,v)∈E} max(1/d_u, 1/d_v)``; 0 for empty graphs."""
    if graph.number_of_edges() == 0:
        return 0.0
    return min(
        max(1.0 / graph.degree(u), 1.0 / graph.degree(v)) for u, v in graph.edges()
    )


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
        rho = diligence_sampled(snapshot.to_networkx(), sampled_cuts, rng)
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
