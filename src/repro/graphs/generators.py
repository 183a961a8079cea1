"""Static graph generators used by the paper's constructions.

These are the building blocks from which the dynamic networks of Sections 4-6
are assembled:

* cliques, stars, cycles and paths (standard topologies used for calibration
  and for the dichotomy networks of Theorem 1.7);
* random ``d``-regular expanders with a verified constant spectral gap
  (Section 4 step 2 requires "arbitrary 4-regular expander graphs");
* ``G(A, d₁, d₂)`` — a connected graph where every node has degree ``d₁``
  except one hub of degree ``d₂`` (Section 5.1);
* the clique-with-pendant-edge and bridged double clique making up ``G1`` of
  Figure 1(a);
* a chain of complete bipartite clusters (step 1 of the ``H_{k,Δ}``
  construction, also exported separately for testing).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CsrSnapshot, GraphLike, as_snapshot, normalized_laplacian_lambda2
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count, require_probability

#: Spectral-gap threshold below which a random regular graph is rejected as
#: "not an expander".  Random 4-regular graphs have second eigenvalue of the
#: normalised Laplacian bounded away from 0 w.h.p.; 0.1 is a conservative cut.
EXPANDER_GAP_THRESHOLD = 0.1

#: Number of regeneration attempts before ``random_regular_expander`` gives up.
EXPANDER_MAX_ATTEMPTS = 25


# ---------------------------------------------------------------------------
# Elementary topologies
# ---------------------------------------------------------------------------

def clique(nodes: Iterable[Hashable]) -> nx.Graph:
    """Return the complete graph on ``nodes``."""
    nodes = list(nodes)
    require(len(nodes) >= 1, "clique requires at least one node")
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:])
    return graph


def star(center: Hashable, leaves: Iterable[Hashable]) -> nx.Graph:
    """Return a star with the given ``center`` and ``leaves``."""
    leaves = list(leaves)
    require(len(leaves) >= 1, "star requires at least one leaf")
    require(center not in leaves, "center must not also be a leaf")
    graph = nx.Graph()
    graph.add_node(center)
    graph.add_nodes_from(leaves)
    graph.add_edges_from((center, leaf) for leaf in leaves)
    return graph


def dynamic_star_graph(n_plus_one: int, center: Hashable) -> nx.Graph:
    """Return the star over nodes ``0..n`` with the prescribed ``center``.

    This is a single snapshot of the dynamic star ``G2`` of Figure 1(b): the
    node set is fixed to ``{0, ..., n}`` and only the centre changes between
    time steps.
    """
    require_node_count(n_plus_one, minimum=2, name="n_plus_one")
    nodes = list(range(n_plus_one))
    require(center in nodes, f"center {center!r} must be one of the {n_plus_one} nodes")
    return star(center, [u for u in nodes if u != center])


def cycle(nodes: Iterable[Hashable]) -> nx.Graph:
    """Return the cycle visiting ``nodes`` in the given order."""
    nodes = list(nodes)
    require(len(nodes) >= 3, "cycle requires at least three nodes")
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(zip(nodes, nodes[1:] + nodes[:1]))
    return graph


def path(nodes: Iterable[Hashable]) -> nx.Graph:
    """Return the path visiting ``nodes`` in the given order."""
    nodes = list(nodes)
    require(len(nodes) >= 2, "path requires at least two nodes")
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(zip(nodes, nodes[1:]))
    return graph


def complete_bipartite_chain(clusters: Sequence[Sequence[Hashable]]) -> nx.Graph:
    """Return a "string of complete bipartite graphs" over the given clusters.

    Consecutive clusters ``S_i`` and ``S_{i+1}`` are joined completely; this is
    step 1 of the ``H_{k,Δ}(A,B)`` construction (Section 4).
    """
    require(len(clusters) >= 2, "need at least two clusters to form a chain")
    graph = nx.Graph()
    seen = set()
    for cluster in clusters:
        cluster = list(cluster)
        require(len(cluster) >= 1, "clusters must be non-empty")
        for node in cluster:
            require(node not in seen, f"clusters must be disjoint; {node!r} repeated")
            seen.add(node)
        graph.add_nodes_from(cluster)
    for left, right in zip(clusters, clusters[1:]):
        graph.add_edges_from((u, v) for u in left for v in right)
    return graph


# ---------------------------------------------------------------------------
# CSR-native constructors (no dict-of-dict adjacency on the hot path)
# ---------------------------------------------------------------------------

def _positions(count: int) -> np.ndarray:
    """``0, 1, …, count−1`` as ``int64``, built without ``np.arange``.

    ``np.arange`` releases the GIL even for a handful of elements, and a
    thread that releases it while another thread is busy waits out a whole
    5 ms switch interval to get it back.  The service builds networks on one
    thread while another streams events, so the static builders below, each
    a few tens of microseconds, avoid it.
    """
    return np.fromiter(range(count), dtype=np.int64, count=count)


def clique_csr(nodes: Iterable[Hashable]) -> CsrSnapshot:
    """Return the complete graph on ``nodes`` as a :class:`CsrSnapshot`.

    Row ``i`` lists ``i+1, …, n−1, 0, …, i−1``: exactly the arrays
    ``CsrSnapshot.from_networkx(clique(nodes))`` produces, so the engines
    draw the same neighbours from either construction.
    """
    nodes = list(nodes)
    n = len(nodes)
    require(n >= 1, "clique requires at least one node")
    rows = _positions(n + 1)
    # Row i of 0..n−1 tiled into rows of length n+1 starts at i, so its
    # columns 1..n−1 are i+1, …, i−1 (mod n): copies only, no arithmetic
    # (and no GIL release) over the n² entries.
    indices = np.tile(rows[:n], n + 1).reshape(n, n + 1)[:, 1:n]
    return CsrSnapshot(rows * (n - 1), indices.reshape(-1), nodes, validate=False)


def star_csr(center: Hashable, leaves: Iterable[Hashable]) -> CsrSnapshot:
    """Return a star (``center`` first in the node order) as a :class:`CsrSnapshot`."""
    leaves = list(leaves)
    require(len(leaves) >= 1, "star requires at least one leaf")
    require(center not in leaves, "center must not also be a leaf")
    n = len(leaves) + 1
    ids = _positions(n)
    zeros = np.zeros(n - 1, dtype=np.int64)
    indptr = np.concatenate([zeros[:1], ids + (n - 1)])
    indices = np.concatenate([ids[1:], zeros])
    return CsrSnapshot(indptr, indices, [center] + leaves, validate=False)


def dynamic_star_csr(n_plus_one: int, center: Hashable) -> CsrSnapshot:
    """CSR snapshot of the dynamic star ``G2``: nodes ``0..n`` in label order.

    Unlike :func:`star_csr` the node order is the fixed label order ``0..n``
    regardless of which node is the centre, so compact ids stay stable across
    the centre rotations of :class:`repro.dynamics.dichotomy.DynamicStarNetwork`.
    """
    require_node_count(n_plus_one, minimum=2, name="n_plus_one")
    require(
        isinstance(center, (int, np.integer)) and 0 <= center < n_plus_one,
        f"center {center!r} must be one of the {n_plus_one} nodes",
    )
    center = int(center)
    n = n_plus_one - 1
    degrees = np.ones(n_plus_one, dtype=np.int64)
    degrees[center] = n
    indptr = np.zeros(n_plus_one + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.full(2 * n, center, dtype=np.int64)
    others = np.concatenate(
        [np.arange(center, dtype=np.int64), np.arange(center + 1, n_plus_one, dtype=np.int64)]
    )
    indices[indptr[center]:indptr[center + 1]] = others
    return CsrSnapshot(indptr, indices, range(n_plus_one), validate=False)


def cycle_csr(nodes: Iterable[Hashable]) -> CsrSnapshot:
    """Return the cycle visiting ``nodes`` in order as a :class:`CsrSnapshot`.

    Row ``i`` lists ``(i+1, i−1) mod n``, the order
    ``CsrSnapshot.from_networkx(cycle(nodes))`` produces.
    """
    nodes = list(nodes)
    n = len(nodes)
    require(n >= 3, "cycle requires at least three nodes")
    ids = _positions(n + 1)
    indices = np.stack([(ids[:n] + 1) % n, (ids[:n] - 1) % n], axis=1)
    return CsrSnapshot(2 * ids, indices.reshape(-1), nodes, validate=False)


def path_csr(nodes: Iterable[Hashable]) -> CsrSnapshot:
    """Return the path visiting ``nodes`` in order as a :class:`CsrSnapshot`.

    Row ``i`` lists ``(i+1, i−1)``, keeping only the ends that exist: the
    order ``CsrSnapshot.from_networkx(path(nodes))`` produces.
    """
    nodes = list(nodes)
    n = len(nodes)
    require(n >= 2, "path requires at least two nodes")
    ids = _positions(n)
    candidates = np.stack([ids + 1, ids - 1], axis=1)
    present = (candidates >= 0) & (candidates < n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return CsrSnapshot(indptr, candidates[present], nodes, validate=False)


def _clique_edge_ids(member_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compact endpoint arrays of the clique over the given compact ids."""
    upper = np.triu_indices(len(member_ids), k=1)
    return member_ids[upper[0]], member_ids[upper[1]]


def clique_with_pendant_csr(n: int) -> CsrSnapshot:
    """CSR form of :func:`clique_with_pendant` (labels ``1..n+1``, pendant last)."""
    require_node_count(n, minimum=2)
    core_u, core_v = _clique_edge_ids(np.arange(n, dtype=np.int64))
    u_ids = np.concatenate([core_u, np.array([0], dtype=np.int64)])
    v_ids = np.concatenate([core_v, np.array([n], dtype=np.int64)])
    return CsrSnapshot.from_edge_arrays(range(1, n + 2), u_ids, v_ids)


def bridged_double_clique_csr(n: int) -> CsrSnapshot:
    """CSR form of :func:`bridged_double_clique` on labels ``1..n+1``.

    Matches the networkx construction exactly: the left clique holds node 1,
    the right clique holds node ``n+1``, joined by the bridge ``{1, n+1}``.
    """
    require_node_count(n, minimum=3)
    total = n + 1
    left_size = (total + 1) // 2
    left_nodes = [1] + [u for u in range(2, total + 1) if u != n + 1][: left_size - 1]
    left_set = set(left_nodes)
    right_nodes = [u for u in range(1, total + 1) if u not in left_set]
    labels = list(range(1, total + 1))
    left_ids = np.array([label - 1 for label in left_nodes], dtype=np.int64)
    right_ids = np.array([label - 1 for label in right_nodes], dtype=np.int64)
    lu, lv = _clique_edge_ids(left_ids)
    ru, rv = _clique_edge_ids(right_ids)
    u_ids = np.concatenate([lu, ru, np.array([0], dtype=np.int64)])
    v_ids = np.concatenate([lv, rv, np.array([n], dtype=np.int64)])
    return CsrSnapshot.from_edge_arrays(labels, u_ids, v_ids)


#: Chunk length for the vectorised Bernoulli sweep over all node pairs in
#: ``erdos_renyi_csr`` (bounds transient memory to a few megabytes).
ER_SAMPLING_CHUNK = 1 << 20


def erdos_renyi_csr(
    n: int,
    edge_probability: float,
    rng: RngLike = None,
    nodes: Optional[Sequence[Hashable]] = None,
    method: str = "auto",
) -> CsrSnapshot:
    """Sample ``G(n, p)`` directly into CSR form.

    Every one of the ``n(n-1)/2`` potential edges is included independently
    with probability ``p`` (the exact Erdős–Rényi model).  Two samplers
    realise the same distribution:

    * ``"bernoulli"`` — one uniform per pair, swept in vectorised chunks:
      O(n²) variates, no ``n × n`` structure ever materialised;
    * ``"geometric"`` — geometric-skip sampling: the gaps between successive
      edges in condensed pair order are iid ``Geometric(p)``, so one variate
      is drawn *per edge* — O(m) = O(p n²) work, which for sparse large-n
      graphs (``p = Θ(log n / n)``) is orders of magnitude fewer draws.

    ``"auto"`` keeps the Bernoulli sweep (and its generator stream, on which
    existing fixed-seed graphs depend) up to :data:`ER_SAMPLING_CHUNK` pairs
    and switches to geometric skips beyond that.  The two methods consume
    different random streams: for a fixed seed they produce different (but
    identically distributed) graphs.
    """
    require_node_count(n, minimum=1)
    require_probability(edge_probability, "edge_probability")
    require(
        method in ("auto", "bernoulli", "geometric"),
        f"method must be 'auto', 'bernoulli' or 'geometric', got {method!r}",
    )
    labels = range(n) if nodes is None else nodes
    require(
        len(labels) == n,
        f"nodes must provide exactly n labels (n={n}, got {len(labels)})",
    )
    gen = ensure_rng(rng)
    total_pairs = n * (n - 1) // 2
    if method == "auto":
        method = "geometric" if total_pairs > ER_SAMPLING_CHUNK else "bernoulli"
    if method == "geometric":
        pair_ids = _geometric_pair_ids(gen, total_pairs, edge_probability)
    else:
        hits: List[np.ndarray] = []
        offset = 0
        while offset < total_pairs:
            chunk = min(ER_SAMPLING_CHUNK, total_pairs - offset)
            local = np.nonzero(gen.random(chunk) < edge_probability)[0]
            if local.size:
                hits.append(local + offset)
            offset += chunk
        pair_ids = (
            np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
        )
    if pair_ids.size:
        u_ids, v_ids = condensed_to_pair(pair_ids, n)
    else:
        u_ids = v_ids = np.empty(0, dtype=np.int64)
    return CsrSnapshot.from_edge_arrays(labels, u_ids, v_ids)


def _geometric_pair_ids(
    gen: np.random.Generator, total_pairs: int, p: float
) -> np.ndarray:
    """Condensed indices of the sampled edges, one geometric variate per edge.

    A Bernoulli(p) process over positions ``0..total_pairs-1`` has iid
    ``Geometric(p)`` gaps between successes (support ``{1, 2, ...}``), so
    cumulative sums of geometric draws walk exactly the positions the
    Bernoulli sweep would have accepted — without touching the misses.
    """
    if p <= 0.0 or total_pairs == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total_pairs, dtype=np.int64)
    hits: List[np.ndarray] = []
    position = -1  # last accepted position; the first gap starts from -1
    while position < total_pairs:
        remaining = total_pairs - position
        # Enough draws to cross the remaining span w.h.p.; the tail loops.
        block = max(1024, int(remaining * p * 1.05) + 64)
        positions = position + np.cumsum(gen.geometric(p, size=block))
        position = int(positions[-1])
        hits.append(positions[positions < total_pairs])
    return np.concatenate(hits).astype(np.int64, copy=False)


def condensed_to_pair(pair_ids: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Map condensed upper-triangle indices to ``(i, j)`` pairs with ``i < j``.

    Pairs are numbered row-major: ``(0,1), (0,2), ..., (0,n-1), (1,2), ...``.
    """
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    # Row i starts at offset i*n - i*(i+1)/2 - i... solve the quadratic for i.
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * pair_ids)) // 2).astype(np.int64)

    def row_start(rows: np.ndarray) -> np.ndarray:
        return rows * n - (rows * (rows + 1)) // 2

    # Guard against floating point landing one row off.
    i[row_start(i) > pair_ids] -= 1
    i[pair_ids - row_start(i) >= (n - 1 - i)] += 1
    j = pair_ids - row_start(i) + i + 1
    return i, j


def pair_to_condensed(u_ids: np.ndarray, v_ids: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`condensed_to_pair` (expects ``u < v`` elementwise)."""
    u_ids = np.asarray(u_ids, dtype=np.int64)
    v_ids = np.asarray(v_ids, dtype=np.int64)
    return u_ids * n - (u_ids * (u_ids + 1)) // 2 - u_ids + v_ids - 1


# ---------------------------------------------------------------------------
# Expanders
# ---------------------------------------------------------------------------

def spectral_gap(graph: GraphLike) -> float:
    """Return the second-smallest eigenvalue of the normalised Laplacian."""
    snapshot = as_snapshot(graph)
    if snapshot.n < 2 or snapshot.edge_count == 0:
        return 0.0
    return max(normalized_laplacian_lambda2(snapshot), 0.0)


def random_regular_expander(
    degree: int,
    nodes: Iterable[Hashable],
    rng: RngLike = None,
    gap_threshold: float = EXPANDER_GAP_THRESHOLD,
    max_attempts: int = EXPANDER_MAX_ATTEMPTS,
) -> nx.Graph:
    """Return a connected random ``degree``-regular graph with a verified gap.

    Section 4 of the paper only requires the two expanders glued to the
    cluster chain to have ``Φ = Θ(1)`` and constant degree.  Random regular
    graphs have this property with high probability; we verify the normalised
    Laplacian gap and regenerate when a sample fails.

    Parameters
    ----------
    degree:
        Regular degree (must satisfy ``degree < n`` and ``degree * n`` even).
    nodes:
        Node labels; the generated graph is relabelled onto these.
    gap_threshold:
        Minimum accepted spectral gap; snapshots below it are resampled.
    """
    nodes = list(nodes)
    n = len(nodes)
    require_node_count(n, minimum=2)
    require(0 < degree < n, f"degree must satisfy 0 < degree < n (degree={degree}, n={n})")
    require(degree * n % 2 == 0, "degree * n must be even for a regular graph to exist")
    gen = ensure_rng(rng)
    # Very small graphs cannot meet asymptotic gap thresholds; be lenient.
    effective_threshold = gap_threshold if n >= 8 else 0.0
    last_gap = 0.0
    for _ in range(max_attempts):
        seed = int(gen.integers(0, 2**32 - 1))
        candidate = nx.random_regular_graph(degree, n, seed=seed)
        if not nx.is_connected(candidate):
            continue
        last_gap = spectral_gap(candidate)
        if last_gap >= effective_threshold:
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError(
        f"failed to generate a {degree}-regular expander on {n} nodes after "
        f"{max_attempts} attempts (last spectral gap {last_gap:.4f} < "
        f"{effective_threshold})"
    )


# ---------------------------------------------------------------------------
# Section 5.1 building blocks
# ---------------------------------------------------------------------------

def regular_connected_graph(nodes: Sequence[Hashable], degree: int, rng: RngLike = None) -> nx.Graph:
    """Return a connected ``degree``-regular graph ``G(A, d₁)`` on ``nodes``.

    Uses a circulant construction (each node connected to its ``degree/2``
    nearest successors on a ring) when ``degree`` is even, which is always
    connected and deterministic; falls back to rejection sampling of random
    regular graphs for odd degrees.
    """
    nodes = list(nodes)
    n = len(nodes)
    require_node_count(n, minimum=2)
    require(0 < degree < n, f"degree must satisfy 0 < degree < n (degree={degree}, n={n})")
    require(degree * n % 2 == 0, "degree * n must be even for a regular graph to exist")
    if degree % 2 == 0:
        half = degree // 2
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for i in range(n):
            for offset in range(1, half + 1):
                graph.add_edge(nodes[i], nodes[(i + offset) % n])
        return graph
    gen = ensure_rng(rng)
    for _ in range(EXPANDER_MAX_ATTEMPTS):
        seed = int(gen.integers(0, 2**32 - 1))
        candidate = nx.random_regular_graph(degree, n, seed=seed)
        if nx.is_connected(candidate):
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError(f"failed to build a connected {degree}-regular graph on {n} nodes")


def near_regular_with_hub(
    nodes: Sequence[Hashable],
    base_degree: int,
    hub_degree: int,
    hub: Optional[Hashable] = None,
    rng: RngLike = None,
) -> Tuple[nx.Graph, Hashable]:
    """Return ``G(A, d₁, d₂)``: connected, all degrees ``d₁`` except one hub ``d₂``.

    The Section 5.1 construction needs a connected simple graph in which every
    node has (even) degree ``d₁`` apart from a single node of (even) degree
    ``d₂ > d₁``.  We realise it as a circulant ``d₁``-regular graph plus
    ``(d₂ - d₁)/2`` extra edge-disjoint "chords" through the hub, obtained by
    taking a matching on ``d₂ - d₁`` non-neighbours of the hub, removing those
    matching edges... — more simply: we connect the hub to ``d₂ - d₁`` extra
    nodes and delete one edge between each *pair* of those extra neighbours so
    their degrees are preserved.

    Returns ``(graph, hub_node)``.
    """
    nodes = list(nodes)
    n = len(nodes)
    require(base_degree % 2 == 0 and base_degree >= 2, "base_degree must be even and >= 2")
    require(hub_degree % 2 == 0, "hub_degree must be even")
    require(hub_degree >= base_degree, "hub_degree must be at least base_degree")
    extra = hub_degree - base_degree
    require(
        hub_degree <= n - 1,
        f"hub_degree must be at most n-1 (hub_degree={hub_degree}, n={n})",
    )
    graph = regular_connected_graph(nodes, base_degree, rng=rng)
    hub = nodes[0] if hub is None else hub
    require(hub in graph, f"hub {hub!r} must be one of the provided nodes")
    if extra == 0:
        return graph, hub
    # Candidate new neighbours: nodes not currently adjacent to the hub.
    non_neighbours = [u for u in nodes if u != hub and not graph.has_edge(hub, u)]
    require(
        len(non_neighbours) >= extra,
        "not enough non-neighbours of the hub to raise its degree "
        f"(need {extra}, have {len(non_neighbours)})",
    )
    chosen: List[Hashable] = []
    # Pick pairs of chosen new neighbours that are currently adjacent to each
    # other, so deleting their shared edge keeps their degrees at d1 after we
    # attach them to the hub.
    candidate_set = set(non_neighbours)
    used = set()
    for u in non_neighbours:
        if len(chosen) >= extra:
            break
        if u in used:
            continue
        for v in graph.neighbors(u):
            if v in candidate_set and v not in used and v != u and not graph.has_edge(hub, v):
                chosen.extend([u, v])
                used.update([u, v])
                graph.remove_edge(u, v)
                break
    require(
        len(chosen) >= extra,
        "could not find enough adjacent non-neighbour pairs to rewire through the hub; "
        "try a larger node set or a smaller hub_degree",
    )
    chosen = chosen[:extra]
    for u in chosen:
        graph.add_edge(hub, u)
    if not nx.is_connected(graph):
        # Rewiring removed a bridge (extremely unlikely on circulants with
        # d1 >= 4, possible for d1 = 2).  Retry with a different rng draw.
        gen = ensure_rng(rng)
        return near_regular_with_hub(
            nodes, base_degree, hub_degree, hub=hub, rng=int(gen.integers(0, 2**32 - 1))
        )
    return graph, hub


# ---------------------------------------------------------------------------
# Figure 1(a) building blocks
# ---------------------------------------------------------------------------

def clique_with_pendant(n: int, pendant: Hashable = None) -> nx.Graph:
    """Return an ``n``-node clique ``{1..n}`` plus a pendant node attached to node 1.

    This is ``G(0)`` of the dynamic network ``G1`` in Figure 1(a): node
    ``n + 1`` (the pendant) initially knows the rumor and is connected only to
    node 1.  Nodes are labelled ``1..n`` with the pendant labelled ``n + 1``
    unless an explicit ``pendant`` label is given.
    """
    require_node_count(n, minimum=2)
    core = clique(range(1, n + 1))
    pendant_label = (n + 1) if pendant is None else pendant
    require(pendant_label not in core, "pendant label clashes with a clique node")
    core.add_edge(1, pendant_label)
    return core


def bridged_double_clique(n: int) -> nx.Graph:
    """Return two equal cliques joined by a single bridge edge.

    This is ``G(1)`` (and all later snapshots) of ``G1`` in Figure 1(a): the
    left clique contains node 1, the right clique contains node ``n + 1``, and
    the bridge is the edge ``{1, n + 1}``.  The total node count is ``n + 1``
    with the two cliques of size ``⌈(n+1)/2⌉`` and ``⌊(n+1)/2⌋``.
    """
    require_node_count(n, minimum=3)
    total = n + 1
    left_size = (total + 1) // 2
    left_nodes = [1] + [u for u in range(2, total + 1) if u != n + 1][: left_size - 1]
    right_nodes = [u for u in range(1, total + 1) if u not in set(left_nodes)]
    require(n + 1 in right_nodes, "internal error: node n+1 must be in the right clique")
    graph = nx.compose(clique(left_nodes), clique(right_nodes))
    graph.add_edge(1, n + 1)
    return graph


__all__ = [
    "EXPANDER_GAP_THRESHOLD",
    "EXPANDER_MAX_ATTEMPTS",
    "ER_SAMPLING_CHUNK",
    "bridged_double_clique",
    "bridged_double_clique_csr",
    "clique",
    "clique_csr",
    "clique_with_pendant_csr",
    "condensed_to_pair",
    "cycle_csr",
    "dynamic_star_csr",
    "erdos_renyi_csr",
    "pair_to_condensed",
    "path_csr",
    "star_csr",
    "clique_with_pendant",
    "complete_bipartite_chain",
    "cycle",
    "dynamic_star_graph",
    "near_regular_with_hub",
    "path",
    "random_regular_expander",
    "regular_connected_graph",
    "spectral_gap",
    "star",
]
