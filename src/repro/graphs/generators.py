"""Static graph generators used by the paper's constructions.

These are the building blocks from which the dynamic networks of Sections 4-6
are assembled:

* cliques, stars, cycles and paths in CSR form (standard topologies used for
  calibration and for the dichotomy networks of Theorem 1.7);
* random ``d``-regular expanders with a verified constant spectral gap
  (Section 4 step 2 requires "arbitrary 4-regular expander graphs");
* ``G(A, d₁, d₂)`` — a connected graph where every node has degree ``d₁``
  except one hub of degree ``d₂`` (Section 5.1);
* the clique-with-pendant-edge and bridged double clique making up ``G1`` of
  Figure 1(a);
* a chain of complete bipartite clusters (step 1 of the ``H_{k,Δ}``
  construction, also exported separately for testing).

Every builder returns a :class:`CsrSnapshot` whose entry order is the one
``CsrSnapshot.from_networkx`` gives for the networkx construction of the same
graph (``tests/graph_oracles.py`` keeps those constructions as oracles), so
the engines' random draws do not depend on which of the two built it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import (
    CsrSnapshot,
    GraphLike,
    as_snapshot,
    normalized_laplacian,
    normalized_laplacian_lambda2,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count, require_probability

#: Spectral-gap threshold below which a random regular graph is rejected as
#: "not an expander".  Random 4-regular graphs have second eigenvalue of the
#: normalised Laplacian bounded away from 0 w.h.p.; 0.1 is a conservative cut.
EXPANDER_GAP_THRESHOLD = 0.1

#: Number of regeneration attempts before ``random_regular_expander`` gives up.
EXPANDER_MAX_ATTEMPTS = 25


# ---------------------------------------------------------------------------
# Section 4 building block
# ---------------------------------------------------------------------------

def complete_bipartite_chain(clusters: Sequence[Sequence[Hashable]]) -> CsrSnapshot:
    """Return a "string of complete bipartite graphs" over the given clusters.

    Consecutive clusters ``S_i`` and ``S_{i+1}`` are joined completely; this is
    step 1 of the ``H_{k,Δ}(A,B)`` construction (Section 4).  Nodes are listed
    cluster by cluster, and edges are added pair of clusters by pair, each
    ``S_i`` node to every ``S_{i+1}`` node in order.
    """
    require(len(clusters) >= 2, "need at least two clusters to form a chain")
    clusters = [list(cluster) for cluster in clusters]
    nodes: List[Hashable] = []
    seen = set()
    for cluster in clusters:
        require(len(cluster) >= 1, "clusters must be non-empty")
        for node in cluster:
            require(node not in seen, f"clusters must be disjoint; {node!r} repeated")
            seen.add(node)
        nodes.extend(cluster)
    starts = np.cumsum([0] + [len(cluster) for cluster in clusters])
    ids = [np.arange(start, stop) for start, stop in zip(starts, starts[1:])]
    u_ids = np.concatenate([np.repeat(left, len(right)) for left, right in zip(ids, ids[1:])])
    v_ids = np.concatenate([np.tile(right, len(left)) for left, right in zip(ids, ids[1:])])
    return CsrSnapshot.from_edge_sequence(nodes, u_ids, v_ids)


# ---------------------------------------------------------------------------
# Elementary topologies and Figure 1 snapshots, built straight into CSR
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
    ``CsrSnapshot.from_networkx`` produces from ``networkx.complete_graph``
    on the same nodes, so the engines draw the same neighbours from either.
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

    Row ``i`` lists ``(i+1, i−1) mod n``, the order ``CsrSnapshot.from_networkx``
    produces from a networkx cycle built in the same node order.
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
    order ``CsrSnapshot.from_networkx`` produces from a networkx path built
    in the same node order.
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
    """``G(0)`` of ``G1`` in Figure 1(a): an ``n``-clique plus a pendant node.

    The clique holds labels ``1..n``; the pendant ``n + 1`` holds the rumor
    and is joined only to node 1.
    """
    require_node_count(n, minimum=2)
    core_u, core_v = _clique_edge_ids(np.arange(n, dtype=np.int64))
    u_ids = np.concatenate([core_u, np.array([0], dtype=np.int64)])
    v_ids = np.concatenate([core_v, np.array([n], dtype=np.int64)])
    return CsrSnapshot.from_edge_arrays(range(1, n + 2), u_ids, v_ids)


def bridged_double_clique_csr(n: int) -> CsrSnapshot:
    """``G(t ≥ 1)`` of ``G1`` in Figure 1(a): two cliques joined by one bridge.

    On labels ``1..n+1``, the left clique of ``⌈(n+1)/2⌉`` nodes holds node 1,
    the right clique holds node ``n+1``, and the bridge is ``{1, n+1}``.
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


#: Half-width of the band around a gap threshold inside which the Cholesky
#: test defers to ``eigvalsh``; far wider than either method's rounding error.
GAP_TEST_TOLERANCE = 1e-9


def has_spectral_gap(graph: GraphLike, threshold: float) -> bool:
    """Decide ``spectral_gap(graph) >= threshold``, by Cholesky where it can.

    With ``v = √d / ‖√d‖``, the kernel vector of the normalised Laplacian
    ``L``, the matrix ``L − θI + (threshold + 1)·vvᵀ`` is positive definite
    exactly when ``λ₂ > θ``.  A Cholesky factorisation at
    ``θ = threshold + ε`` that succeeds accepts, one at ``threshold − ε``
    that fails rejects, and only a gap within ``ε``
    (:data:`GAP_TEST_TOLERANCE`) of the threshold is settled by
    :func:`spectral_gap` itself.  The decision therefore equals the
    eigenvalue comparison unless rounding moves either method by more than
    ``ε``, orders of magnitude above their error at the sizes used here.
    """
    if threshold <= 0:
        return True  # spectral_gap is clipped at 0
    snapshot = as_snapshot(graph)
    if snapshot.n < 2 or snapshot.edge_count == 0:
        return False
    laplacian = normalized_laplacian(snapshot)
    root_degrees = np.sqrt(snapshot.degrees.astype(np.float64))
    v = root_degrees / np.linalg.norm(root_degrees)
    base = laplacian + (threshold + 1.0) * np.outer(v, v)
    diagonal = np.arange(snapshot.n)

    def positive_definite_at(theta: float) -> bool:
        shifted = base.copy()
        shifted[diagonal, diagonal] -= theta
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        return True

    if positive_definite_at(threshold + GAP_TEST_TOLERANCE):
        return True
    if not positive_definite_at(threshold - GAP_TEST_TOLERANCE):
        return False
    return spectral_gap(snapshot) >= threshold


def _pairing_edges(degree: int, n: int, seed: int) -> np.ndarray:
    """Edges of ``networkx.random_regular_graph(degree, n, seed)`` in its add order.

    A port of the pairing model networkx uses (Steger and Wormald): the same
    ``random.Random(seed)`` shuffles and the same set insertions, so the edge
    set iterates in the order networkx adds its edges, and the graph built
    from it is bit-identical, restarts included.  Returns an ``(m, 2)`` array
    of ``(s1, s2)`` pairs with ``s1 < s2``.
    """
    rnd = random.Random(seed)

    def suitable(edges, potential_edges) -> bool:
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges: Dict[int, int] = defaultdict(int)
            rnd.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return np.array(list(edges), dtype=np.int64).reshape(-1, 2)


def _random_regular(degree: int, nodes: Sequence[Hashable], gen) -> CsrSnapshot:
    """One pairing-model sample on ``nodes``, seeded by one draw from ``gen``."""
    edges = _pairing_edges(degree, len(nodes), int(gen.integers(0, 2**32 - 1)))
    return CsrSnapshot.from_edge_sequence(nodes, edges[:, 0], edges[:, 1])


def _check_regular(nodes: Sequence[Hashable], degree: int) -> None:
    n = len(nodes)
    require_node_count(n, minimum=2)
    require(0 < degree < n, f"degree must satisfy 0 < degree < n (degree={degree}, n={n})")
    require(degree * n % 2 == 0, "degree * n must be even for a regular graph to exist")


def random_regular_expander(
    degree: int,
    nodes: Iterable[Hashable],
    rng: RngLike = None,
    gap_threshold: float = EXPANDER_GAP_THRESHOLD,
    max_attempts: int = EXPANDER_MAX_ATTEMPTS,
) -> CsrSnapshot:
    """Return a connected random ``degree``-regular graph with a verified gap.

    Section 4 of the paper only requires the two expanders glued to the
    cluster chain to have ``Φ = Θ(1)`` and constant degree.  Random regular
    graphs have this property with high probability; we verify the normalised
    Laplacian gap (by :func:`has_spectral_gap`) and regenerate when a sample
    fails.  Each sample is the graph ``networkx.random_regular_graph`` draws
    from the same seed.

    Parameters
    ----------
    degree:
        Regular degree (must satisfy ``degree < n`` and ``degree * n`` even).
    nodes:
        Node labels, in the snapshot's node order.
    gap_threshold:
        Minimum accepted spectral gap; snapshots below it are resampled.
    """
    nodes = list(nodes)
    n = len(nodes)
    _check_regular(nodes, degree)
    gen = ensure_rng(rng)
    # Very small graphs cannot meet asymptotic gap thresholds; be lenient.
    effective_threshold = gap_threshold if n >= 8 else 0.0
    last_connected = None
    for _ in range(max_attempts):
        candidate = _random_regular(degree, nodes, gen)
        if not candidate.is_connected():
            continue
        if has_spectral_gap(candidate, effective_threshold):
            return candidate
        last_connected = candidate
    last_gap = 0.0 if last_connected is None else spectral_gap(last_connected)
    raise RuntimeError(
        f"failed to generate a {degree}-regular expander on {n} nodes after "
        f"{max_attempts} attempts (last spectral gap {last_gap:.4f} < "
        f"{effective_threshold})"
    )


# ---------------------------------------------------------------------------
# Section 5.1 building blocks
# ---------------------------------------------------------------------------

def _circulant_edges(n: int, half: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edges ``(i, i + o mod n)`` for ``i < n``, ``1 ≤ o ≤ half``, in that order."""
    u_ids = np.repeat(np.arange(n), half)
    v_ids = (u_ids + np.tile(np.arange(1, half + 1), n)) % n
    return u_ids, v_ids


def regular_connected_graph(
    nodes: Sequence[Hashable], degree: int, rng: RngLike = None
) -> CsrSnapshot:
    """Return a connected ``degree``-regular graph ``G(A, d₁)`` on ``nodes``.

    Uses a circulant construction (each node connected to its ``degree/2``
    nearest successors on a ring) when ``degree`` is even, which is always
    connected and deterministic; falls back to rejection sampling of random
    regular graphs for odd degrees.
    """
    nodes = list(nodes)
    _check_regular(nodes, degree)
    if degree % 2 == 0:
        return CsrSnapshot.from_edge_sequence(nodes, *_circulant_edges(len(nodes), degree // 2))
    gen = ensure_rng(rng)
    for _ in range(EXPANDER_MAX_ATTEMPTS):
        candidate = _random_regular(degree, nodes, gen)
        if candidate.is_connected():
            return candidate
    raise RuntimeError(f"failed to build a connected {degree}-regular graph on {len(nodes)} nodes")


def near_regular_with_hub(
    nodes: Sequence[Hashable],
    base_degree: int,
    hub_degree: int,
    hub: Optional[Hashable] = None,
    rng: RngLike = None,
) -> Tuple[CsrSnapshot, Hashable]:
    """Return ``G(A, d₁, d₂)``: connected, all degrees ``d₁`` except one hub ``d₂``.

    The Section 5.1 construction needs a connected simple graph in which every
    node has (even) degree ``d₁`` apart from a single node of (even) degree
    ``d₂ > d₁``.  We start from the circulant ``d₁``-regular graph, pick
    ``(d₂ - d₁)/2`` adjacent pairs of non-neighbours of the hub, delete each
    pair's edge and join both of its nodes to the hub: the pair keeps degree
    ``d₁`` and the hub gains ``d₂ - d₁``.  The circulant never reads ``rng``;
    the parameter is kept for the signature's sake.

    Returns ``(graph, hub_node)``.  Raises ``RuntimeError`` if the rewiring
    disconnects the graph (it removes no bridge of a circulant with
    ``d₁ ≥ 4``, but may for ``d₁ = 2``).
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
    require(hub in graph.index_of, f"hub {hub!r} must be one of the provided nodes")
    if extra == 0:
        return graph, hub
    hub_id = graph.index_of[hub]
    u_ids, v_ids = _circulant_edges(n, base_degree // 2)
    # Each node's neighbours in the order the circulant added its edges.
    owner = np.concatenate([u_ids, v_ids])
    order = np.lexsort((np.tile(np.arange(len(u_ids)), 2), owner))
    partner = np.concatenate([v_ids, u_ids])[order].tolist()
    starts = np.searchsorted(owner[order], np.arange(n + 1)).tolist()
    hub_neighbours = set(partner[starts[hub_id]:starts[hub_id + 1]])
    non_neighbours = [u for u in range(n) if u != hub_id and u not in hub_neighbours]
    require(
        len(non_neighbours) >= extra,
        "not enough non-neighbours of the hub to raise its degree "
        f"(need {extra}, have {len(non_neighbours)})",
    )
    chosen: List[int] = []
    removed: List[int] = []
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
        for v in partner[starts[u]:starts[u + 1]]:
            if v in candidate_set and v not in used:
                chosen.extend([u, v])
                used.update([u, v])
                removed.append(min(u, v) * n + max(u, v))
                break
    require(
        len(chosen) >= extra,
        "could not find enough adjacent non-neighbour pairs to rewire through the hub; "
        "try a larger node set or a smaller hub_degree",
    )
    chosen = chosen[:extra]
    keep = ~np.isin(np.minimum(u_ids, v_ids) * n + np.maximum(u_ids, v_ids), removed)
    graph = CsrSnapshot.from_edge_sequence(
        nodes,
        np.concatenate([u_ids[keep], np.full(extra, hub_id)]),
        np.concatenate([v_ids[keep], chosen]),
    )
    if not graph.is_connected():
        raise RuntimeError(
            f"rewiring {extra} edges through hub {hub!r} disconnected the "
            f"{base_degree}-regular circulant on {n} nodes; use base_degree >= 4"
        )
    return graph, hub


__all__ = [
    "EXPANDER_GAP_THRESHOLD",
    "EXPANDER_MAX_ATTEMPTS",
    "ER_SAMPLING_CHUNK",
    "bridged_double_clique_csr",
    "clique_csr",
    "clique_with_pendant_csr",
    "condensed_to_pair",
    "cycle_csr",
    "dynamic_star_csr",
    "erdos_renyi_csr",
    "has_spectral_gap",
    "pair_to_condensed",
    "path_csr",
    "star_csr",
    "complete_bipartite_chain",
    "near_regular_with_hub",
    "random_regular_expander",
    "regular_connected_graph",
    "spectral_gap",
]
