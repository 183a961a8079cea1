"""networkx constructions kept as test oracles for the CSR builders.

The library builds every graph family straight into CSR.  These networkx
versions are the independent second construction the tests compare those
builders against (bit for bit, through ``CsrSnapshot.from_networkx``), the
cut-by-cut definitions the CSR metrics must reproduce, and a convenient way
to hand small hand-made graphs to the networks that accept networkx input.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.csr import CsrSnapshot, normalized_laplacian_lambda2
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_node_count


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


def edge_set(snapshot: CsrSnapshot) -> set:
    """The undirected edges of ``snapshot`` as frozensets of node labels."""
    labels = snapshot.nodes
    return {
        frozenset((labels[u], labels[v]))
        for u, v in zip(snapshot.row_owner.tolist(), snapshot.indices.tolist())
    }


def has_edge(snapshot: CsrSnapshot, u: Hashable, v: Hashable) -> bool:
    """True when ``snapshot`` joins the nodes labelled ``u`` and ``v``."""
    index = snapshot.index_of
    return index[v] in snapshot.neighbors(index[u]).tolist()


def degree(snapshot: CsrSnapshot, label: Hashable) -> int:
    """Degree of the node labelled ``label``."""
    return snapshot.degree(snapshot.index_of[label])


# ---------------------------------------------------------------------------
# Expanders, Section 5.1 and H_{k,Δ}: the networkx constructions the CSR
# builders replay edge for edge.
# ---------------------------------------------------------------------------

def complete_bipartite_chain(clusters) -> nx.Graph:
    """Consecutive clusters joined completely, nodes added cluster by cluster."""
    graph = nx.Graph()
    for cluster in clusters:
        graph.add_nodes_from(cluster)
    for left, right in zip(clusters, clusters[1:]):
        graph.add_edges_from((u, v) for u in left for v in right)
    return graph


def random_regular_expander(degree, nodes, rng=None, gap_threshold=0.1, max_attempts=25):
    """``networkx.random_regular_graph`` samples until connected with a gap."""
    nodes = list(nodes)
    n = len(nodes)
    gen = ensure_rng(rng)
    threshold = gap_threshold if n >= 8 else 0.0
    for _ in range(max_attempts):
        candidate = nx.random_regular_graph(degree, n, seed=int(gen.integers(0, 2**32 - 1)))
        if not nx.is_connected(candidate):
            continue
        if max(normalized_laplacian_lambda2(candidate), 0.0) >= threshold:
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError("no expander")


def regular_connected_graph(nodes, degree, rng=None) -> nx.Graph:
    """Circulant for even ``degree``, connected random regular graph for odd."""
    nodes = list(nodes)
    n = len(nodes)
    if degree % 2 == 0:
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for i in range(n):
            for offset in range(1, degree // 2 + 1):
                graph.add_edge(nodes[i], nodes[(i + offset) % n])
        return graph
    gen = ensure_rng(rng)
    for _ in range(25):
        candidate = nx.random_regular_graph(degree, n, seed=int(gen.integers(0, 2**32 - 1)))
        if nx.is_connected(candidate):
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError("no connected regular graph")


def near_regular_with_hub(nodes, base_degree, hub_degree, hub=None, rng=None):
    """The circulant rewired through ``hub``: returns ``(graph, hub)``."""
    nodes = list(nodes)
    extra = hub_degree - base_degree
    graph = regular_connected_graph(nodes, base_degree, rng=rng)
    hub = nodes[0] if hub is None else hub
    if extra == 0:
        return graph, hub
    non_neighbours = [u for u in nodes if u != hub and not graph.has_edge(hub, u)]
    candidate_set = set(non_neighbours)
    chosen, used = [], set()
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
    for u in chosen[:extra]:
        graph.add_edge(hub, u)
    return graph, hub


def hk_delta_graph(part_a, part_b, k, delta, rng=None) -> nx.Graph:
    """``H_{k,Δ}(A, B)``: chain, ``compose`` with two expanders, attachments."""
    gen = ensure_rng(rng)
    part_a, part_b = list(part_a), list(part_b)
    expander_a_nodes, expander_b_nodes = part_a[delta:], part_b[k * delta:]
    clusters = [part_a[:delta]] + [part_b[i * delta:(i + 1) * delta] for i in range(k)]
    graph = complete_bipartite_chain(clusters)
    graph = nx.compose(graph, random_regular_expander(4, expander_a_nodes, rng=gen))
    graph = nx.compose(graph, random_regular_expander(4, expander_b_nodes, rng=gen))
    for cluster, expander in ((clusters[0], expander_a_nodes), (clusters[-1], expander_b_nodes)):
        position = 0
        for node in cluster:
            attached = 0
            while attached < delta:
                target = expander[position % len(expander)]
                position += 1
                if not graph.has_edge(node, target):
                    graph.add_edge(node, target)
                    attached += 1
    return graph


def proximity_graph(positions, side, radius, torus) -> nx.Graph:
    """Agents within Chebyshev distance ``radius``, scanned cell by cell."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(positions)))
    buckets = {}
    for agent, (x, y) in enumerate(positions.tolist()):
        buckets.setdefault((x, y), []).append(agent)
    for (x, y), members in buckets.items():
        for dx in range(-radius, radius + 1):
            for dy in range(-radius, radius + 1):
                other = ((x + dx) % side, (y + dy) % side) if torus else (x + dx, y + dy)
                for a in members:
                    for b in buckets.get(other, ()):
                        if a < b:
                            graph.add_edge(a, b)
    return graph


# ---------------------------------------------------------------------------
# Cut metrics evaluated cut by cut on networkx graphs
# ---------------------------------------------------------------------------

def diligence_of_cut(graph: nx.Graph, side) -> float:
    """``min`` over crossing edges of ``max(d̄/d_u, d̄/d_v)``; ``inf`` if none cross."""
    side = set(side)
    crossing = [(u, v) for u in side for v in graph.neighbors(u) if v not in side]
    if not crossing:
        return math.inf
    d_bar = sum(graph.degree(u) for u in side) / len(side)
    return min(max(d_bar / graph.degree(u), d_bar / graph.degree(v)) for u, v in crossing)


def diligence_sampled(graph: nx.Graph, samples: int = 200, rng=None) -> float:
    """Single-node, random and BFS-ball cuts, drawn as the library draws them."""
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    gen = ensure_rng(rng)
    nodes = list(graph.nodes())
    total = 2 * graph.number_of_edges()
    best = math.inf

    def consider(subset):
        nonlocal best
        if len(subset) == len(nodes):
            return
        side = subset if 2 * sum(graph.degree(u) for u in subset) <= total else set(nodes) - subset
        best = min(best, diligence_of_cut(graph, side))

    for u in nodes:
        consider({u})
    for _ in range(samples):
        if gen.integers(0, 2) == 0:
            size = int(gen.integers(1, len(nodes)))
            consider(set(gen.choice(nodes, size=size, replace=False).tolist()))
        else:
            centre = nodes[int(gen.integers(0, len(nodes)))]
            radius = int(gen.integers(1, 4))
            consider(set(nx.single_source_shortest_path_length(graph, centre, cutoff=radius)))
    return best


def absolute_diligence(graph: nx.Graph) -> float:
    """``min`` over edges of ``max(1/d_u, 1/d_v)``; 0 without edges."""
    if graph.number_of_edges() == 0:
        return 0.0
    return min(max(1.0 / graph.degree(u), 1.0 / graph.degree(v)) for u, v in graph.edges())
