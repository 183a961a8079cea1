"""networkx constructions kept as test oracles for the CSR builders.

The library builds every elementary topology straight into CSR
(``repro.graphs.generators.*_csr``).  These networkx versions are the
independent second construction the tests compare those builders against,
and a convenient way to hand small hand-made graphs to the networks that
accept networkx input.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.csr import CsrSnapshot
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
