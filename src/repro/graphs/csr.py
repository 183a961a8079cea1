"""Compact CSR snapshots — the array-native graph representation of the library.

A :class:`CsrSnapshot` stores one undirected simple graph in compressed sparse
row form: ``indices[indptr[i]:indptr[i+1]]`` lists the (compact, 0-based)
neighbour ids of node ``i``.  Node labels are kept alongside as an ordered
tuple, so a snapshot round-trips losslessly to and from ``networkx.Graph``.

Every graph family of the library is built straight into this form; networkx
is only an input and output format.  It is imported lazily, inside
:meth:`CsrSnapshot.to_networkx`, so no library code path loads it unless the
caller hands in or asks for a ``networkx.Graph``.

Builders reproduce the *entry order* :meth:`CsrSnapshot.from_networkx` gives
for the equivalent networkx construction, because the engines' random draws
index adjacency entries.  That order is a function of the node order and of
the order edges were added: :meth:`CsrSnapshot.from_edge_sequence` computes it
from an edge-insertion sequence, and :meth:`CsrSnapshot.reordered` re-indexes
a snapshot onto another node order as ``from_networkx(graph, nodes=...)``
does.

The representation is the contract between the dynamic-network layer and the
simulation engines: every :class:`repro.dynamics.base.DynamicNetwork` emits its
snapshots in this form (via ``snapshot_for_step``), and the engines in
``repro.core`` index all their per-node state by the compact ids, which lets
rate updates, weighted selection and whole-round contact generation run as
vectorised numpy operations instead of per-node Python loops.

Instances are frozen by convention and enforcement: the underlying arrays are
marked read-only, and derived quantities (degree array, inverse degrees, the
per-entry row-owner array, the networkx view) are cached on first use so a
static network pays each cost once per object, not once per step.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import require


class CsrSnapshot:
    """One immutable graph snapshot in CSR form with node↔index maps.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``i`` of the adjacency is
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64`` array of compact neighbour ids; every undirected edge
        appears twice (once per direction).
    nodes:
        Ordered node labels; label ``nodes[i]`` has compact id ``i``.
    """

    __slots__ = (
        "indptr",
        "indices",
        "nodes",
        "degrees",
        "_index_of",
        "_inverse_degrees",
        "_row_owner",
        "_nx_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        nodes: Sequence[Hashable],
        validate: bool = True,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        nodes = tuple(nodes)
        if validate:
            require(indptr.ndim == 1 and indices.ndim == 1, "indptr and indices must be 1-d")
            require(len(indptr) == len(nodes) + 1, "indptr must have length n + 1")
            require(indptr[0] == 0 and indptr[-1] == len(indices), "indptr must span indices")
            require(bool(np.all(np.diff(indptr) >= 0)), "indptr must be non-decreasing")
            if len(indices):
                require(
                    0 <= int(indices.min()) and int(indices.max()) < len(nodes),
                    "indices must hold compact ids in [0, n)",
                )
            require(len(set(nodes)) == len(nodes), "node labels must be distinct")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.nodes = nodes
        degrees = np.diff(indptr)
        degrees.setflags(write=False)
        self.degrees = degrees
        self._index_of: Optional[Dict[Hashable, int]] = None
        self._inverse_degrees: Optional[np.ndarray] = None
        self._row_owner: Optional[np.ndarray] = None
        self._nx_cache: Optional[networkx.Graph] = None

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    @property
    def index_of(self) -> Dict[Hashable, int]:
        """Mapping from node label to compact id (built lazily, then cached)."""
        if self._index_of is None:
            self._index_of = {label: i for i, label in enumerate(self.nodes)}
        return self._index_of

    def neighbors(self, i: int) -> np.ndarray:
        """Compact neighbour ids of compact node ``i`` (a read-only view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        """Degree of compact node ``i``."""
        return int(self.degrees[i])

    @property
    def inverse_degrees(self) -> np.ndarray:
        """``1/d_i`` per node (0 for isolated nodes); cached, read-only."""
        if self._inverse_degrees is None:
            inv = np.zeros(self.n, dtype=np.float64)
            positive = self.degrees > 0
            inv[positive] = 1.0 / self.degrees[positive]
            inv.setflags(write=False)
            self._inverse_degrees = inv
        return self._inverse_degrees

    @property
    def row_owner(self) -> np.ndarray:
        """For each adjacency entry, the compact id of the row owning it.

        ``(row_owner[k], indices[k])`` enumerates every *directed* edge, which
        is the shape the vectorised rate builder consumes.  Cached, read-only.
        """
        if self._row_owner is None:
            owner = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            owner.setflags(write=False)
            self._row_owner = owner
        return self._row_owner

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_networkx(
        cls,
        graph: networkx.Graph,
        nodes: Optional[Sequence[Hashable]] = None,
        cache_graph: bool = True,
    ) -> "CsrSnapshot":
        """Convert a ``networkx.Graph`` into a :class:`CsrSnapshot`.

        Parameters
        ----------
        nodes:
            Optional explicit node order (must be exactly the graph's node
            set).  Passing the dynamic network's fixed node tuple here keeps
            compact ids consistent across every snapshot of a run.
        cache_graph:
            When True (default) the source graph is kept as the snapshot's
            networkx view, so :meth:`to_networkx` is free.  The graph must
            then not be mutated afterwards.
        """
        node_order = tuple(graph.nodes()) if nodes is None else tuple(nodes)
        require(
            len(node_order) == graph.number_of_nodes(),
            "node order must have exactly the graph's node count",
        )
        index = {label: i for i, label in enumerate(node_order)}
        require(
            all(label in index for label in graph.nodes()),
            "node order must cover the graph's node set",
        )
        m = graph.number_of_edges()
        u_ids = np.empty(m, dtype=np.int64)
        v_ids = np.empty(m, dtype=np.int64)
        for k, (u, v) in enumerate(graph.edges()):
            u_ids[k] = index[u]
            v_ids[k] = index[v]
        snapshot = cls.from_edge_arrays(node_order, u_ids, v_ids)
        snapshot._index_of = index
        if cache_graph:
            snapshot._nx_cache = graph
        return snapshot

    @classmethod
    def from_edge_arrays(
        cls,
        nodes: Sequence[Hashable],
        u_ids: np.ndarray,
        v_ids: np.ndarray,
    ) -> "CsrSnapshot":
        """Build a snapshot from arrays of compact edge endpoints.

        Each undirected edge must appear exactly once (in either direction),
        and no edge may be a self-loop.  Nothing checks this: a duplicate or a
        self-loop silently yields a multigraph row, so callers must pass
        simple-graph edges.
        """
        nodes = tuple(nodes)
        n = len(nodes)
        u_ids = np.ascontiguousarray(u_ids, dtype=np.int64)
        v_ids = np.ascontiguousarray(v_ids, dtype=np.int64)
        require(len(u_ids) == len(v_ids), "edge endpoint arrays must align")
        src = np.concatenate([u_ids, v_ids])
        dst = np.concatenate([v_ids, u_ids])
        degrees = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        indices = dst[order]
        return cls(indptr, indices, nodes, validate=False)

    @classmethod
    def from_edge_sequence(
        cls,
        nodes: Sequence[Hashable],
        u_ids: np.ndarray,
        v_ids: np.ndarray,
    ) -> "CsrSnapshot":
        """Build the snapshot of a graph whose edges were added in this order.

        The result equals ``from_networkx`` of a ``networkx.Graph`` that got
        ``nodes`` first (in order) and then ``add_edge(nodes[u], nodes[v])``
        for each pair in sequence.  networkx lists that graph's edges node by
        node in node order, each node's later neighbours in insertion order,
        which is a stable sort of the pairs by their earlier endpoint.  Like
        :meth:`from_edge_arrays`, nothing checks for duplicates or self-loops.
        """
        u_ids = np.asarray(u_ids, dtype=np.int64)
        v_ids = np.asarray(v_ids, dtype=np.int64)
        lo, hi = np.minimum(u_ids, v_ids), np.maximum(u_ids, v_ids)
        order = np.argsort(lo, kind="stable")
        return cls.from_edge_arrays(nodes, lo[order], hi[order])

    def forward_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` id arrays of every edge once, with ``u < v``.

        The pairs come in entry order, which for a snapshot built by
        :meth:`from_edge_sequence` (or converted from networkx in the graph's
        own node order) is the order of ``graph.edges()``.
        """
        owner = self.row_owner
        forward = owner < self.indices
        return owner[forward], self.indices[forward]

    def reordered(self, nodes: Sequence[Hashable]) -> "CsrSnapshot":
        """Return this graph indexed by another order of the same node labels.

        Equals ``from_networkx(self.to_networkx(), nodes=nodes)``: the edge
        sequence keeps this snapshot's order and only the ids change.
        """
        nodes = tuple(nodes)
        if nodes == self.nodes:
            return self
        require(
            len(nodes) == self.n and set(nodes) == set(self.nodes),
            "node order must list exactly the snapshot's nodes",
        )
        index = {label: i for i, label in enumerate(nodes)}
        new_id = np.fromiter((index[label] for label in self.nodes), dtype=np.int64, count=self.n)
        u, v = self.forward_edges()
        snapshot = CsrSnapshot.from_edge_arrays(nodes, new_id[u], new_id[v])
        snapshot._index_of = index
        return snapshot

    def to_networkx(self) -> networkx.Graph:
        """Return the snapshot as a ``networkx.Graph`` (cached; do not mutate)."""
        if self._nx_cache is None:
            import networkx

            graph = networkx.Graph()
            graph.add_nodes_from(self.nodes)
            graph.add_edges_from(
                (self.nodes[u], self.nodes[v])
                for u, v in zip(*(ids.tolist() for ids in self.forward_edges()))
            )
            self._nx_cache = graph
        return self._nx_cache

    # -- array-native metrics ----------------------------------------------

    def is_connected(self) -> bool:
        """True when the snapshot has an edge and every node is reachable."""
        if self.n <= 1:
            return self.n == 1 and self.edge_count > 0
        if self.edge_count == 0:
            return False
        seen = np.zeros(self.n, dtype=bool)
        frontier = np.array([0], dtype=np.int64)
        seen[0] = True
        indptr, indices = self.indptr, self.indices
        while frontier.size:
            starts = indptr[frontier]
            counts = self.degrees[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            shifts = np.repeat(np.cumsum(counts) - counts, counts)
            gather = np.arange(total) - shifts + np.repeat(starts, counts)
            reached = indices[gather]
            fresh = reached[~seen[reached]]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            seen[frontier] = True
        return bool(seen.all())

    def absolute_diligence(self) -> float:
        """``ρ̄ = min_{(u,v)∈E} max(1/d_u, 1/d_v)`` computed on the arrays."""
        if self.edge_count == 0:
            return 0.0
        smaller = np.minimum(self.degrees[self.row_owner], self.degrees[self.indices])
        return 1.0 / float(smaller.max())

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CsrSnapshot(n={self.n}, edges={self.edge_count})"


GraphLike = Union["networkx.Graph", CsrSnapshot]


def as_snapshot(graph: GraphLike) -> CsrSnapshot:
    """Return ``graph`` in CSR form (networkx input is converted, CSR passes through)."""
    return graph if isinstance(graph, CsrSnapshot) else CsrSnapshot.from_networkx(graph)


def normalized_laplacian(graph: GraphLike) -> np.ndarray:
    """Dense normalised Laplacian ``I − D^-½ A D^-½`` of ``graph``.

    Built from the edge arrays as ``dh[:, None] * ((D − A) * dh[None, :])``
    with ``dh = 1/√d`` (0 for isolated nodes), so every entry is the same
    single product ``networkx.normalized_laplacian_matrix`` forms, without
    the scipy dependency networkx needs for it.
    """
    snapshot = as_snapshot(graph)
    degrees = snapshot.degrees.astype(np.float64)
    laplacian = np.diag(degrees)
    laplacian[snapshot.row_owner, snapshot.indices] -= 1.0
    dh = np.zeros(snapshot.n)
    positive = degrees > 0
    dh[positive] = 1.0 / np.sqrt(degrees[positive])
    return dh[:, None] * (laplacian * dh[None, :])


def normalized_laplacian_lambda2(graph: GraphLike) -> float:
    """Second-smallest eigenvalue of the normalised Laplacian ``I − D^-½ A D^-½``.

    The eigenvalues agree bit for bit with those of
    ``networkx.normalized_laplacian_matrix`` (see :func:`normalized_laplacian`).
    Requires ``n ≥ 2``.
    """
    return float(np.sort(np.linalg.eigvalsh(normalized_laplacian(graph)))[1])


def compose_disjoint(
    parts: Sequence[CsrSnapshot],
    extra_u: Sequence[int] = (),
    extra_v: Sequence[int] = (),
) -> CsrSnapshot:
    """Return the union of node-disjoint ``parts`` plus extra edges.

    Node ids of the union run through ``parts`` in order; ``extra_u[i]`` and
    ``extra_v[i]`` are union ids.  The result equals ``from_networkx`` of
    ``networkx.compose`` applied to the parts from left to right, followed by
    one ``add_edge`` per extra pair.
    """
    offsets = np.cumsum([0] + [part.n for part in parts[:-1]])
    forward = [part.forward_edges() for part in parts]
    extra = [np.asarray(extra_u, dtype=np.int64), np.asarray(extra_v, dtype=np.int64)]
    u_ids = np.concatenate([u + offset for (u, _), offset in zip(forward, offsets)] + extra[:1])
    v_ids = np.concatenate([v + offset for (_, v), offset in zip(forward, offsets)] + extra[1:])
    nodes = [label for part in parts for label in part.nodes]
    return CsrSnapshot.from_edge_sequence(nodes, u_ids, v_ids)


def concatenated_neighbors(snapshot: CsrSnapshot, ids: np.ndarray) -> np.ndarray:
    """Return the concatenation of the neighbour lists of ``ids`` (vectorised).

    Equivalent to ``np.concatenate([snapshot.neighbors(i) for i in ids])`` but
    without a Python-level loop; used by the synchronous flooding round.
    """
    ids = np.asarray(ids, dtype=np.int64)
    counts = snapshot.degrees[ids]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.repeat(np.cumsum(counts) - counts, counts)
    gather = np.arange(total) - shifts + np.repeat(snapshot.indptr[ids], counts)
    return snapshot.indices[gather]


__all__ = [
    "CsrSnapshot",
    "GraphLike",
    "as_snapshot",
    "compose_disjoint",
    "concatenated_neighbors",
    "normalized_laplacian",
    "normalized_laplacian_lambda2",
]
