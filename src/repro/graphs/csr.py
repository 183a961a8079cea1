"""Compact CSR snapshots — the array-native graph representation of the library.

A :class:`CsrSnapshot` stores one undirected simple graph in compressed sparse
row form: ``indices[indptr[i]:indptr[i+1]]`` lists the (compact, 0-based)
neighbour ids of node ``i``.  Node labels are kept alongside as an ordered
tuple, so a snapshot round-trips losslessly to and from ``networkx.Graph``.

The representation is the contract between the dynamic-network layer and the
simulation engines: every :class:`repro.dynamics.base.DynamicNetwork` can emit
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

import networkx as nx
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
        self._nx_cache: Optional[nx.Graph] = None

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
        graph: nx.Graph,
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

        Each undirected edge must appear exactly once (in either direction);
        self-loops and duplicates are rejected by the degree bookkeeping only
        in validation of simple use, not exhaustively.
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

    def to_networkx(self) -> nx.Graph:
        """Return the snapshot as a ``networkx.Graph`` (cached; do not mutate)."""
        if self._nx_cache is None:
            graph = nx.Graph()
            graph.add_nodes_from(self.nodes)
            owner = self.row_owner
            forward = owner < self.indices
            graph.add_edges_from(
                (self.nodes[int(u)], self.nodes[int(v)])
                for u, v in zip(owner[forward], self.indices[forward])
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


GraphLike = Union[nx.Graph, CsrSnapshot]


def as_snapshot(graph: GraphLike) -> CsrSnapshot:
    """Return ``graph`` in CSR form (networkx input is converted, CSR passes through)."""
    return graph if isinstance(graph, CsrSnapshot) else CsrSnapshot.from_networkx(graph)


def normalized_laplacian_lambda2(graph: GraphLike) -> float:
    """Second-smallest eigenvalue of the normalised Laplacian ``I − D^-½ A D^-½``.

    The dense matrix is built from the edge arrays as
    ``dh[:, None] * ((D − A) * dh[None, :])`` with ``dh = 1/√d`` (0 for
    isolated nodes), so every entry is the same single product
    ``networkx.normalized_laplacian_matrix`` forms and the eigenvalues agree
    bit for bit, without the scipy dependency networkx needs for it.
    Requires ``n ≥ 2``.
    """
    snapshot = as_snapshot(graph)
    degrees = snapshot.degrees.astype(np.float64)
    laplacian = np.diag(degrees)
    laplacian[snapshot.row_owner, snapshot.indices] -= 1.0
    dh = np.zeros(snapshot.n)
    positive = degrees > 0
    dh[positive] = 1.0 / np.sqrt(degrees[positive])
    laplacian = dh[:, None] * (laplacian * dh[None, :])
    return float(np.sort(np.linalg.eigvalsh(laplacian))[1])


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
    "concatenated_neighbors",
    "normalized_laplacian_lambda2",
]
