"""Bipartite graph containers, adjacency construction, and symmetric normalization.

Global node indexing convention: left nodes occupy indices ``0..n_left-1``,
right nodes ``n_left..n_left+n_right-1``.  All matrices produced here are
``n x n`` with ``n = n_left + n_right``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)


class GraphInputError(ValueError):
    """Raised for malformed graph input (bad index, self-loop, bad line).

    Attributes:
        pair: the offending (left, right) pair, when applicable.
        position: 0-based position of the pair in the input sequence, or the
            1-based line number when parsing a file.
    """

    def __init__(self, message, pair=None, position=None):
        super().__init__(message)
        self.pair = pair
        self.position = position


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite graph with two disjoint node partitions.

    Edges are stored as deduplicated, sorted (left_index, right_index) pairs
    in partition-local indexing.  ``neighbors[i]`` is the sorted array of
    global neighbor indices of global node ``i``.
    """

    n_left: int
    n_right: int
    edges: tuple
    edge_set: frozenset
    neighbors: tuple

    @property
    def n(self) -> int:
        return self.n_left + self.n_right

    @property
    def m(self) -> int:
        return len(self.edges)

    def right_global(self, j: int) -> int:
        """Global index of right node ``j``."""
        return self.n_left + j

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def degrees(self) -> np.ndarray:
        """Per-node degree vector over global indices."""
        return np.array([len(nb) for nb in self.neighbors], dtype=np.int64)

    def has_edge(self, left: int, right: int) -> bool:
        """Membership test in partition-local indexing."""
        return (left, right) in self.edge_set


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops.

    Entry (i, j) equals ``(A + I)_ij / sqrt(d~_i * d~_j)`` where
    ``d~_k = deg(k) + 1`` counts the added self-loop.  Every diagonal entry
    is strictly positive and all entries lie in (0, 1].
    """

    matrix: sp.csr_matrix
    tilde_degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_graph(n_left: int, n_right: int, edge_pairs) -> BipartiteGraph:
    """Construct a BipartiteGraph from (left_index, right_index) pairs.

    Duplicate pairs are dropped (logged at debug level).  Indices out of
    range raise GraphInputError naming the offending pair.
    """
    if n_left < 0 or n_right < 0:
        raise GraphInputError(f"negative partition size: ({n_left}, {n_right})")
    seen = set()
    dupes = 0
    for pos, pair in enumerate(edge_pairs):
        u, v = pair
        if not (0 <= u < n_left and 0 <= v < n_right):
            raise GraphInputError(
                f"edge pair ({u}, {v}) at position {pos} out of range for "
                f"partitions of size ({n_left}, {n_right})",
                pair=(u, v),
                position=pos,
            )
        if (u, v) in seen:
            dupes += 1
        else:
            seen.add((u, v))
    if dupes:
        logger.debug("dropped %d duplicate edge pair(s)", dupes)

    edges = tuple(sorted(seen))
    nbrs = [[] for _ in range(n_left + n_right)]
    for u, v in edges:
        nbrs[u].append(n_left + v)
        nbrs[n_left + v].append(u)
    neighbors = tuple(np.array(sorted(nb), dtype=np.int64) for nb in nbrs)
    return BipartiteGraph(
        n_left=n_left,
        n_right=n_right,
        edges=edges,
        edge_set=frozenset(edges),
        neighbors=neighbors,
    )


def adjacency(g: BipartiteGraph) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency matrix in global indexing.

    All within-partition entries (including the diagonal) are zero.
    """
    if g.m == 0:
        return sp.csr_matrix((g.n, g.n), dtype=np.float64)
    left = np.fromiter((u for u, _ in g.edges), dtype=np.int64, count=g.m)
    right = np.fromiter((g.n_left + v for _, v in g.edges), dtype=np.int64, count=g.m)
    rows = np.concatenate([left, right])
    cols = np.concatenate([right, left])
    data = np.ones(2 * g.m, dtype=np.float64)
    a = sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))
    a.sum_duplicates()
    return a


def normalize(a: sp.spmatrix) -> NormalizedAdjacency:
    """Symmetric renormalization ``D~^{-1/2} (A + I) D~^{-1/2}``.

    ``D~`` is the degree matrix of ``A + I`` (each node's degree plus one for
    the added self-loop), so the result is always well defined: isolated
    nodes get a diagonal entry of exactly 1.
    """
    a = sp.csr_matrix(a, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    a_tilde = a + sp.identity(n, format="csr", dtype=np.float64)
    a_tilde.sort_indices()
    tilde_deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    # Scale each stored entry by 1/sqrt(d~_i d~_j) in one shot; a single
    # square root of the degree product keeps clean cases (like the 2-node
    # single-edge graph, where every entry is 1/2) exact in floating point.
    rows = np.repeat(np.arange(n), np.diff(a_tilde.indptr))
    scale = np.sqrt(tilde_deg[rows] * tilde_deg[a_tilde.indices])
    mat = sp.csr_matrix(
        (a_tilde.data / scale, a_tilde.indices, a_tilde.indptr), shape=(n, n)
    )
    return NormalizedAdjacency(matrix=mat, tilde_degrees=tilde_deg)


def normalized_adjacency(g: BipartiteGraph) -> NormalizedAdjacency:
    """Shorthand for ``normalize(adjacency(g))``."""
    return normalize(adjacency(g))


def sparse_dense_product(s, d: np.ndarray) -> np.ndarray:
    """Exact sparse-times-dense product ``s @ d``.

    ``s`` may be a sparse matrix or a NormalizedAdjacency; ``d`` is a dense
    (n, k) array.  Dimension mismatch raises ValueError.
    """
    if isinstance(s, NormalizedAdjacency):
        s = s.matrix
    d = np.asarray(d, dtype=np.float64)
    if d.ndim == 1:
        d = d[:, None]
    if s.shape[1] != d.shape[0]:
        raise ValueError(f"dimension mismatch: {s.shape} @ {d.shape}")
    return np.asarray(s @ d)
