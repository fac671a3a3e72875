"""Bipartite graph container, adjacency, normalization, and the input rules.

Global node indexing convention: left nodes occupy indices ``0..n_left-1``,
right nodes ``n_left..n_left+n_right-1``.  All matrices produced here are
``n x n`` with ``n = n_left + n_right``.

A graph stores its edges once, as the symmetric 0/1 CSR adjacency ``adj``;
the edge array and its cell keys are views computed from it on first use.
Pairs are read-only (k, 2) int64 arrays.
``pair_array``, ``check_int`` and ``check_real`` are the package's input
rules for pairs, integers and reals; no other module keeps its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral, Real

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


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Immutable bipartite graph with two disjoint node partitions.

    ``adj`` is the one edge store: the symmetric n x n 0/1 CSR adjacency in
    global indexing, canonical and read-only, so row x's ``indices`` are
    N(x), sorted.  ``edges`` (the sorted local (left, right) pairs, a
    read-only (m, 2) int64 array) and ``edge_keys`` (their sorted cell keys)
    are views of it.  Equality is identity.
    """

    n_left: int
    n_right: int
    adj: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.n_left + self.n_right

    @property
    def m(self) -> int:
        return self.adj.nnz // 2

    @cached_property
    def edges(self) -> np.ndarray:
        """Sorted (left_index, right_index) pairs: the left rows of ``adj``."""
        rows = self.adj[: self.n_left].tocoo()
        return read_only(np.column_stack([rows.row, rows.col - self.n_left]).astype(np.int64))

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Sorted cell keys ``left * n_right + right`` of ``edges``."""
        return read_only(self.cell_keys(self.edges))

    def cell_keys(self, pairs: np.ndarray) -> np.ndarray:
        """Cell key ``left * n_right + right`` of each in-range local pair."""
        return pairs[:, 0] * self.n_right + pairs[:, 1]

    def degrees(self) -> np.ndarray:
        """Per-node degree vector over global indices."""
        return np.diff(self.adj.indptr).astype(np.int64)


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops.

    Entry (i, j) equals ``(A + I)_ij / sqrt(d~_i * d~_j)`` where
    ``d~_k = deg(k) + 1`` counts the added self-loop.  Every diagonal entry
    is strictly positive and all entries lie in (0, 1].
    """

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr``'s own flags are left alone."""
    view = arr.view()
    view.flags.writeable = False
    return view


def in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` found in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` as an int.  TypeError naming ``name`` for a bool or a
    non-Integral; ValueError when it is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name: str, value, unit: bool = False) -> float:
    """``value`` as a float.  TypeError naming ``name`` for a bool or a
    non-Real (a string included); ValueError unless it lies in [0, 1] when
    ``unit`` (a probability), else unless it is positive and finite."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if unit and not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    if not unit and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _is_int_pair(pair) -> bool:
    if not isinstance(pair, (tuple, list, np.ndarray)) or len(pair) != 2:
        return False
    return all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in pair)


def pair_array(pairs, n_left: int, n_right: int, what: str = "edge pair") -> np.ndarray:
    """(k, 2) int64 array of ``pairs``, integer pairs or an integer array.
    GraphInputError names the first entry, and its position, that is not a
    pair of integers in [0, n_left) x [0, n_right); a bool is not an
    integer, as in ``check_int``, and nothing is reshaped."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    if len(pairs) == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(pairs)
    except ValueError:  # ragged entries
        arr = np.empty(0)
    ints = arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "iu"
    if ints and not isinstance(pairs, np.ndarray):  # numpy turns a bool among integers into one
        ints = not {bool, np.bool_} & set(map(type, chain.from_iterable(pairs)))
    if not ints:
        for pos, pair in enumerate(pairs):
            if not _is_int_pair(pair):
                raise GraphInputError(
                    f"{what} {pair!r} at position {pos} is not a pair of integers",
                    pair=pair, position=pos,
                )
    lefts, rights = arr[:, 0], arr[:, 1]
    bad = np.flatnonzero((lefts < 0) | (lefts >= n_left) | (rights < 0) | (rights >= n_right))
    if bad.size:
        pos = int(bad[0])
        u, v = int(lefts[pos]), int(rights[pos])
        raise GraphInputError(
            f"{what} ({u}, {v}) is out of range [0, {n_left}) x [0, {n_right}) at position {pos}",
            pair=(u, v), position=pos,
        )
    return arr.astype(np.int64, copy=False)


def build_graph(n_left: int, n_right: int, edge_pairs) -> BipartiteGraph:
    """Construct a BipartiteGraph from (left_index, right_index) pairs.

    ``edge_pairs`` is a sequence of integer pairs or an (m, 2) integer
    array, in any order.  Duplicate pairs are dropped (logged at debug
    level).  An entry that is not a pair of integers, or whose indices are
    out of range, raises GraphInputError naming the pair and its position.
    """
    n_left, n_right = check_int("n_left", n_left), check_int("n_right", n_right)
    if n_left < 0 or n_right < 0:
        raise GraphInputError(f"negative partition size: ({n_left}, {n_right})")
    pairs = pair_array(edge_pairs, n_left, n_right)
    keys = np.sort(pairs[:, 0] * n_right + pairs[:, 1])  # np.unique hashes, slower
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0, so the first stays
    if len(pairs) > keys.size:
        logger.debug("dropped %d duplicate edge pair(s)", len(pairs) - keys.size)
    us, vs = np.divmod(keys, max(n_right, 1))
    rows, cols = np.concatenate([us, vs + n_left]), np.concatenate([vs + n_left, us])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n_left + n_right,) * 2)
    for arr in (adj.data, adj.indices, adj.indptr):
        arr.flags.writeable = False
    return BipartiteGraph(n_left=n_left, n_right=n_right, adj=adj)


def adjacency(g: BipartiteGraph) -> sp.csr_matrix:
    """``g.adj`` itself: symmetric, 0/1, read-only, zero within each partition."""
    return g.adj


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
    return NormalizedAdjacency(matrix=mat)

