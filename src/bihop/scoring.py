"""Pair scorers: two-hop composition, direct decoding, and heuristic indices.

The headline scorer composes the normalized training adjacency with the
autoencoder's reconstructed adjacency: with R = sigmoid(Z Z^T) and An the
normalized adjacency, the two-hop matrix is An @ R, symmetrized as
(An R + (An R)^T) / 2.  Its (u, v) entry accumulates paths u -> w -> v where
the first hop uses a real (training) edge weight and the second the learned
reconstruction, so homogeneous hops become possible even though the training
graph is bipartite.  ``recon_two_hop`` is the ablation that uses R for both
hops (R @ R).

Every scorer takes a whole pair sequence and scores it in one call, and
returns the scores alone: a new float64 array of shape (k,) whose entry i
is the score of pair i.  A pair's score does not depend on the other pairs
in the call, so positives and negatives can be scored together and sliced
apart.  Neither two-hop scorer ever materializes an n x n matrix:
``two_hop`` gathers the sparse rows of An
and ``recon_two_hop`` computes the needed columns of R per chunk of pairs,
over blocks of Z's rows; each keeps about ``_GATHER_ENTRIES`` floats alive.
Every sigmoid, the decoders' included, is ``autoencoder.sigmoid``, taken in
place on the products it maps.
Only Katz keeps two forms, because they compute different quantities: the
closed form up to ``DENSE_THRESHOLD`` (4096) nodes, a truncated series
above it.  The graph size alone picks the form; no argument overrides it.
Both read a ``KatzIndex`` built once per training graph (``katz_index``).
The closed form solves through the biadjacency, with the s x s Gram matrix
of the smaller side (s <= n / 2).  The index builds that block and its Gram
matrix once, on its first closed-form call, and takes the spectral radius
from the same Gram matrix.  The series reads only the pairs'
entries: its first hops are sparse products of a block of target columns,
and its last hop is computed pointwise at the pairs, by the same CSR row
gather ``two_hop`` uses.

A pair is (left, right) everywhere, as in ``build_graph`` and every
split: each scorer takes local pairs, a (k, 2) integer array or a sequence
of integer pairs, checked by ``pair_array`` against the left and right
sides, so anything else or an index outside [0, n_left) x [0, n_right)
raises GraphInputError naming the pair and its position.  The kernels
index the global ends (left, n_left + right).
Heuristic indices use the Daminelli-style bipartite adaptation: the "common
neighbors" of a heterogeneous pair (u, v) are the intermediate nodes of
length-3 paths, C(u, v) = N(u) n N2(v) with N2(v) the union of
neighbors-of-neighbors of v.  They read a ``HeuristicIndex`` built once per
training graph (``heuristic_index``): its neighbour lists, sets, degrees and
aa/ra term arrays are shared by all five indices and every call on that
graph, and it keeps each batch's cn/jc/aa/ra arrays on first use, so the
four indices that read C score the same pairs with one pass.  That pass
builds N2(v) once per target, from the shared lists, and drops it once its
pairs are scored, so the index holds at most one N2 set at a time; it
gathers each C in its iteration order and folds aa and ra with
``np.bincount``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .autoencoder import EmbeddingModel, sigmoid
from .graph import BipartiteGraph, NormalizedAdjacency, check_int, check_real, pair_array

DENSE_THRESHOLD = 4096

_PAIR_CHUNK = 256
# Entries a gather holds at a time: two_hop's (pair, neighbor) entries and
# the heuristics' common-set elements before a fold.
_GATHER_ENTRIES = 1 << 16
# Target columns the truncated Katz series propagates at a time.
_KATZ_COLUMNS = 256
_KATZ_TERMS = 5  # L, the terms of the truncated Katz series


class ScorerKind(Enum):
    TWO_HOP = "two_hop"
    RECON_TWO_HOP = "recon_two_hop"
    LGAE = "lgae"
    GAE = "gae"
    PREFERENTIAL_ATTACHMENT = "pref_attach"
    KATZ = "katz"
    COMMON_NEIGHBORS = "common_neighbors"
    JACCARD = "jaccard"
    ADAMIC_ADAR = "adamic_adar"
    RESOURCE_ALLOCATION = "resource_alloc"

    @classmethod
    def parse(cls, name: str) -> "ScorerKind":
        aliases = {
            "pa": cls.PREFERENTIAL_ATTACHMENT,
            "cn": cls.COMMON_NEIGHBORS,
            "jc": cls.JACCARD,
            "aa": cls.ADAMIC_ADAR,
            "ra": cls.RESOURCE_ALLOCATION,
        }
        key = name.strip().lower()
        if key in aliases:
            return aliases[key]
        try:
            return cls(key)
        except ValueError:
            valid = sorted([k.value for k in cls] + list(aliases))
            raise ValueError(f"unknown scorer '{name}'; valid: {', '.join(valid)}")


HEURISTIC_KINDS = frozenset(
    {
        ScorerKind.PREFERENTIAL_ATTACHMENT,
        ScorerKind.COMMON_NEIGHBORS,
        ScorerKind.JACCARD,
        ScorerKind.ADAMIC_ADAR,
        ScorerKind.RESOURCE_ALLOCATION,
    }
)


def _pair_ends(pairs, n_left, n: int):
    """Each pair's global ends (left, n_left + right): ``pairs`` checked by
    ``pair_array`` as local (left, right) pairs of an n-node graph whose
    first ``n_left`` nodes are the left side."""
    n_left = check_int("n_left", n_left, low=0)
    arr = pair_array(pairs, n_left, n - n_left, what="pair")
    return arr[:, 0], arr[:, 1] + n_left


def _check_model_size(model: EmbeddingModel, n: int):
    if model.Z.shape[0] != n:
        raise ValueError(
            f"model has {model.Z.shape[0]} node embeddings but graph has {n} nodes"
        )


def _gather_rows(mat: "scipy.sparse.csr_matrix", rows: np.ndarray):
    """(seg, pos): entry ``pos[i]`` of ``mat``'s CSR arrays lies in row
    ``rows[seg[i]]``; the rows in the order given, each in stored order."""
    starts = mat.indptr[rows]
    counts = mat.indptr[rows + 1] - starts
    seg = np.repeat(np.arange(rows.size), counts)
    pos = np.arange(seg.size) + (starts - (np.cumsum(counts) - counts))[seg]
    return seg, pos


def _row_hop(mat: "scipy.sparse.csr_matrix", z: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_w mat[r, w] * sigmoid(z_w . z_c) for every (r, c): one CSR gather."""
    seg, pos = _gather_rows(mat, rows)
    dots = np.einsum("ij,ij->i", z[mat.indices[pos]], z[cols[seg]])
    return np.bincount(seg, weights=mat.data[pos] * sigmoid(dots, out=dots), minlength=rows.size)


def two_hop_score(model: EmbeddingModel, norm_adj: NormalizedAdjacency, n_left: int, pairs) -> np.ndarray:
    """Symmetrized two-hop score through the normalized training adjacency.

    score(u, v) = [ sum_w An_uw * dec(w, v) + sum_w An_vw * dec(w, u) ] / 2
    where dec is the sigmoid inner-product decoder.  The sums run over the
    sparse row supports of An (a node's training neighbors plus its
    self-loop): each half gathers those rows for all pairs at once
    (``np.repeat`` over ``indptr``), takes row-wise dot products and
    segment-sums them with ``bincount``.  Pairs are split only to keep at
    most ``_GATHER_ENTRIES`` gathered entries alive at a time.
    """
    n = norm_adj.n
    _check_model_size(model, n)
    us, vs = _pair_ends(pairs, n_left, n)
    mat, z = norm_adj.matrix, model.Z
    chunk = max(1, _GATHER_ENTRIES // (2 * int(np.diff(mat.indptr).max(initial=1))))
    scores = np.empty(us.size)
    for lo in range(0, us.size, chunk):
        u, v = us[lo : lo + chunk], vs[lo : lo + chunk]
        scores[lo : lo + chunk] = 0.5 * (_row_hop(mat, z, u, v) + _row_hop(mat, z, v, u))
    return scores


def recon_two_hop_score(model: EmbeddingModel, n_left: int, pairs) -> np.ndarray:
    """Two-hop score using the reconstruction for both hops (R @ R).

    Symmetric without extra averaging since R is symmetric.  Per chunk of
    ``_PAIR_CHUNK`` pairs, the two needed columns of R are computed over
    blocks of ``_GATHER_ENTRIES // _PAIR_CHUNK`` rows of Z, so each matmul
    result holds about ``_GATHER_ENTRIES`` floats (the bound ``two_hop``
    keeps) and takes the sigmoid and the product in place.  A block's first
    row is seeded with the column sums of the rows before it, which
    continues numpy's row-by-row axis-0 sum, so each score is bit-identical
    to summing the whole n-row columns.  Two shapes would round differently
    and are kept out: a lone last row joins the block before it (a one-row
    matmul goes to BLAS's gemv), and a one-pair chunk takes all n rows at
    once (numpy sums a single column pairwise, not row by row).
    """
    z = model.Z
    n = z.shape[0]
    us, vs = _pair_ends(pairs, n_left, n)
    rows = max(1, _GATHER_ENTRIES // _PAIR_CHUNK)
    scores = np.empty(us.size)
    for lo in range(0, us.size, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, us.size)
        zu, zv = z[us[lo:hi]].T, z[vs[lo:hi]].T
        bounds = [*range(0, max(n - 1, 1), rows if hi - lo > 1 else n), n]
        acc = None
        for r, end in zip(bounds, bounds[1:]):
            row_u = z[r:end] @ zu
            row_v = z[r:end] @ zv
            sigmoid(row_u, out=row_u)
            sigmoid(row_v, out=row_v)
            np.multiply(row_u, row_v, out=row_u)
            if acc is not None:
                row_u[0] += acc
            acc = np.sum(row_u, axis=0)
        scores[lo:hi] = acc
    return scores


def decode_score(model: EmbeddingModel, n_left: int, pairs, kind: ScorerKind | None = None) -> np.ndarray:
    """Direct decoder scores sigmoid(z_u . z_v).

    ``kind`` does not change the scores: it is the label (lgae or gae) the
    benchmark's tracer reads to count the two decoders' calls apart.
    """
    us, vs = _pair_ends(pairs, n_left, model.Z.shape[0])
    dots = np.einsum("ij,ij->i", model.Z[us], model.Z[vs])
    return sigmoid(dots, out=dots)


def _two_step_neighborhood(lists, v: int) -> set:
    """Union of neighbors-of-neighbors of v (nodes on v's own side reached in 2
    hops), from the index's shared neighbour lists, inserted in neighbour order."""
    return set().union(*[lists[a] for a in lists[v]])


@dataclass(frozen=True, eq=False)
class HeuristicIndex:
    """What the five neighbourhood heuristics read from one training graph.

    ``neighbor_lists[x]`` is N(x) as a list for every node, shared by every
    N2 built from them, ``neighbor_sets[u]`` N(u) for each left node u
    (only a pair's left node needs its set), ``degrees`` the degree array,
    ``aa_terms[b]`` the Adamic-Adar term 1 / ln deg(b) (0.0 below degree 2)
    and ``ra_terms[b]`` the resource-allocation term 1 / deg(b), as float64
    arrays.  ``commons`` maps the latest batch's global pair ends (their
    bytes) to its cn, jc, aa and ra arrays once a call has built them, so
    cn, jc, aa and ra on the same pairs build each C = N(u) & N2(v) once; a
    new batch replaces it, so the memo holds one batch.  N2(v) is
    not kept: ``_common_scores`` builds it once per target and drops it.
    Every set is built the same way for every call, so C iterates in one
    fixed order and the aa/ra sums do not depend on which call, or which
    other pairs, asked.
    """

    g: BipartiteGraph
    neighbor_lists: tuple = field(repr=False)
    neighbor_sets: tuple = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    aa_terms: np.ndarray = field(repr=False)
    ra_terms: np.ndarray = field(repr=False)
    commons: dict = field(default_factory=dict, repr=False)


# The order of the scores in ``HeuristicIndex.commons``.
_COMMON_KINDS = (
    ScorerKind.COMMON_NEIGHBORS, ScorerKind.JACCARD, ScorerKind.ADAMIC_ADAR, ScorerKind.RESOURCE_ALLOCATION
)


def _common_scores(index: HeuristicIndex, lefts: np.ndarray, rights: np.ndarray) -> tuple:
    """(cn, jc, aa, ra) arrays of the pairs (lefts[i], rights[i]), each read
    from C = N(u) & N2(v).

    The pairs are taken in order of their right end (stable), N2(v) is
    built once per target and dropped after its pairs, and each C's
    elements are gathered into one flat buffer in C's iteration order.
    Whenever the buffer reaches ``_GATHER_ENTRIES`` entries, at a pair's
    end, ``np.bincount`` folds it: it adds each pair's aa and ra terms from
    0.0 in buffer order, the left-to-right fold of C in its set order.
    """
    k = lefts.size
    order = np.argsort(rights, kind="stable")
    lefts, rights = lefts[order], rights[order]
    us, vs = lefts.tolist(), rights.tolist()
    sets, lists = index.neighbor_sets, index.neighbor_lists
    sizes, n2_sizes, flat = [], np.empty(k, dtype=np.int64), []
    aa, ra = np.empty(k), np.empty(k)
    done = 0

    def fold(end):
        nonlocal done
        seg = np.repeat(np.arange(end - done), sizes[done:end])
        entries = np.array(flat, dtype=np.intp)
        aa[done:end] = np.bincount(seg, weights=index.aa_terms[entries], minlength=end - done)
        ra[done:end] = np.bincount(seg, weights=index.ra_terms[entries], minlength=end - done)
        flat.clear()
        done = end

    starts = np.flatnonzero(np.diff(rights, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [k]):
        n2 = _two_step_neighborhood(lists, vs[lo])
        n2_sizes[lo:hi] = len(n2)
        for u in us[lo:hi]:
            common = sets[u] & n2
            flat.extend(common)
            sizes.append(len(common))
            if len(flat) >= _GATHER_ENTRIES:
                fold(len(sizes))
        del n2
    fold(k)
    cn = np.array(sizes, dtype=np.float64)
    union = index.degrees[lefts] + n2_sizes - cn
    jc = np.divide(cn, union, out=np.zeros(k), where=union > 0)
    out = np.empty((4, k))
    out[:, order] = cn, jc, aa, ra
    return tuple(out)


def heuristic_index(g_train: BipartiteGraph) -> HeuristicIndex:
    """The neighbourhood index of ``g_train``; reads its edges only."""
    degrees = g_train.degrees()
    deg = degrees.tolist()
    indices, bounds = g_train.indices.tolist(), g_train.indptr.tolist()
    lists = tuple(indices[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    return HeuristicIndex(
        g=g_train,
        neighbor_lists=lists,
        neighbor_sets=tuple(map(set, lists[: g_train.n_left])),
        degrees=degrees,
        aa_terms=np.array([1.0 / math.log(d) if d >= 2 else 0.0 for d in deg]),
        ra_terms=np.array([1.0 / d if d else 0.0 for d in deg]),
    )


def heuristic_scores(index: HeuristicIndex, kind: ScorerKind, pairs) -> np.ndarray:
    """Similarity index for local (left, right) pairs.

    With N(x) the training neighbors, N2(v) the two-step neighborhood, u the
    left and v the right node of a pair, and C = N(u) n N2(v):

      pref_attach       deg(u) * deg(v)
      common_neighbors  |C|
      jaccard           |C| / |N(u) u N2(v)|      (0 when the union is empty)
      adamic_adar       sum_{b in C, deg(b) >= 2} 1 / ln(deg(b))
      resource_alloc    sum_{b in C} 1 / deg(b)

    C is exactly the set of intermediate nodes adjacent to u on length-3
    paths from u to v, which is what "common neighbors" degrades to across
    partitions.  The whole batch is checked first: a non-heuristic ``kind``
    raises ValueError and an out-of-range pair GraphInputError.  The last
    four read ``index.commons``: whichever of them asks first for a batch
    scores all four over it (``_common_scores``), and the others on the same
    pairs read the kept arrays.  That pass takes the pairs by right node v,
    builds N2(v) once per target and drops it after its pairs.  The union's
    size is |N(u)| + |N2(v)| - |C|, and aa/ra add the index's per-node terms
    over C from 0.0 in the set's iteration order, by ``np.bincount`` over the
    gathered elements.  A call returns a copy of the kept array, so writing
    into it leaves the memo as it was.
    """
    if kind not in HEURISTIC_KINDS:
        raise ValueError(f"{kind} is not a heuristic scorer")
    lefts, rights = _pair_ends(pairs, index.g.n_left, index.g.n)
    if kind is ScorerKind.PREFERENTIAL_ATTACHMENT:
        return (index.degrees[lefts] * index.degrees[rights]).astype(np.float64)
    key = lefts.tobytes() + rights.tobytes()
    if key not in index.commons:
        index.commons.clear()  # only the latest batch is kept
        index.commons[key] = _common_scores(index, lefts, rights)
    return index.commons[key][_COMMON_KINDS.index(kind)].copy()


class KatzDivergenceError(ValueError):
    """The closed-form Katz resolvent needs beta < 1 / spectral_radius(A)."""


def adjacency_spectral_radius(gram: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric bipartite adjacency
    A = [[0, B], [B^T, 0]], from ``gram``, the Gram matrix G = W^T W of the
    block W of B or B^T whose columns are the smaller side.

    The eigenvalues of A are plus and minus the singular values of B, so
    the radius is sqrt(lambda_max(G)): one ``np.linalg.eigvalsh`` of an
    s x s matrix, s <= n / 2.  An all-zero G (no edge, or an empty side)
    gives 0.0.
    """
    if not gram.any():
        return 0.0
    return math.sqrt(np.linalg.eigvalsh(gram)[-1])


@dataclass(frozen=True, eq=False)
class KatzIndex:
    """What Katz reads from one training graph.

    ``adj`` is a symmetric float64 CSR adjacency with no entry inside one
    side, and its first ``n_left`` nodes are the left side; the series
    reads ``adj`` alone.  The closed form reads ``blocks``, which its first
    call builds and every later call on the index shares: W, the dense
    block of ``adj`` whose rows are the larger side's nodes and whose
    columns are the smaller side's (the left side on a tie), each side in
    its local indices; the Gram matrix G = W^T W; the spectral radius, from
    G; and whether the left side is the smaller one.
    """

    adj: "scipy.sparse.csr_matrix" = field(repr=False)
    n_left: int

    @cached_property
    def blocks(self) -> tuple:
        """(W, G, radius, left_smaller); built on first use."""
        n_left = self.n_left
        left_smaller = n_left <= self.adj.shape[0] - n_left
        w = (self.adj[n_left:, :n_left] if left_smaller else self.adj[:n_left, n_left:]).toarray()
        gram = w.T @ w
        return w, gram, adjacency_spectral_radius(gram), left_smaller


def katz_index(g_train: BipartiteGraph) -> KatzIndex:
    """The Katz index of ``g_train``; reads its edges only."""
    return KatzIndex(adj=g_train.adj, n_left=g_train.n_left)


def _entries(x: "scipy.sparse.csr_matrix", rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x's stored values at (rows, cols), 0.0 where it stores none."""
    return np.asarray(x[rows, cols]).ravel() if rows.size else np.zeros(0)


def _hop_at(
    damped: "scipy.sparse.csr_matrix", x: "scipy.sparse.csr_matrix", rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """(damped @ x)[rows, cols] without the product: a gather of ``damped``'s
    rows and a ``bincount``.  bincount adds a row's terms in stored order, as
    scipy's CSR x CSR product does, and an entry missing from ``x`` adds
    +0.0, so each value is bit-identical to the product's.  The gather holds
    one entry per stored entry of the rows, at most len(rows) x max degree."""
    seg, pos = _gather_rows(damped, rows)
    terms = damped.data[pos] * _entries(x, damped.indices[pos], cols[seg])
    return np.bincount(seg, weights=terms, minlength=rows.size)


def _closed_form(index: KatzIndex, beta: float, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """[(I - beta A)^{-1} - I] at the local (left, right) pairs, through the
    smaller side.

    With S the smaller side, O the other, W the O x S block and
    M = I - beta^2 W^T W on S, the resolvent's O x S block is beta W M^{-1}.
    A pair reads column a of M^{-1}, a its end on S, and dots it with W's
    row b, b its end on O.  Each call inverts the whole of M: LAPACK's
    solve rounds a column differently with other right-hand sides beside
    it, so solving for only the call's S ends would make a pair's score
    depend on the other pairs in the call.
    """
    w, gram, radius, left_smaller = index.blocks
    if radius > 0 and beta >= 1.0 / radius:
        raise KatzDivergenceError(
            f"beta={beta} >= 1/spectral_radius={1.0 / radius:.6g}; "
            "the resolvent series diverges"
        )
    a, b = (lefts, rights) if left_smaller else (rights, lefts)
    inverse = np.linalg.inv(np.eye(gram.shape[0]) - beta**2 * gram)
    return beta * np.einsum("ij,ij->i", w[b], inverse.T[a])


def katz_score(index: KatzIndex, beta: float, pairs) -> np.ndarray:
    """Katz index: damped walk counts (I - beta A)^{-1} - I at local
    (left, right) pairs.

    The graph size alone picks the form.  Up to ``DENSE_THRESHOLD`` nodes it
    is the closed form (``_closed_form``, one s x s inverse per call), which
    requires beta < 1 / spectral_radius(A) (KatzDivergenceError otherwise);
    larger graphs use the truncated series sum_{l=1..L} (beta A)^l with
    L = ``_KATZ_TERMS`` (5), which reads ``index.adj`` only.  The series
    runs once for the unique right ends, ``_KATZ_COLUMNS`` target columns
    at a time.  Hops 1 to L - 1 are sparse products x_l = beta A x_{l-1} of
    the block; the last hop is computed only at the pairs' (left, right)
    entries by ``_hop_at``.  Each pair adds its x_1 .. x_L entries in hop
    order, so no n x n or n x block dense matrix is built, and each score
    is bit-identical to propagating its right column alone through all L
    sparse products.
    """
    beta = check_real("beta", beta)
    a = index.adj
    n = a.shape[0]
    lefts, rights = _pair_ends(pairs, index.n_left, n)
    if n <= DENSE_THRESHOLD:
        scores = _closed_form(index, beta, lefts, rights - index.n_left)
    else:
        import scipy.sparse as sp

        scores = np.empty(lefts.size)
        damped = beta * a
        targets, column = np.unique(rights, return_inverse=True)
        for lo in range(0, targets.size, _KATZ_COLUMNS):
            block = targets[lo : lo + _KATZ_COLUMNS]
            sel = np.flatnonzero((column >= lo) & (column < lo + block.size))
            rows, cols = lefts[sel], column[sel] - lo
            x = sp.csr_matrix(
                (np.ones(block.size), (block, np.arange(block.size))), shape=(n, block.size)
            )
            total = np.zeros(sel.size)
            for _ in range(_KATZ_TERMS - 1):
                x = damped @ x
                total += _entries(x, rows, cols)
            total += _hop_at(damped, x, rows, cols)
            scores[sel] = total
    return scores

