"""Pair scorers: two-hop composition, direct decoding, and heuristic indices.

The headline scorer composes the normalized training adjacency with the
autoencoder's reconstructed adjacency: with R = sigmoid(Z Z^T) and An the
normalized adjacency, the two-hop matrix is An @ R, symmetrized as
(An R + (An R)^T) / 2.  Its (u, v) entry accumulates paths u -> w -> v where
the first hop uses a real (training) edge weight and the second the learned
reconstruction, so homogeneous hops become possible even though the training
graph is bipartite.  ``recon_two_hop`` is the ablation that uses R for both
hops (R @ R).

Every scorer takes a whole pair sequence and scores it in one call; a pair's
score does not depend on the other pairs in the call, so positives and
negatives can be scored together and sliced apart.  Neither two-hop scorer
ever materializes an n x n matrix: ``two_hop`` gathers the sparse rows of An
and ``recon_two_hop`` computes the needed columns of R per chunk of pairs.
Only Katz keeps two forms, because they compute different quantities: the
closed form up to ``DENSE_THRESHOLD`` (4096) nodes, a truncated series
above it.  The graph size alone picks the form; no argument overrides it.

All scorers accept node pairs in GLOBAL indexing (left block first), reject
indices outside [0, n) with ValueError, and are symmetric in the pair order.
Heuristic indices use the Daminelli-style bipartite adaptation: the "common
neighbors" of a heterogeneous pair (u, v) are the intermediate nodes of
length-3 paths, C(u, v) = N(u) n N2(v) with N2(v) the union of
neighbors-of-neighbors of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .autoencoder import EmbeddingModel, decode_pairs
from .graph import BipartiteGraph, NormalizedAdjacency

DENSE_THRESHOLD = 4096

_PAIR_CHUNK = 256
# (pair, neighbor) entries two_hop gathers at a time.
_GATHER_ENTRIES = 1 << 16
# Target columns the truncated Katz series propagates at a time.
_KATZ_COLUMNS = 256


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

MODEL_KINDS = frozenset(
    {ScorerKind.TWO_HOP, ScorerKind.RECON_TWO_HOP, ScorerKind.LGAE, ScorerKind.GAE}
)


@dataclass(frozen=True)
class PairScores:
    """Parallel (pair, score) sequences from one scorer."""

    pairs: tuple
    scores: np.ndarray
    scorer: ScorerKind


def _as_index_arrays(pairs, n: int):
    pairs = tuple((int(u), int(v)) for u, v in pairs)
    if not pairs:
        return pairs, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    bad = np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))
    if bad.size:
        raise ValueError(f"pair {pairs[bad[0]]} is out of range for a graph of {n} nodes")
    return pairs, arr[:, 0], arr[:, 1]


def _check_model_size(model: EmbeddingModel, n: int):
    if model.Z.shape[0] != n:
        raise ValueError(
            f"model has {model.Z.shape[0]} node embeddings but graph has {n} nodes"
        )


def _row_hop(mat: sp.csr_matrix, z: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_w mat[r, w] * sigmoid(z_w . z_c) for every (r, c): one CSR gather."""
    starts = mat.indptr[rows]
    counts = mat.indptr[rows + 1] - starts
    seg = np.repeat(np.arange(rows.size), counts)
    pos = np.arange(seg.size) + (starts - (np.cumsum(counts) - counts))[seg]
    dots = np.einsum("ij,ij->i", z[mat.indices[pos]], z[cols[seg]])
    return np.bincount(seg, weights=mat.data[pos] * expit(dots), minlength=rows.size)


def two_hop_score(model: EmbeddingModel, norm_adj: NormalizedAdjacency, pairs) -> PairScores:
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
    pairs, us, vs = _as_index_arrays(pairs, n)
    mat, z = norm_adj.matrix, model.Z
    chunk = max(1, _GATHER_ENTRIES // (2 * int(np.diff(mat.indptr).max(initial=1))))
    scores = np.empty(len(pairs))
    for lo in range(0, len(pairs), chunk):
        u, v = us[lo : lo + chunk], vs[lo : lo + chunk]
        scores[lo : lo + chunk] = 0.5 * (_row_hop(mat, z, u, v) + _row_hop(mat, z, v, u))
    return PairScores(pairs=pairs, scores=scores, scorer=ScorerKind.TWO_HOP)


def recon_two_hop_score(model: EmbeddingModel, pairs) -> PairScores:
    """Two-hop score using the reconstruction for both hops (R @ R).

    Symmetric without extra averaging since R is symmetric.  The two needed
    columns of R are computed on the fly per chunk of ``_PAIR_CHUNK`` pairs.
    """
    z = model.Z
    pairs, us, vs = _as_index_arrays(pairs, z.shape[0])
    scores = np.empty(len(pairs))
    for lo in range(0, len(pairs), _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, len(pairs))
        row_u = expit(z @ z[us[lo:hi]].T)
        row_v = expit(z @ z[vs[lo:hi]].T)
        scores[lo:hi] = np.sum(row_u * row_v, axis=0)
    return PairScores(pairs=pairs, scores=scores, scorer=ScorerKind.RECON_TWO_HOP)


def decode_score(model: EmbeddingModel, pairs, kind: ScorerKind | None = None) -> PairScores:
    """Direct decoder scores sigmoid(z_u . z_v)."""
    pairs, us, vs = _as_index_arrays(pairs, model.Z.shape[0])
    scores = decode_pairs(model.Z, us, vs)
    if kind is None:
        kind = ScorerKind.LGAE if model.model_kind.value == "lgae" else ScorerKind.GAE
    return PairScores(pairs=pairs, scores=scores, scorer=kind)


def _canonical_het_pair(g: BipartiteGraph, u: int, v: int):
    """Order a heterogeneous global pair as (left, right); reject homogeneous
    and out-of-range pairs."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"pair {(u, v)} is out of range for a graph of {g.n} nodes")
    u_left = u < g.n_left
    v_left = v < g.n_left
    if u_left == v_left:
        raise ValueError(f"pair ({u}, {v}) is homogeneous; heuristics need a left-right pair")
    return (u, v) if u_left else (v, u)


def _two_step_neighborhood(g: BipartiteGraph, v: int) -> set:
    """Union of neighbors-of-neighbors of v (nodes on v's own side reached in 2 hops)."""
    out = set()
    for a in g.neighbors[v]:
        out.update(g.neighbors[a].tolist())
    return out


def heuristic_score(g_train: BipartiteGraph, kind: ScorerKind, u: int, v: int, _n2_cache=None) -> float:
    """Similarity index for one heterogeneous pair (global indices).

    With N(x) the training neighbors, N2(v) the two-step neighborhood, and
    C = N(u) n N2(v):

      pref_attach       deg(u) * deg(v)
      common_neighbors  |C|
      jaccard           |C| / |N(u) u N2(v)|      (0 when the union is empty)
      adamic_adar       sum_{b in C, deg(b) >= 2} 1 / ln(deg(b))
      resource_alloc    sum_{b in C} 1 / deg(b)

    C is exactly the set of intermediate nodes adjacent to u on length-3
    paths from u to v, which is what "common neighbors" degrades to across
    partitions.
    """
    if kind not in HEURISTIC_KINDS:
        raise ValueError(f"{kind} is not a heuristic scorer")
    u, v = _canonical_het_pair(g_train, int(u), int(v))
    if kind is ScorerKind.PREFERENTIAL_ATTACHMENT:
        return float(g_train.degree(u) * g_train.degree(v))
    if _n2_cache is not None and v in _n2_cache:
        n2 = _n2_cache[v]
    else:
        n2 = _two_step_neighborhood(g_train, v)
        if _n2_cache is not None:
            _n2_cache[v] = n2
    nu = set(g_train.neighbors[u].tolist())
    common = nu & n2
    if kind is ScorerKind.COMMON_NEIGHBORS:
        return float(len(common))
    if kind is ScorerKind.JACCARD:
        union = len(nu | n2)
        return len(common) / union if union else 0.0
    if kind is ScorerKind.ADAMIC_ADAR:
        return float(
            sum(1.0 / math.log(g_train.degree(b)) for b in common if g_train.degree(b) >= 2)
        )
    return float(sum(1.0 / g_train.degree(b) for b in common))


def heuristic_scores(g_train: BipartiteGraph, kind: ScorerKind, pairs) -> PairScores:
    """Vector of heuristic_score over a pair sequence (caches per-node sets)."""
    pairs, us, vs = _as_index_arrays(pairs, g_train.n)
    cache: dict = {}
    scores = np.array(
        [heuristic_score(g_train, kind, u, v, _n2_cache=cache) for u, v in zip(us, vs)],
        dtype=np.float64,
    )
    return PairScores(pairs=pairs, scores=scores, scorer=kind)


class KatzDivergenceError(ValueError):
    """The closed-form Katz resolvent needs beta < 1 / spectral_radius(A)."""


def adjacency_spectral_radius(a: sp.spmatrix) -> float:
    """Largest absolute eigenvalue of a symmetric adjacency."""
    n = a.shape[0]
    if a.nnz == 0:
        return 0.0
    if n <= 64:
        return float(np.max(np.abs(np.linalg.eigvalsh(a.toarray()))))
    vals = sp.linalg.eigsh(a.asfptype(), k=1, which="LM", return_eigenvectors=False)
    return float(abs(vals[0]))


def katz_score(a_train: sp.spmatrix, beta: float, pairs, series_terms: int = 5) -> PairScores:
    """Katz index: damped walk counts (I - beta A)^{-1} - I at the pairs.

    The graph size alone picks the form.  Up to ``DENSE_THRESHOLD`` nodes it
    is the closed form (one dense solve per call), which requires
    beta < 1 / spectral_radius(A) (KatzDivergenceError otherwise); larger
    graphs use the truncated series sum_{l=1..L} (beta A)^l with
    L = ``series_terms``.  The series runs once for the unique target
    columns, ``_KATZ_COLUMNS`` at a time, as sparse matrix products
    (x = beta A x; acc += x), so it never materializes an n x n dense
    matrix and each score is bit-identical to propagating its target
    column alone.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    a = sp.csr_matrix(a_train, dtype=np.float64)
    n = a.shape[0]
    pairs, us, vs = _as_index_arrays(pairs, n)
    if n <= DENSE_THRESHOLD:
        radius = adjacency_spectral_radius(a)
        if radius > 0 and beta >= 1.0 / radius:
            raise KatzDivergenceError(
                f"beta={beta} >= 1/spectral_radius={1.0 / radius:.6g}; "
                "the resolvent series diverges"
            )
        resolvent = np.linalg.solve(np.eye(n) - beta * a.toarray(), np.eye(n))
        scores = resolvent[us, vs] - (us == vs).astype(np.float64)
    else:
        scores = np.empty(len(pairs))
        damped = beta * a
        targets, column = np.unique(vs, return_inverse=True)
        for lo in range(0, targets.size, _KATZ_COLUMNS):
            block = targets[lo : lo + _KATZ_COLUMNS]
            x = sp.csr_matrix(
                (np.ones(block.size), (block, np.arange(block.size))), shape=(n, block.size)
            )
            acc = sp.csr_matrix((n, block.size))
            for _ in range(series_terms):
                x = damped @ x
                acc = acc + x
            sel = np.flatnonzero((column >= lo) & (column < lo + block.size))
            scores[sel] = acc.toarray()[us[sel], column[sel] - lo]
    return PairScores(pairs=pairs, scores=np.asarray(scores, dtype=np.float64), scorer=ScorerKind.KATZ)


def write_scores_csv(pair_scores: PairScores, path, labels=None) -> None:
    """Export scores as ``u,v,score,scorer,label`` rows (label blank if unknown)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,v,score,scorer,label\n")
        for k, ((u, v), s) in enumerate(zip(pair_scores.pairs, pair_scores.scores)):
            label = "" if labels is None else str(int(labels[k]))
            fh.write(f"{u},{v},{float(s)!r},{pair_scores.scorer.value},{label}\n")
