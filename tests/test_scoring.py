"""Pair scorers against dense oracles and hand-worked cases.

The two-hop scorer is checked three ways: closed forms on constant inputs,
a literal path-sum decomposition on a six-node graph, and agreement with the
explicit An @ R matrix on random instances (the acceptance suite scales the
latter up to 100 graphs).  The batched Katz series and the indexed
heuristics are checked bit for bit against the per-pair loops they
replaced, the Katz closed form against the dense resolvent, and every
scorer is checked to give the same scores whether a pair list is scored
at once or in pieces.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from bihop import autoencoder, scoring

from bihop.autoencoder import EmbeddingModel, ModelKind
from bihop.data import generate_bipartite_er, southern_women_graph
from bihop.graph import adjacency, build_graph, normalize
from bihop.harness import DEFAULT_RATIOS, SCORER_MODELS
from bihop.metrics import roc_auc
from bihop.scoring import (
    HEURISTIC_KINDS,
    PairScores,
    ScorerKind,
    adjacency_spectral_radius,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_index,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
    write_scores_csv,
)
from bihop.splits import split_edges, train_graph

from conftest import katz_form, random_bipartite


def model_for(g, z):
    return EmbeddingModel(
        Z=np.asarray(z, dtype=np.float64),
        model_kind=ModelKind.LGAE,
        weights=(np.zeros((g.n, z.shape[1])),),
        loss_history=np.zeros(1),
    )


def het_pairs(g):
    return [(u, g.n_left + v) for u in range(g.n_left) for v in range(g.n_right)]


def recon_chunk_sums(z, pairs):
    """Per chunk of ``_PAIR_CHUNK`` pairs, the axis-0 sum of the product of
    the two full n-row sigmoid columns: the form ``recon_two_hop_score``
    reproduces byte for byte.  Byte equality needs the package's own
    sigmoid; the tolerance oracles keep scipy's ``expit``."""
    chunk = scoring._PAIR_CHUNK
    sigmoid = autoencoder.sigmoid
    return np.concatenate(
        [
            np.sum(sigmoid(z @ z[c[:, 0]].T) * sigmoid(z @ z[c[:, 1]].T), axis=0)
            for c in np.array_split(pairs, range(chunk, len(pairs), chunk))
        ]
    )


def dense_two_hop_oracle(g, z, us, vs):
    an = normalize(g.adj).matrix.toarray()
    recon = expit(z @ z.T)
    hop2 = an @ recon
    sym = 0.5 * (hop2 + hop2.T)
    return sym[us, vs]


def katz_series_loop(a, beta, pairs, series_terms=5):
    """The per-pair truncated Katz series that the batched kernel replaced:
    one sparse mat-vec walk per pair from its target column."""
    damped = beta * sp.csr_matrix(a, dtype=np.float64)
    n = damped.shape[0]
    out = np.empty(len(pairs))
    for k, (u, v) in enumerate(pairs):
        x = np.zeros(n)
        x[v] = 1.0
        acc = np.zeros(n)
        for _ in range(series_terms):
            x = damped @ x
            acc += x
        out[k] = acc[u]
    return out


def two_step_loop(g, v):
    """N2(v) as it was built before the index shared its neighbour lists:
    one ``update`` with a fresh list per neighbour of v."""
    out = set()
    for a in g.neighbors[v]:
        out.update(g.neighbors[a].tolist())
    return out


def fold(terms):
    """Float sum added left to right.  The builtin sum() compensates float
    sums from Python 3.12 on, so the oracles spell the loop out."""
    total = 0.0
    for t in terms:
        total += t
    return total


def neumaier(terms):
    """Neumaier's compensated sum, the algorithm of sum() on floats from
    Python 3.12; written here so every version can compare against it."""
    total = comp = 0.0
    for t in terms:
        nxt = total + t
        comp += (total - nxt) + t if abs(total) >= abs(t) else (t - nxt) + total
        total = nxt
    return total + comp


def heuristic_loop(g, kind, pairs):
    """The per-pair set code the shared heuristic index replaced: N(u)
    rebuilt for every pair, N2(v) built once per call, degrees read per
    intermediate node.  Pairs must be heterogeneous and in range."""
    cache = {}
    out = []
    for u, v in pairs:
        u, v = (u, v) if u < g.n_left else (v, u)
        if kind is ScorerKind.PREFERENTIAL_ATTACHMENT:
            out.append(float(g.degree(u) * g.degree(v)))
            continue
        if v not in cache:
            cache[v] = two_step_loop(g, v)
        n2 = cache[v]
        nu = set(g.neighbors[u].tolist())
        common = nu & n2
        if kind is ScorerKind.COMMON_NEIGHBORS:
            out.append(float(len(common)))
        elif kind is ScorerKind.JACCARD:
            union = len(nu | n2)
            out.append(len(common) / union if union else 0.0)
        elif kind is ScorerKind.ADAMIC_ADAR:
            out.append(fold(1.0 / math.log(g.degree(b)) for b in common if g.degree(b) >= 2))
        else:
            out.append(fold(1.0 / g.degree(b) for b in common))
    return np.array(out, dtype=np.float64)


def heuristic_one(g, kind, u, v):
    """One pair's heuristic score, through the batched call."""
    return heuristic_scores(heuristic_index(g), kind, [(u, v)]).scores[0]


def katz_of(g, beta, pairs):
    """Katz scores of ``pairs`` on ``g``'s adjacency, from a fresh index."""
    return katz_score(katz_index(adjacency(g), g.n_left), beta, pairs)


def katz_terms(terms):
    """Patch scoring._KATZ_TERMS, the series length L katz_score reads at
    call time."""
    return mock.patch.object(scoring, "_KATZ_TERMS", terms)


def scored_with(kind, g, z, pairs):
    """The PairScores of one call of the scorer behind ``kind``."""
    model = model_for(g, z)
    if kind is ScorerKind.TWO_HOP:
        return two_hop_score(model, normalize(g.adj), pairs)
    if kind is ScorerKind.RECON_TWO_HOP:
        return recon_two_hop_score(model, pairs)
    if kind in (ScorerKind.LGAE, ScorerKind.GAE):
        return decode_score(model, pairs, kind=kind)
    if kind is ScorerKind.KATZ:
        return katz_of(g, 0.05, pairs)
    return heuristic_scores(heuristic_index(g), kind, pairs)


def score_with(kind, g, z, pairs):
    """Scores of ``pairs`` from one call of the scorer behind ``kind``."""
    return scored_with(kind, g, z, pairs).scores


# Chunk sizes for the two-hop oracle checks: "dense" scores a whole pair
# list in one chunk, "lazy" one pair per chunk.
GATHER_BUDGETS = {"dense": 1 << 40, "lazy": 1}
PAIR_CHUNKS = {"dense": 1 << 40, "lazy": 1}


class TestScorerKind:
    def test_parse_canonical_and_aliases(self):
        assert ScorerKind.parse("two_hop") is ScorerKind.TWO_HOP
        assert ScorerKind.parse("PA") is ScorerKind.PREFERENTIAL_ATTACHMENT
        assert ScorerKind.parse("cn") is ScorerKind.COMMON_NEIGHBORS
        assert ScorerKind.parse("jc") is ScorerKind.JACCARD
        assert ScorerKind.parse("aa") is ScorerKind.ADAMIC_ADAR
        assert ScorerKind.parse("ra") is ScorerKind.RESOURCE_ALLOCATION
        assert ScorerKind.parse(" katz ") is ScorerKind.KATZ

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown scorer"):
            ScorerKind.parse("pagerank")

    def test_kind_partition(self):
        """The harness's scorer-to-model map, the heuristics and Katz
        partition the scorers."""
        models = set(SCORER_MODELS)
        assert HEURISTIC_KINDS | models | {ScorerKind.KATZ} == set(ScorerKind)
        assert not HEURISTIC_KINDS & models
        assert ScorerKind.KATZ not in HEURISTIC_KINDS | models


class TestTwoHop:
    def test_single_edge_zero_embedding_gives_half(self, single_edge_graph):
        """An is the all-half matrix and so is the reconstruction, so each
        two-hop entry is 0.25 + 0.25 = 0.5."""
        g = single_edge_graph
        model = model_for(g, np.zeros((2, 3)))
        norm = normalize(g.adj)
        got = two_hop_score(model, norm, [(0, 1), (1, 0), (0, 0)])
        assert got.scores.tolist() == [0.5, 0.5, 0.5]

    def test_path_sum_decomposition(self):
        """Six nodes, score(0, 5) decomposes into the four length-2 path
        terms through the trained similarity plus the two self-loop terms."""
        g = build_graph(3, 3, [(0, 0), (0, 1), (1, 2), (2, 2)])
        rng = np.random.default_rng(60)
        z = rng.standard_normal((6, 4))
        model = model_for(g, z)
        norm = normalize(g.adj)
        an = norm.matrix.toarray()
        dec = lambda i, j: float(expit(z[i] @ z[j]))
        u, v = 0, 5
        want = 0.5 * (
            an[u, 3] * dec(3, v)
            + an[u, 4] * dec(4, v)
            + an[u, u] * dec(u, v)
            + an[v, 1] * dec(1, u)
            + an[v, 2] * dec(2, u)
            + an[v, v] * dec(v, u)
        )
        got = two_hop_score(model, norm, [(u, v)]).scores[0]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", ["dense", "lazy"])
    def test_modes_match_oracle(self, mode, monkeypatch):
        """Agreement with the explicit An @ R matrix whether each pair list
        is gathered in one chunk ("dense") or one pair at a time ("lazy")."""
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", GATHER_BUDGETS[mode])
        rng = np.random.default_rng(61)
        for _ in range(15):
            g = random_bipartite(rng)
            z = rng.standard_normal((g.n, 5))
            model = model_for(g, z)
            norm = normalize(g.adj)
            pairs = het_pairs(g)
            got = two_hop_score(model, norm, pairs).scores
            us = np.array([p[0] for p in pairs])
            vs = np.array([p[1] for p in pairs])
            want = dense_two_hop_oracle(g, z, us, vs)
            denom = np.maximum(np.abs(want), 1e-30)
            assert np.max(np.abs(got - want) / denom) <= 1e-10

    def test_gather_chunk_boundaries(self, monkeypatch):
        """A gather budget that allows one pair per chunk still matches the
        oracle, including homogeneous and self pairs."""
        rng = np.random.default_rng(62)
        g = random_bipartite(rng, max_side=12)
        z = rng.standard_normal((g.n, 4))
        pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", 5)
        got = two_hop_score(model_for(g, z), normalize(g.adj), pairs).scores
        arr = np.asarray(pairs)
        want = dense_two_hop_oracle(g, z, arr[:, 0], arr[:, 1])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(63)
        g = random_bipartite(rng)
        z = rng.standard_normal((g.n, 3))
        model = model_for(g, z)
        norm = normalize(g.adj)
        fwd = two_hop_score(model, norm, [(0, g.n - 1)]).scores[0]
        rev = two_hop_score(model, norm, [(g.n - 1, 0)]).scores[0]
        assert fwd == rev
        all_scores = two_hop_score(model, norm, het_pairs(g)).scores
        assert np.all(all_scores >= 0.0)

    def test_model_size_mismatch(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((7, 2)))
        with pytest.raises(ValueError, match="embeddings"):
            two_hop_score(model, normalize(g.adj), [(0, 2)])

    def test_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((4, 2)))
        got = two_hop_score(model, normalize(g.adj), [])
        assert got.scores.shape == (0,)


class TestReconTwoHop:
    def test_zero_embedding_gives_quarter_n(self):
        """R is the all-half matrix, so each entry of R @ R is n/4."""
        for n_left, n_right in [(2, 3), (4, 4), (1, 6)]:
            g = build_graph(n_left, n_right, [(0, 0)])
            model = model_for(g, np.zeros((g.n, 2)))
            got = recon_two_hop_score(model, [(0, g.n_left)]).scores[0]
            assert got == pytest.approx(g.n / 4.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(64)
        z = rng.standard_normal((9, 3))
        g = build_graph(4, 5, [(0, 0)])
        model = model_for(g, z)
        fwd = recon_two_hop_score(model, [(1, 7)]).scores[0]
        rev = recon_two_hop_score(model, [(7, 1)]).scores[0]
        assert fwd == rev

    @pytest.mark.parametrize("mode", ["dense", "lazy"])
    def test_modes_match_oracle(self, mode, monkeypatch):
        """Agreement with the explicit R @ R whether each pair list is scored
        in one chunk ("dense") or one pair at a time ("lazy")."""
        monkeypatch.setattr(scoring, "_PAIR_CHUNK", PAIR_CHUNKS[mode])
        rng = np.random.default_rng(65)
        for _ in range(10):
            g = random_bipartite(rng)
            z = rng.standard_normal((g.n, 4))
            model = model_for(g, z)
            pairs = het_pairs(g)
            got = recon_two_hop_score(model, pairs).scores
            recon = expit(z @ z.T)
            want = (recon @ recon)[
                np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
            ]
            denom = np.maximum(np.abs(want), 1e-30)
            assert np.max(np.abs(got - want) / denom) <= 1e-10

    def test_lazy_chunking_boundary(self):
        """More pairs than one chunk still matches the explicit R @ R."""
        rng = np.random.default_rng(66)
        g = build_graph(20, 20, [(i, i) for i in range(20)])
        z = rng.standard_normal((40, 3))
        model = model_for(g, z)
        pairs = het_pairs(g)  # 400 pairs > the 256-pair chunk
        got = recon_two_hop_score(model, pairs).scores
        recon = expit(z @ z.T)
        arr = np.asarray(pairs)
        want = (recon @ recon)[arr[:, 0], arr[:, 1]]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_chunks_match_spelled_out_products(self):
        """Over more pairs than one chunk, every score equals the chunk's
        sum of the two sigmoid columns' product, byte for byte."""
        rng = np.random.default_rng(67)
        g = build_graph(20, 25, [(i, i) for i in range(20)])
        z = rng.standard_normal((g.n, 3))
        pairs = np.asarray(het_pairs(g))  # 500 pairs > the 256-pair chunk
        assert len(pairs) > scoring._PAIR_CHUNK
        got = recon_two_hop_score(model_for(g, z), pairs).scores
        assert np.array_equal(got, recon_chunk_sums(z, pairs))

    @pytest.mark.parametrize("n_left, n_right, k", [(350, 350, 600), (256, 257, 513)])
    def test_row_blocks_match_full_columns(self, n_left, n_right, k):
        """Z's rows are walked in blocks: 256 + 256 + 188 rows at n = 700,
        and at n = 513 the lone last row joins the block before it.  With
        k = 513 the last chunk holds one pair and takes all rows at once.
        Every score equals its chunk's full-column sum byte for byte."""
        rng = np.random.default_rng(68)
        g = build_graph(n_left, n_right, [(0, 0)])
        z = rng.standard_normal((g.n, 16))
        pairs = rng.integers(0, g.n, size=(k, 2))
        assert g.n > scoring._GATHER_ENTRIES // scoring._PAIR_CHUNK
        got = recon_two_hop_score(model_for(g, z), pairs).scores
        assert np.array_equal(got, recon_chunk_sums(z, pairs))

    @pytest.mark.parametrize("n_right, k", [(25, 497), (23, 457)])
    def test_small_gather_bound_splits_a_tiny_graph(self, n_right, k, monkeypatch):
        """With 8-pair chunks and 48 entries, 6-row blocks split a graph of
        45 nodes (seven blocks of 6 rows, one of 3) or of 43 (six of 6, one
        of 7); the last chunk holds one pair.  Byte-equal to full columns."""
        monkeypatch.setattr(scoring, "_PAIR_CHUNK", 8)
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", 48)
        rng = np.random.default_rng(69)
        g = build_graph(20, n_right, [(i, i) for i in range(20)])
        z = rng.standard_normal((g.n, 3))
        pairs = np.asarray(het_pairs(g))[:k]
        got = recon_two_hop_score(model_for(g, z), pairs).scores
        assert np.array_equal(got, recon_chunk_sums(z, pairs))

    def test_one_call_keeps_row_block_memory(self):
        """A call on a 4200 x 16 model holds 256 x 256 blocks, not the two
        4200 x 256 columns of R (8.2 MiB each) of every chunk."""
        rng = np.random.default_rng(70)
        z = rng.standard_normal((4200, 16))
        model = EmbeddingModel(
            Z=z, model_kind=ModelKind.LGAE, weights=(z,), loss_history=np.zeros(1)
        )
        pairs = rng.integers(0, 4200, size=(2100, 2))
        tracemalloc.start()
        try:
            recon_two_hop_score(model, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDecodeScore:
    def test_matches_decoder(self):
        rng = np.random.default_rng(67)
        g = random_bipartite(rng)
        z = rng.standard_normal((g.n, 3))
        model = model_for(g, z)
        pairs = het_pairs(g)
        got = decode_score(model, pairs)
        want = expit(
            np.einsum(
                "ij,ij->i",
                z[[p[0] for p in pairs]],
                z[[p[1] for p in pairs]],
            )
        )
        assert np.allclose(got.scores, want, rtol=0, atol=1e-15)
        assert got.scorer is ScorerKind.LGAE

    def test_kind_defaults_to_the_model_kind(self):
        g = build_graph(1, 1, [(0, 0)])
        gae = dataclasses.replace(model_for(g, np.zeros((2, 2))), model_kind=ModelKind.GAE)
        assert decode_score(gae, [(0, 1)]).scorer is ScorerKind.GAE

    def test_kind_override(self):
        g = build_graph(1, 1, [(0, 0)])
        model = model_for(g, np.zeros((2, 2)))
        got = decode_score(model, [(0, 1)], kind=ScorerKind.GAE)
        assert got.scorer is ScorerKind.GAE
        assert got.scores[0] == 0.5


class TestHeuristics:
    def test_preferential_attachment_product(self):
        # deg(u) = 2 and deg(v) = 3 multiply to 6
        g = build_graph(3, 3, [(0, 0), (0, 1), (1, 0), (2, 0)])
        assert heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 0, 3) == 6.0
        # right node 2 is isolated, so any product with it is zero
        assert heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 1, 5) == 0.0

    def test_common_neighbors_on_chain(self):
        """Chain u - b1 - a1 - v: the single length-3 path contributes one
        common neighbor (b1)."""
        # left: u=0, a1=1; right: b1=0, v=1
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        u, v = 0, g.right_global(1)
        assert heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, u, v) == 1.0

    def test_common_neighbors_no_path(self):
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        assert heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, 0, 3) == 0.0

    def test_zero_whenever_no_three_hop_path(self):
        """CN/JC/AA/RA vanish exactly when no length-3 path joins the pair."""
        rng = np.random.default_rng(68)
        kinds = [
            ScorerKind.COMMON_NEIGHBORS,
            ScorerKind.JACCARD,
            ScorerKind.ADAMIC_ADAR,
            ScorerKind.RESOURCE_ALLOCATION,
        ]
        for _ in range(20):
            g = random_bipartite(rng, max_side=6)
            for u in range(g.n_left):
                for vl in range(g.n_right):
                    v = g.right_global(vl)
                    has_path = any(
                        g.has_edge(a, b - g.n_left) and g.has_edge(a, vl)
                        for b in g.neighbors[u].tolist()
                        for a in range(g.n_left)
                    )
                    cn = heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, u, v)
                    if has_path:
                        assert cn > 0
                    else:
                        for kind in kinds:
                            assert heuristic_one(g, kind, u, v) == 0.0

    def test_resource_allocation_path_oracle(self):
        """RA equals the sum of 1/deg(b) over intermediates adjacent to u."""
        rng = np.random.default_rng(69)
        for _ in range(20):
            g = random_bipartite(rng, max_side=6)
            for u in range(g.n_left):
                for vl in range(g.n_right):
                    v = g.right_global(vl)
                    intermediates = {
                        b
                        for b in g.neighbors[u].tolist()
                        for a in range(g.n_left)
                        if g.has_edge(a, b - g.n_left) and g.has_edge(a, vl)
                    }
                    want = sum(1.0 / g.degree(b) for b in intermediates)
                    got = heuristic_one(g, ScorerKind.RESOURCE_ALLOCATION, u, v)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_adamic_adar_skips_degree_one(self):
        # path u - b1 - a1 - v with deg(b1) = 2: AA = 1/ln 2;
        # rewire so the only intermediate has degree 1: AA = 0
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        got = heuristic_one(g, ScorerKind.ADAMIC_ADAR, 0, 3)
        assert got == pytest.approx(1.0 / np.log(2.0), rel=1e-14)
        # u - b1, a1 - b2, a1 - v: u's only neighbor b1 has degree 1 and no
        # second hop, so C is empty anyway; build the degree-1 intermediate
        # case via a 3x3 graph instead
        g2 = build_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        # pair (0, right 1): C = {right 0 or right 2}? enumerate by hand:
        # N(0) = {r0, r2}; N2(r1) = N(1) u N(2) = {r0, r1, r2}; C = {r0, r2},
        # deg(r0) = 2, deg(r2) = 2 -> AA = 2 / ln 2
        got2 = heuristic_one(g2, ScorerKind.ADAMIC_ADAR, 0, g2.right_global(1))
        assert got2 == pytest.approx(2.0 / np.log(2.0), rel=1e-14)

    def test_jaccard_range_and_value(self):
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        # N(u) = {b1}; N2(v) = N(a1) = {b1, v}: intersection 1, union 2
        got = heuristic_one(g, ScorerKind.JACCARD, 0, 3)
        assert got == 0.5
        rng = np.random.default_rng(70)
        for _ in range(10):
            gg = random_bipartite(rng, max_side=6)
            scores = heuristic_scores(heuristic_index(gg), ScorerKind.JACCARD, het_pairs(gg)).scores
            assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_symmetric_in_pair_order(self):
        rng = np.random.default_rng(71)
        g = random_bipartite(rng, max_side=6)
        for kind in HEURISTIC_KINDS:
            for u in range(g.n_left):
                v = g.right_global(g.n_right - 1)
                assert heuristic_one(g, kind, u, v) == heuristic_one(g, kind, v, u)

    def test_homogeneous_pair_rejected(self):
        """The whole batch is checked, and the message names the first
        homogeneous pair as given, same-side or self, for every heuristic
        and for Katz in both forms."""
        g = build_graph(3, 3, [(0, 0)])
        index = heuristic_index(g)
        with pytest.raises(ValueError, match=re.escape("pair (0, 1) is homogeneous")):
            heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, 0, 1)
        with pytest.raises(ValueError, match=re.escape("pair (3, 5) is homogeneous")):
            heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 3, 5)
        calls = [lambda pairs, kind=kind: heuristic_scores(index, kind, pairs) for kind in HEURISTIC_KINDS]
        calls.append(lambda pairs: katz_of(g, 0.1, pairs))
        batches = {"(5, 4)": [(0, 3), (4, 1), (5, 4), (0, 1)], "(2, 2)": [(0, 3), (2, 2)]}
        for form in ("closed", "series"):
            for call in calls:
                for first, batch in batches.items():
                    with katz_form(form), pytest.raises(ValueError, match=re.escape(f"pair {first} is homogeneous")):
                        call(batch)

    def test_non_heuristic_kind_rejected(self):
        g = build_graph(2, 2, [(0, 0)])
        for kind in set(ScorerKind) - HEURISTIC_KINDS:
            with pytest.raises(ValueError, match="not a heuristic"):
                heuristic_scores(heuristic_index(g), kind, [(0, 2)])
            with pytest.raises(ValueError, match="not a heuristic"):
                heuristic_scores(heuristic_index(g), kind, [])

    def test_integer_count_for_common_neighbors(self):
        rng = np.random.default_rng(72)
        g = random_bipartite(rng, max_side=7)
        scores = heuristic_scores(heuristic_index(g), ScorerKind.COMMON_NEIGHBORS, het_pairs(g)).scores
        assert np.array_equal(scores, np.round(scores))
        assert np.all(scores >= 0)

    @given(case=st.data())
    def test_matches_per_pair_oracle(self, case):
        """All five indices equal the per-pair loop bit for bit, in either
        pair order.  Each graph has an isolated node on both sides and a
        degree-1 right node, and pairs repeat endpoints and whole pairs."""
        n_left = case.draw(st.integers(1, 6))
        n_right = case.draw(st.integers(1, 6))
        edges = case.draw(
            st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)), max_size=24)
        )
        # left n_left and right n_right + 1 isolated; right n_right hangs off left 0
        g = build_graph(n_left + 1, n_right + 2, edges + [(0, n_right)])
        pairs = case.draw(st.lists(st.sampled_from(het_pairs(g)), min_size=1, max_size=30))
        pairs = pairs + pairs[: len(pairs) // 2]
        flipped = [(v, u) for u, v in pairs]
        index = heuristic_index(g)
        for kind in HEURISTIC_KINDS:
            got = heuristic_scores(index, kind, pairs).scores
            assert np.array_equal(got, heuristic_loop(g, kind, pairs)), kind
            assert heuristic_scores(index, kind, flipped).scores.tobytes() == got.tobytes(), kind

    def test_sums_keep_set_order_on_a_larger_graph(self):
        """On sets large enough that iteration order is not ascending, aa and
        ra still equal the per-pair loop bit for bit, while an ascending-order
        sum differs for some pair: the check sees the order of the sums."""
        g = generate_bipartite_er(60, 110, 0.3, seed=3)
        index = heuristic_index(g)
        pairs = het_pairs(g)[::7]
        for kind in (ScorerKind.ADAMIC_ADAR, ScorerKind.RESOURCE_ALLOCATION):
            got = heuristic_scores(index, kind, pairs).scores
            assert np.array_equal(got, heuristic_loop(g, kind, pairs)), kind
        terms, lists = index.aa_terms, index.neighbor_lists
        ascending = [
            fold(terms[b] for b in sorted(index.neighbor_sets[u] & scoring._two_step_neighborhood(lists, v)))
            for u, v in pairs
        ]
        assert not np.array_equal(heuristic_scores(index, ScorerKind.ADAMIC_ADAR, pairs).scores, ascending)

    def test_sums_are_left_to_right_folds(self):
        """aa and ra add their terms left to right in C's order, on every
        Python version: they equal the plain fold and, for some pair, differ
        from the compensated sum that builtin sum() uses from Python 3.12."""
        g = generate_bipartite_er(60, 110, 0.3, seed=3)
        index = heuristic_index(g)
        pairs = het_pairs(g)[::7]
        commons = [index.neighbor_sets[u] & scoring._two_step_neighborhood(index.neighbor_lists, v) for u, v in pairs]
        for kind, terms in (
            (ScorerKind.ADAMIC_ADAR, index.aa_terms), (ScorerKind.RESOURCE_ALLOCATION, index.ra_terms)
        ):
            got = heuristic_scores(index, kind, pairs).scores
            assert got.tobytes() == np.array([fold(terms[b] for b in c) for c in commons]).tobytes(), kind
        compensated = [neumaier(index.aa_terms[b] for b in c) for c in commons]
        assert not np.array_equal(heuristic_scores(index, ScorerKind.ADAMIC_ADAR, pairs).scores, compensated)

    def test_folds_in_bounded_pieces(self, monkeypatch):
        """With a gather bound of a few entries one batch folds many times,
        each fold at a pair's end; aa and ra still equal the per-pair loop
        and the default bound's scores byte for byte.  The batch holds a
        pair with an empty C (its right node is isolated) and a pair listed
        twice."""
        er = generate_bipartite_er(60, 110, 0.3, seed=3)
        g = build_graph(er.n_left, er.n_right + 1, er.edges)
        isolated = g.n - 1
        pairs = het_pairs(g)[::37] + [(5, isolated), (0, g.n_left + 4), (0, g.n_left + 4)]
        index = heuristic_index(g)
        assert index.degrees[isolated] == 0
        kinds = (ScorerKind.ADAMIC_ADAR, ScorerKind.RESOURCE_ALLOCATION)
        default = [heuristic_scores(index, kind, pairs).scores for kind in kinds]
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", 3)
        for kind, want in zip(kinds, default):
            got = heuristic_scores(heuristic_index(g), kind, pairs).scores
            assert got.tobytes() == want.tobytes() == heuristic_loop(g, kind, pairs).tobytes(), kind
            assert got[-3] == 0.0 and got[-2] == got[-1] > 0.0, kind

    @pytest.mark.parametrize("shape", [(60, 110, 0.3), (200, 300, 0.02)])
    def test_two_step_sets_keep_the_loop_order(self, shape):
        """Every N2(v) iterates exactly as the per-neighbour ``update``
        loop's set does.  On the dense graph each N2 is nearly all right
        nodes and comes out ascending; on the sparse one, small sets of large
        indices do not, so the check sees the order."""
        g = generate_bipartite_er(*shape, seed=3)
        index = heuristic_index(g)
        orders = [list(scoring._two_step_neighborhood(index.neighbor_lists, v)) for v in range(g.n_left, g.n)]
        assert orders == [list(two_step_loop(g, v)) for v in range(g.n_left, g.n)]
        assert any(order != sorted(order) for order in orders) == (shape[2] < 0.3)

    @given(case=st.data())
    def test_memo_does_not_depend_on_call_history(self, case):
        """One shared index gives every pair the scores of a fresh index and
        of the per-pair loop, whatever the order of the kinds, the order of
        the pairs, or how the pairs are split across calls."""
        g = generate_bipartite_er(
            case.draw(st.integers(1, 30)), case.draw(st.integers(1, 60)), 0.3, seed=case.draw(st.integers(0, 99))
        )
        pairs = case.draw(st.lists(st.sampled_from(het_pairs(g)), min_size=1, max_size=40))
        pairs = case.draw(st.permutations(pairs + pairs[: len(pairs) // 3]))
        kinds = case.draw(st.permutations(sorted(HEURISTIC_KINDS, key=lambda k: k.value)))
        cut = case.draw(st.integers(0, len(pairs)))
        shared = heuristic_index(g)
        for kind in kinds:
            fresh = heuristic_scores(heuristic_index(g), kind, pairs).scores
            assert fresh.tobytes() == heuristic_loop(g, kind, pairs).tobytes(), kind
            # The tail is scored before the head, then the whole list again.
            tail = heuristic_scores(shared, kind, pairs[cut:]).scores
            head = heuristic_scores(shared, kind, pairs[:cut]).scores
            assert np.concatenate([head, tail]).tobytes() == fresh.tobytes(), kind
            assert heuristic_scores(shared, kind, pairs).scores.tobytes() == fresh.tobytes(), kind

    def test_memo_holds_the_latest_batch_only(self):
        """50 batches of 200 pairs on one index leave one memo entry, not
        50, and every batch, the first one scored again included, gets a
        fresh index's scores."""
        g = generate_bipartite_er(30, 60, 0.3, seed=3)
        pairs = np.array(het_pairs(g))
        rng = np.random.default_rng(0)
        batches = [pairs[rng.choice(len(pairs), 200, replace=False)] for _ in range(50)]
        shared = heuristic_index(g)
        for batch in batches + batches[:1]:
            for kind in (ScorerKind.COMMON_NEIGHBORS, ScorerKind.ADAMIC_ADAR):
                fresh = heuristic_scores(heuristic_index(g), kind, batch).scores
                assert heuristic_scores(shared, kind, batch).scores.tobytes() == fresh.tobytes(), kind
        assert len(shared.commons) == 1

    def test_one_call_holds_one_two_step_set_at_a_time(self):
        """A cn call on the 600 x 1070 ER graph's test pairs (1,070 targets,
        N2 sets of about 870 nodes) keeps four numbers per pair, not every
        N2(v) it built: those sets alone are about 35 MB."""
        g = generate_bipartite_er(600, 1070, 0.063, seed=3)
        split = split_edges(g, DEFAULT_RATIOS, 0)
        index = heuristic_index(train_graph(g, split))
        pairs = np.concatenate([split.test_pos, split.test_neg]) + (0, g.n_left)
        tracemalloc.start()
        try:
            heuristic_scores(index, ScorerKind.COMMON_NEIGHBORS, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestKatz:
    def test_single_edge_closed_form(self):
        g = build_graph(1, 1, [(0, 0)])
        got = katz_of(g, 0.5, [(0, 1)]).scores[0]
        # geometric series over odd walk lengths: beta / (1 - beta^2)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_small_beta_first_order_limit(self):
        rng = np.random.default_rng(74)
        g = random_bipartite(rng, max_side=6)
        a = adjacency(g)
        beta = 1e-8
        pairs = het_pairs(g)
        got = katz_of(g, beta, pairs).scores / beta
        want = np.array([a[u, v] for u, v in pairs])
        assert np.allclose(got, want, rtol=0, atol=1e-6)

    def test_truncated_series_approaches_closed_form(self):
        rng = np.random.default_rng(75)
        g = random_bipartite(rng, max_side=5, min_edges=6)
        pairs = het_pairs(g)
        with katz_form("closed"):
            closed = katz_of(g, 0.05, pairs).scores
        with katz_form("series"), katz_terms(25):
            series = katz_of(g, 0.05, pairs).scores
        denom = np.maximum(np.abs(closed), 1e-30)
        assert np.max(np.abs(series - closed) / denom) <= 1e-8

    def test_five_term_series_is_degree_five_polynomial(self):
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with katz_form("series"), katz_terms(5):
            got = katz_of(g, beta, [(0, 1)]).scores[0]
        assert got == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)

    def test_beta_beyond_radius_rejected_in_dense_mode(self):
        g = build_graph(1, 1, [(0, 0)])  # spectral radius exactly 1
        with katz_form("closed"), pytest.raises(ValueError, match="diverges"):
            katz_of(g, 1.5, [(0, 1)])

    def test_series_mode_tolerates_large_beta(self):
        g = build_graph(1, 1, [(0, 0)])
        with katz_form("series"), katz_terms(3):
            got = katz_of(g, 1.5, [(0, 1)]).scores[0]
        assert got == pytest.approx(1.5 + 1.5**3, rel=1e-14)

    def test_graph_size_picks_the_form(self):
        """The closed form runs up to DENSE_THRESHOLD nodes inclusive, the
        series above it; on one edge they give beta / (1 - beta^2) and
        beta + beta^3 + beta^5."""
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n):
            closed = katz_of(g, beta, [(0, 1)]).scores[0]
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n - 1):
            series = katz_of(g, beta, [(0, 1)]).scores[0]
        assert closed == pytest.approx(beta / (1 - beta**2), rel=1e-14)
        assert series == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)
        assert scoring.DENSE_THRESHOLD == 4096

    def test_nonpositive_beta_rejected(self):
        g = build_graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="positive"):
            katz_of(g, 0.0, [(0, 1)])

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        """NaN fails every comparison, so a bare beta <= 0 check let it through."""
        g = build_graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="positive and finite"):
            katz_of(g, beta, [(0, 1)])

    def test_symmetry(self):
        rng = np.random.default_rng(76)
        g = random_bipartite(rng, max_side=6)
        fwd = katz_of(g, 0.03, [(0, g.n - 1)]).scores[0]
        rev = katz_of(g, 0.03, [(g.n - 1, 0)]).scores[0]
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_series_bit_identical_to_per_pair_loop(self):
        """More unique right ends than one column chunk, repeated right
        ends, left-right pairs in both orientations, and a left and a right
        node with no training neighbours: every score equals the per-pair
        walk from the pair's right end, for a series that is its pointwise
        last hop alone (1 term) and for series whose last hop follows one or
        more sparse products (2, 3, 5 terms)."""
        rng = np.random.default_rng(79)
        for n_left, n_right in ((150, 300), (40, 30)):
            # Left node 0 and right node 0 (global n_left) stay isolated.
            edges = [
                (u, v)
                for u in range(1, n_left)
                for v in range(1, n_right)
                if rng.random() < 0.03
            ]
            g = build_graph(n_left, n_right, edges)
            a = adjacency(g)
            assert a[0].nnz == 0 and a[n_left].nnz == 0
            # Random symmetric weights make the sum's rounding depend on its
            # order, so a reordered accumulation shows up as a mismatch.
            upper = sp.triu(a).multiply(rng.uniform(0.5, 2.0, size=a.shape))
            weighted = sp.csr_matrix(upper + upper.T)
            rights = n_left + np.concatenate([np.arange(n_right), rng.integers(0, n_right, size=50)])
            pairs = [(int(rng.integers(n_left)), int(v)) for v in rights]
            pairs += [(0, n_left + 1), (1, n_left), (0, n_left)]
            if n_left == 150:
                assert len({v for _, v in pairs}) > scoring._KATZ_COLUMNS
            oriented = pairs + [(v, u) for u, v in pairs[:60]]
            for matrix, beta in ((a, 0.05), (weighted, 0.3)):
                for terms in (1, 2, 3, 5):
                    with katz_form("series"), katz_terms(terms):
                        got = katz_score(katz_index(matrix, n_left), beta, oriented).scores
                    want = katz_series_loop(matrix, beta, pairs, terms)
                    assert np.array_equal(got, np.concatenate([want, want[:60]]))

    def test_series_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        with katz_form("series"):
            got = katz_of(g, 0.1, [])
        assert got.scores.shape == (0,)
        assert got.pairs.shape == (0, 2)

    def test_spectral_radius_small_and_large_paths_agree(self):
        """The right side larger, then the same graph with its sides swapped:
        the Gram matrix of either smaller side gives the dense radius of A."""
        rng = np.random.default_rng(77)
        g = random_bipartite(rng, max_side=8, min_edges=10)
        swapped = build_graph(g.n_right, g.n_left, g.edges[:, ::-1])
        assert g.n_left < g.n_right
        for h in (g, swapped):
            a = adjacency(h)
            dense = float(np.max(np.abs(np.linalg.eigvalsh(a.toarray()))))
            _, gram, radius, _ = katz_index(a, h.n_left).blocks
            assert gram.shape == (min(h.n_left, h.n_right),) * 2
            assert radius == adjacency_spectral_radius(gram)
            assert radius == pytest.approx(dense, rel=1e-10)

    def test_spectral_radius_repeats_bit_for_bit(self):
        """One eigvalsh of the Gram matrix, so the radius that decides Katz
        feasibility is the same on every call and every index."""
        rng = np.random.default_rng(78)
        edges = [(u, v) for u in range(60) for v in range(50) if rng.random() < 0.1]
        a = adjacency(build_graph(60, 50, edges))
        gram = katz_index(a, 60).blocks[1]
        radii = {adjacency_spectral_radius(gram) for _ in range(5)}
        radii |= {katz_index(a, 60).blocks[2] for _ in range(5)}
        assert len(radii) == 1
        dense = float(np.max(np.abs(np.linalg.eigvalsh(a.toarray()))))
        assert radii.pop() == pytest.approx(dense, rel=1e-10)

    def test_empty_graph_radius_zero(self):
        """No edge, or no node on one side (an s = 0 Gram matrix): 0.0."""
        g = build_graph(3, 3, [])
        assert katz_index(adjacency(g), g.n_left).blocks[2] == 0.0
        for n_left in (0, 4):
            _, gram, radius, _ = katz_index(sp.csr_matrix((4, 4)), n_left).blocks
            assert gram.shape == (0, 0)
            assert radius == 0.0 == adjacency_spectral_radius(gram)

    def test_radius_reads_the_index_gram(self):
        """The index passes its own Gram matrix to adjacency_spectral_radius,
        once, rather than the radius rebuilding W and G from the adjacency."""
        g = random_bipartite(np.random.default_rng(76), max_side=8, min_edges=10)
        index = katz_index(adjacency(g), g.n_left)
        seen = []
        real = scoring.adjacency_spectral_radius

        def recorded(*args):
            seen.append(args)
            return real(*args)

        with mock.patch.object(scoring, "adjacency_spectral_radius", recorded):
            blocks = index.blocks
            katz_score(index, 0.01, het_pairs(g))
        assert len(seen) == 1 and len(seen[0]) == 1
        assert seen[0][0] is blocks[1]

    def test_closed_form_matches_dense_resolvent(self):
        """Every left-right pair in both orientations against
        inv(I - beta A) - I, at 1e-12 of the largest |score|: the left side
        smaller, larger and equal, a node on each side with no edge, 0/1 and
        random symmetric weights, and beta at 0.5 and 0.9 of 1 / radius.
        The empty graph scores exactly 0."""
        rng = np.random.default_rng(84)
        for n_left, n_right in ((3, 7), (7, 3), (5, 5)):
            # Left node 0 and right node 0 stay isolated.
            edges = [(u, v) for u in range(1, n_left) for v in range(1, n_right) if rng.random() < 0.6]
            g = build_graph(n_left, n_right, edges)
            a = adjacency(g)
            upper = sp.triu(a).multiply(rng.uniform(0.5, 2.0, size=a.shape))
            pairs = het_pairs(g)
            pairs += [(v, u) for u, v in pairs]
            for matrix in (a, sp.csr_matrix(upper + upper.T)):
                dense = matrix.toarray()
                index = katz_index(matrix, n_left)
                radius = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
                for beta in (0.5 / radius, 0.9 / radius):
                    want = np.linalg.inv(np.eye(g.n) - beta * dense) - np.eye(g.n)
                    with katz_form("closed"):
                        got = katz_score(index, beta, pairs).scores
                    tol = 1e-12 * np.max(np.abs(want))
                    assert np.max(np.abs(got - np.array([want[u, v] for u, v in pairs]))) <= tol
        empty = build_graph(3, 4, [])
        pairs = het_pairs(empty)
        assert not np.any(katz_of(empty, 0.5, pairs + [(v, u) for u, v in pairs]).scores)

    def test_index_rejects_non_bipartite_matrix(self):
        """The closed form holds only for A = [[0, B], [B^T, 0]]; an entry
        inside one side, or a non-square matrix, is refused."""
        with pytest.raises(ValueError, match="inside one side"):
            katz_index(sp.csr_matrix(np.ones((2, 2))), 1)
        with pytest.raises(ValueError, match="not a bipartite adjacency"):
            katz_index(sp.csr_matrix((2, 3)), 1)

    def test_index_checks_n_left(self):
        """``n_left`` is an integer >= 0: the float 18.0 used to build an
        index whose ``n_left`` was a float, and True was read as 1 and then
        failed with the "inside one side" message."""
        g = southern_women_graph()
        with pytest.raises(TypeError, match="n_left must be an integer, got 18.0"):
            katz_index(g.adj, 18.0)
        with pytest.raises(TypeError, match="n_left must be an integer, got True"):
            katz_index(g.adj, True)
        with pytest.raises(ValueError, match="n_left must be >= 0, got -1"):
            katz_index(g.adj, -1)
        with pytest.raises(ValueError, match="not a bipartite adjacency"):
            katz_index(g.adj, g.n + 1)
        assert type(katz_index(g.adj, np.int64(18)).n_left) is int

    def test_closed_form_loads_no_scipy_linalg(self):
        """A closed-form call loads neither scipy.sparse.linalg nor
        scipy.linalg; in a fresh process, since this one may have loaded
        them already."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, bihop\n"
            "g = bihop.generate_bipartite_er(30, 40, 0.2, seed=1)\n"
            "bihop.katz_score(bihop.katz_index(g.adj, g.n_left), 0.01, [(0, 30), (35, 1), (29, 69)])\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"


class TestPairValidation:
    @pytest.mark.parametrize("bad", [(-1, 3), (0, 6), (7, 4)])
    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_out_of_range_pair_rejected(self, kind, bad, toy_graph):
        """An index outside [0, n) raises and names the pair instead of
        wrapping around to another node."""
        z = np.random.default_rng(80).standard_normal((toy_graph.n, 3))
        with pytest.raises(ValueError, match=re.escape(f"pair {bad} is out of range")):
            score_with(kind, toy_graph, z, [(0, 3), bad])

    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_tuple_list_and_array_score_alike(self, kind):
        """A list of int tuples and the (k, 2) int64 array of the same pairs
        give equal scores (both Katz forms); ``pairs`` comes back as a
        read-only int64 view of the array, not a copy."""
        g = random_bipartite(np.random.default_rng(81), max_side=8, min_edges=10)
        z = np.random.default_rng(82).standard_normal((g.n, 3))
        listed = het_pairs(g)
        listed += [(v, u) for u, v in listed[::3]]
        arr = np.array(listed, dtype=np.int64)
        for form in ("closed", "series") if kind is ScorerKind.KATZ else (None,):
            with katz_form(form) if form else nullcontext():
                from_list = scored_with(kind, g, z, listed)
                from_array = scored_with(kind, g, z, arr)
            assert np.array_equal(from_list.scores, from_array.scores)
            for got in (from_list, from_array):
                assert got.pairs.dtype == np.int64 and not got.pairs.flags.writeable
                assert np.array_equal(got.pairs, arr)
            assert np.shares_memory(from_array.pairs, arr) and arr.flags.writeable

    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_pairs_not_shaped_k_by_2_rejected(self, kind, toy_graph):
        """Only a (k, 2) input is read as pairs: a (k, 3) array, a flat list
        or array, or a triple raises instead of being reshaped."""
        z = np.random.default_rng(83).standard_normal((toy_graph.n, 3))
        for bad in (np.zeros((2, 3), dtype=np.int64), [0, 3], np.array([0, 3, 1, 4]), [(0, 3, 1)]):
            with pytest.raises(ValueError, match="at position 0 is not a pair of integers"):
                score_with(kind, toy_graph, z, bad)

    def test_scalar_heuristic_rejects_out_of_range(self, toy_graph):
        with pytest.raises(ValueError, match="out of range"):
            heuristic_one(toy_graph, ScorerKind.COMMON_NEIGHBORS, -1, 3)


@st.composite
def graph_and_batches(draw):
    """A random graph, embeddings, and two lists of heterogeneous pairs in
    either orientation (either list may be empty)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_bipartite(rng, max_side=7)
    z = rng.standard_normal((g.n, 3))
    oriented = st.tuples(st.sampled_from(het_pairs(g)), st.booleans()).map(
        lambda pf: pf[0][::-1] if pf[1] else pf[0]
    )
    pos = draw(st.lists(oriented, max_size=10))
    neg = draw(st.lists(oriented, max_size=10))
    return g, z, pos, neg


class TestBatchInvariance:
    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    @given(case=graph_and_batches())
    def test_together_equals_separately(self, kind, case):
        """Scoring positives and negatives in one call gives the scores of
        two separate calls: exactly for Katz (both forms), the heuristics
        and decode, to 1e-12 relative for the two-hop scorers."""
        g, z, pos, neg = case
        forms = ("closed", "series") if kind is ScorerKind.KATZ else (None,)
        for form in forms:
            with katz_form(form) if form else nullcontext():
                together = score_with(kind, g, z, pos + neg)
                apart = np.concatenate(
                    [score_with(kind, g, z, pos), score_with(kind, g, z, neg)]
                )
            if kind in (ScorerKind.TWO_HOP, ScorerKind.RECON_TWO_HOP):
                assert np.allclose(together, apart, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(together, apart)


@st.composite
def graph_and_pair_lists(draw):
    """A random graph, embeddings, a nonempty list of heterogeneous pairs in
    either orientation, and a list of arbitrary pairs: same-side, self and
    heterogeneous."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_bipartite(rng, max_side=7)
    z = rng.standard_normal((g.n, 3))
    oriented = st.tuples(st.sampled_from(het_pairs(g)), st.booleans()).map(
        lambda pf: pf[0][::-1] if pf[1] else pf[0]
    )
    node = st.integers(0, g.n - 1)
    het = draw(st.lists(oriented, min_size=1, max_size=10))
    anywhere = draw(st.lists(st.tuples(node, node), max_size=10))
    return g, z, het, anywhere


class TestPairOrderSymmetry:
    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    @given(case=graph_and_pair_lists())
    def test_reversed_pairs_score_alike(self, kind, case):
        """Scoring (v, u) gives the bytes of scoring (u, v) for every scorer,
        Katz in both forms.  Katz and the heuristics take heterogeneous pairs
        only; the model scorers also take arbitrary pairs."""
        g, z, het, anywhere = case
        pairs = het if kind in HEURISTIC_KINDS | {ScorerKind.KATZ} else het + anywhere
        reversed_pairs = [(v, u) for u, v in pairs]
        forms = ("closed", "series") if kind is ScorerKind.KATZ else (None,)
        for form in forms:
            with katz_form(form) if form else nullcontext():
                forward = score_with(kind, g, z, pairs)
                backward = score_with(kind, g, z, reversed_pairs)
            assert backward.tobytes() == forward.tobytes()


class TestMonotoneInvariance:
    def test_auc_unchanged_by_increasing_transforms(self):
        """Joint property with the metrics module: AUC depends only on the
        ranking a scorer induces."""
        rng = np.random.default_rng(78)
        g = random_bipartite(rng, max_side=8, min_edges=10)
        z = rng.standard_normal((g.n, 4))
        model = model_for(g, z)
        norm = normalize(g.adj)
        pairs = het_pairs(g)
        scores = two_hop_score(model, norm, pairs).scores
        pos, neg = scores[: len(pairs) // 2], scores[len(pairs) // 2 :]
        base = roc_auc(pos, neg)
        for f in (lambda x: 10.0 * x - 3.0, np.exp, lambda x: x + x**3):
            assert roc_auc(f(pos), f(neg)) == base


class TestScoresCsv:
    def test_header_and_rows(self, tmp_path):
        ps = PairScores(
            pairs=np.array([(0, 3), (1, 4)]),
            scores=np.array([0.25, 0.5]),
            scorer=ScorerKind.TWO_HOP,
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path, labels=[1, 0])
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v,score,scorer,label"
        assert lines[1] == "0,3,0.25,two_hop,1"
        assert lines[2] == "1,4,0.5,two_hop,0"

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([0.7, 0], r"labels\[0\] must be 0 or 1, got 0.7"),
            ([1, 1.9], r"labels\[1\] must be 0 or 1, got 1.9"),
            ([2, 0], r"labels\[0\] must be 0 or 1, got 2"),
            (["1", 0], r"labels\[0\] must be 0 or 1, got '1'"),
            ([1], "labels has 1 entries for 2 pairs"),
            ([1, 0, 1], "labels has 3 entries for 2 pairs"),
        ],
        ids=["fraction", "above_one", "two", "string", "short", "long"],
    )
    def test_bad_labels_rejected_before_writing(self, tmp_path, labels, match):
        """0.7 and 1.9 used to be written as 0 and 1, 2 as 2, a short list
        failed after the header and a row were on disk, and extra labels
        were dropped."""
        ps = PairScores(pairs=np.array([(0, 3), (1, 4)]), scores=np.array([0.25, 0.5]), scorer=ScorerKind.KATZ)
        path = tmp_path / "scores.csv"
        with pytest.raises(ValueError, match=match):
            write_scores_csv(ps, path, labels=labels)
        assert not path.exists()

    def test_numeric_zero_one_labels_accepted(self, tmp_path):
        ps = PairScores(pairs=np.array([(0, 3), (1, 4)]), scores=np.array([0.25, 0.5]), scorer=ScorerKind.KATZ)
        for labels in (np.array([1, 0]), [1.0, 0.0], np.array([True, False])):
            write_scores_csv(ps, tmp_path / "scores.csv", labels=labels)
            rows = (tmp_path / "scores.csv").read_text().splitlines()[1:]
            assert [row.rsplit(",", 1)[1] for row in rows] == ["1", "0"]

    def test_labels_optional(self, tmp_path):
        ps = PairScores(
            pairs=np.array([(2, 5)]), scores=np.array([1.0]), scorer=ScorerKind.KATZ
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path)
        assert path.read_text().splitlines()[1] == "2,5,1.0,katz,"

    def test_round_trip_precision(self, tmp_path):
        value = 0.12345678901234567
        ps = PairScores(
            pairs=np.array([(0, 1)]), scorer=ScorerKind.LGAE, scores=np.array([value])
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path)
        text = path.read_text().splitlines()[1].split(",")[2]
        assert float(text) == value
