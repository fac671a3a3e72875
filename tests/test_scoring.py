"""Pair scorers against dense oracles and hand-worked cases.

The two-hop scorer is checked three ways: closed forms on constant inputs,
a literal path-sum decomposition on a six-node graph, and agreement with the
explicit An @ R matrix on random instances (the acceptance suite scales the
latter up to 100 graphs).  The batched Katz series and the indexed
heuristics are checked bit for bit against the per-pair loops they
replaced, and every scorer is checked to give the same scores whether a
pair list is scored at once or in pieces.
"""

import math
import re
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from bihop import scoring

from bihop.autoencoder import EmbeddingModel, ModelKind
from bihop.data import generate_bipartite_er
from bihop.graph import adjacency, build_graph, normalized_adjacency
from bihop.metrics import roc_auc
from bihop.scoring import (
    HEURISTIC_KINDS,
    MODEL_KINDS,
    PairScores,
    ScorerKind,
    adjacency_spectral_radius,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
    write_scores_csv,
)

from conftest import random_bipartite


def model_for(g, z):
    return EmbeddingModel(
        Z=np.asarray(z, dtype=np.float64),
        model_kind=ModelKind.LGAE,
        weights=(np.zeros((g.n, z.shape[1])),),
        loss_history=np.zeros(1),
    )


def het_pairs(g):
    return [(u, g.n_left + v) for u in range(g.n_left) for v in range(g.n_right)]


def dense_two_hop_oracle(g, z, us, vs):
    an = normalized_adjacency(g).matrix.toarray()
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


def heuristic_loop(g, kind, pairs):
    """The per-pair set code the shared heuristic index replaced: N(u)
    rebuilt for every pair, N2(v) built once per call, degrees read per
    intermediate node.  Pairs must be heterogeneous and in range."""

    def two_step(v):
        out = set()
        for a in g.neighbors[v]:
            out.update(g.neighbors[a].tolist())
        return out

    cache = {}
    out = []
    for u, v in pairs:
        u, v = (u, v) if u < g.n_left else (v, u)
        if kind is ScorerKind.PREFERENTIAL_ATTACHMENT:
            out.append(float(g.degree(u) * g.degree(v)))
            continue
        if v not in cache:
            cache[v] = two_step(v)
        n2 = cache[v]
        nu = set(g.neighbors[u].tolist())
        common = nu & n2
        if kind is ScorerKind.COMMON_NEIGHBORS:
            out.append(float(len(common)))
        elif kind is ScorerKind.JACCARD:
            union = len(nu | n2)
            out.append(len(common) / union if union else 0.0)
        elif kind is ScorerKind.ADAMIC_ADAR:
            out.append(float(sum(1.0 / math.log(g.degree(b)) for b in common if g.degree(b) >= 2)))
        else:
            out.append(float(sum(1.0 / g.degree(b) for b in common)))
    return np.array(out, dtype=np.float64)


def heuristic_one(g, kind, u, v):
    """One pair's heuristic score, through the batched call."""
    return heuristic_scores(heuristic_index(g), kind, [(u, v)]).scores[0]


# DENSE_THRESHOLD values that make katz_score take one form whatever the
# graph size.
KATZ_THRESHOLDS = {"closed": 1 << 62, "series": -1}


def katz_form(form):
    """Patch scoring.DENSE_THRESHOLD so katz_score takes ``form``; a context
    manager, so it also holds inside one hypothesis example."""
    return mock.patch.object(scoring, "DENSE_THRESHOLD", KATZ_THRESHOLDS[form])


def score_with(kind, g, z, pairs):
    """Scores of ``pairs`` from one call of the scorer behind ``kind``."""
    model = model_for(g, z)
    if kind is ScorerKind.TWO_HOP:
        return two_hop_score(model, normalized_adjacency(g), pairs).scores
    if kind is ScorerKind.RECON_TWO_HOP:
        return recon_two_hop_score(model, pairs).scores
    if kind in (ScorerKind.LGAE, ScorerKind.GAE):
        return decode_score(model, pairs, kind=kind).scores
    if kind is ScorerKind.KATZ:
        return katz_score(adjacency(g), 0.05, pairs).scores
    return heuristic_scores(heuristic_index(g), kind, pairs).scores


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
        assert HEURISTIC_KINDS | MODEL_KINDS | {ScorerKind.KATZ} == set(ScorerKind)
        assert not HEURISTIC_KINDS & MODEL_KINDS


class TestTwoHop:
    def test_single_edge_zero_embedding_gives_half(self, single_edge_graph):
        """An is the all-half matrix and so is the reconstruction, so each
        two-hop entry is 0.25 + 0.25 = 0.5."""
        g = single_edge_graph
        model = model_for(g, np.zeros((2, 3)))
        norm = normalized_adjacency(g)
        got = two_hop_score(model, norm, [(0, 1), (1, 0), (0, 0)])
        assert got.scores.tolist() == [0.5, 0.5, 0.5]

    def test_path_sum_decomposition(self):
        """Six nodes, score(0, 5) decomposes into the four length-2 path
        terms through the trained similarity plus the two self-loop terms."""
        g = build_graph(3, 3, [(0, 0), (0, 1), (1, 2), (2, 2)])
        rng = np.random.default_rng(60)
        z = rng.standard_normal((6, 4))
        model = model_for(g, z)
        norm = normalized_adjacency(g)
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
            norm = normalized_adjacency(g)
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
        got = two_hop_score(model_for(g, z), normalized_adjacency(g), pairs).scores
        arr = np.asarray(pairs)
        want = dense_two_hop_oracle(g, z, arr[:, 0], arr[:, 1])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(63)
        g = random_bipartite(rng)
        z = rng.standard_normal((g.n, 3))
        model = model_for(g, z)
        norm = normalized_adjacency(g)
        fwd = two_hop_score(model, norm, [(0, g.n - 1)]).scores[0]
        rev = two_hop_score(model, norm, [(g.n - 1, 0)]).scores[0]
        assert fwd == rev
        all_scores = two_hop_score(model, norm, het_pairs(g)).scores
        assert np.all(all_scores >= 0.0)

    def test_model_size_mismatch(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((7, 2)))
        with pytest.raises(ValueError, match="embeddings"):
            two_hop_score(model, normalized_adjacency(g), [(0, 2)])

    def test_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((4, 2)))
        got = two_hop_score(model, normalized_adjacency(g), [])
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
        homogeneous pair as given."""
        g = build_graph(3, 3, [(0, 0)])
        index = heuristic_index(g)
        with pytest.raises(ValueError, match=re.escape("pair (0, 1) is homogeneous")):
            heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, 0, 1)
        with pytest.raises(ValueError, match=re.escape("pair (3, 5) is homogeneous")):
            heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 3, 5)
        for kind in HEURISTIC_KINDS:
            with pytest.raises(ValueError, match=re.escape("pair (5, 4) is homogeneous")):
                heuristic_scores(index, kind, [(0, 3), (4, 1), (5, 4), (0, 1)])

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
        terms = index.aa_terms
        ascending = [
            sum(terms[b] for b in sorted(index.neighbor_sets[u] & index.two_step(v))) for u, v in pairs
        ]
        assert not np.array_equal(heuristic_scores(index, ScorerKind.ADAMIC_ADAR, pairs).scores, ascending)


class TestKatz:
    def test_single_edge_closed_form(self):
        g = build_graph(1, 1, [(0, 0)])
        got = katz_score(adjacency(g), 0.5, [(0, 1)]).scores[0]
        # geometric series over odd walk lengths: beta / (1 - beta^2)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_small_beta_first_order_limit(self):
        rng = np.random.default_rng(74)
        g = random_bipartite(rng, max_side=6)
        a = adjacency(g)
        beta = 1e-8
        pairs = het_pairs(g)
        got = katz_score(a, beta, pairs).scores / beta
        want = np.array([a[u, v] for u, v in pairs])
        assert np.allclose(got, want, rtol=0, atol=1e-6)

    def test_truncated_series_approaches_closed_form(self):
        rng = np.random.default_rng(75)
        g = random_bipartite(rng, max_side=5, min_edges=6)
        a = adjacency(g)
        pairs = het_pairs(g)
        with katz_form("closed"):
            closed = katz_score(a, 0.05, pairs).scores
        with katz_form("series"):
            series = katz_score(a, 0.05, pairs, series_terms=25).scores
        denom = np.maximum(np.abs(closed), 1e-30)
        assert np.max(np.abs(series - closed) / denom) <= 1e-8

    def test_five_term_series_is_degree_five_polynomial(self):
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with katz_form("series"):
            got = katz_score(adjacency(g), beta, [(0, 1)], series_terms=5).scores[0]
        assert got == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)

    def test_beta_beyond_radius_rejected_in_dense_mode(self):
        g = build_graph(1, 1, [(0, 0)])  # spectral radius exactly 1
        with katz_form("closed"), pytest.raises(ValueError, match="diverges"):
            katz_score(adjacency(g), 1.5, [(0, 1)])

    def test_series_mode_tolerates_large_beta(self):
        g = build_graph(1, 1, [(0, 0)])
        with katz_form("series"):
            got = katz_score(adjacency(g), 1.5, [(0, 1)], series_terms=3).scores[0]
        assert got == pytest.approx(1.5 + 1.5**3, rel=1e-14)

    def test_graph_size_picks_the_form(self):
        """The closed form runs up to DENSE_THRESHOLD nodes inclusive, the
        series above it; on one edge they give beta / (1 - beta^2) and
        beta + beta^3 + beta^5."""
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n):
            closed = katz_score(adjacency(g), beta, [(0, 1)]).scores[0]
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n - 1):
            series = katz_score(adjacency(g), beta, [(0, 1)]).scores[0]
        assert closed == pytest.approx(beta / (1 - beta**2), rel=1e-14)
        assert series == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)
        assert scoring.DENSE_THRESHOLD == 4096

    def test_nonpositive_beta_rejected(self):
        g = build_graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="positive"):
            katz_score(adjacency(g), 0.0, [(0, 1)])

    def test_symmetry(self):
        rng = np.random.default_rng(76)
        g = random_bipartite(rng, max_side=6)
        a = adjacency(g)
        fwd = katz_score(a, 0.03, [(0, g.n - 1)]).scores[0]
        rev = katz_score(a, 0.03, [(g.n - 1, 0)]).scores[0]
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_series_bit_identical_to_per_pair_loop(self):
        """More unique targets than one column chunk, repeated targets and
        both pair orientations: every score equals the per-pair walk."""
        rng = np.random.default_rng(79)
        for n_left, n_right in ((150, 170), (40, 30)):
            edges = [
                (u, v) for u in range(n_left) for v in range(n_right) if rng.random() < 0.03
            ]
            g = build_graph(n_left, n_right, edges)
            a = adjacency(g)
            # Random symmetric weights make the sum's rounding depend on its
            # order, so a reordered accumulation shows up as a mismatch.
            upper = sp.triu(a).multiply(rng.uniform(0.5, 2.0, size=a.shape))
            weighted = sp.csr_matrix(upper + upper.T)
            targets = np.concatenate([np.arange(g.n), rng.integers(0, g.n, size=50)])
            pairs = [(int(rng.integers(g.n)), int(v)) for v in targets]
            pairs += [(v, u) for u, v in pairs[:60]]
            if n_left == 150:
                assert len({v for _, v in pairs}) > scoring._KATZ_COLUMNS
            for matrix, beta in ((a, 0.05), (weighted, 0.3)):
                for terms in (1, 5):
                    with katz_form("series"):
                        got = katz_score(matrix, beta, pairs, series_terms=terms).scores
                    assert np.array_equal(got, katz_series_loop(matrix, beta, pairs, terms))

    def test_series_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        with katz_form("series"):
            got = katz_score(adjacency(g), 0.1, [])
        assert got.scores.shape == (0,)
        assert got.pairs == ()

    def test_spectral_radius_small_and_large_paths_agree(self):
        rng = np.random.default_rng(77)
        g = random_bipartite(rng, max_side=8, min_edges=10)
        a = adjacency(g)
        small = adjacency_spectral_radius(a)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(a.toarray()))))
        assert small == pytest.approx(dense, rel=1e-10)

    def test_empty_graph_radius_zero(self):
        g = build_graph(3, 3, [])
        assert adjacency_spectral_radius(adjacency(g)) == 0.0


class TestPairValidation:
    @pytest.mark.parametrize("bad", [(-1, 3), (0, 6), (7, 4)])
    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_out_of_range_pair_rejected(self, kind, bad, toy_graph):
        """An index outside [0, n) raises and names the pair instead of
        wrapping around to another node."""
        z = np.random.default_rng(80).standard_normal((toy_graph.n, 3))
        with pytest.raises(ValueError, match=re.escape(f"pair {bad} is out of range")):
            score_with(kind, toy_graph, z, [(0, 3), bad])

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


class TestMonotoneInvariance:
    def test_auc_unchanged_by_increasing_transforms(self):
        """Joint property with the metrics module: AUC depends only on the
        ranking a scorer induces."""
        rng = np.random.default_rng(78)
        g = random_bipartite(rng, max_side=8, min_edges=10)
        z = rng.standard_normal((g.n, 4))
        model = model_for(g, z)
        norm = normalized_adjacency(g)
        pairs = het_pairs(g)
        scores = two_hop_score(model, norm, pairs).scores
        pos, neg = scores[: len(pairs) // 2], scores[len(pairs) // 2 :]
        base = roc_auc(pos, neg)
        for f in (lambda x: 10.0 * x - 3.0, np.exp, lambda x: x + x**3):
            assert roc_auc(f(pos), f(neg)) == base


class TestScoresCsv:
    def test_header_and_rows(self, tmp_path):
        ps = PairScores(
            pairs=((0, 3), (1, 4)),
            scores=np.array([0.25, 0.5]),
            scorer=ScorerKind.TWO_HOP,
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path, labels=[1, 0])
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v,score,scorer,label"
        assert lines[1] == "0,3,0.25,two_hop,1"
        assert lines[2] == "1,4,0.5,two_hop,0"

    def test_labels_optional(self, tmp_path):
        ps = PairScores(
            pairs=((2, 5),), scores=np.array([1.0]), scorer=ScorerKind.KATZ
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path)
        assert path.read_text().splitlines()[1] == "2,5,1.0,katz,"

    def test_round_trip_precision(self, tmp_path):
        value = 0.12345678901234567
        ps = PairScores(
            pairs=((0, 1),), scorer=ScorerKind.LGAE, scores=np.array([value])
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(ps, path)
        text = path.read_text().splitlines()[1].split(",")[2]
        assert float(text) == value
