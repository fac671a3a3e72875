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
from bihop.data import generate_bipartite_er
from bihop.graph import GraphInputError, adjacency, build_graph, normalize
from bihop.harness import DEFAULT_RATIOS, SCORER_MODELS
from bihop.metrics import roc_auc
from bihop.scoring import (
    HEURISTIC_KINDS,
    KatzIndex,
    ScorerKind,
    adjacency_spectral_radius,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_index,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
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
    """Every (left, right) pair of ``g``, left-major."""
    return [(u, v) for u in range(g.n_left) for v in range(g.n_right)]


def global_pairs(g, pairs):
    """The (u, n_left + v) rows of local ``pairs``: where the n x n oracles
    and the embedding matrix index them."""
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2) + (0, g.n_left)


def swap_sides(g, z):
    """``g`` with its sides swapped, and ``z``'s rows in the swapped graph's
    node order: local pair (u, v) of ``g`` is (v, u) there."""
    swapped = build_graph(g.n_right, g.n_left, g.edges[:, ::-1])
    return swapped, np.concatenate([z[g.n_left :], z[: g.n_left]])


def recon_chunk_sums(z, pairs):
    """Per chunk of ``_PAIR_CHUNK`` global ``pairs``, the axis-0 sum of the
    product of the two full n-row sigmoid columns: the form
    ``recon_two_hop_score`` reproduces byte for byte.  Byte equality needs
    the package's own sigmoid; the tolerance oracles keep scipy's
    ``expit``."""
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
    for a in g.adj[v].indices:
        out.update(g.adj[a].indices.tolist())
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
    intermediate node.  Pairs must be local and in range."""
    cache = {}
    out = []
    deg = g.degrees()
    for u, v in pairs:
        v += g.n_left
        if kind is ScorerKind.PREFERENTIAL_ATTACHMENT:
            out.append(float(deg[u] * deg[v]))
            continue
        if v not in cache:
            cache[v] = two_step_loop(g, v)
        n2 = cache[v]
        nu = set(g.adj[u].indices.tolist())
        common = nu & n2
        if kind is ScorerKind.COMMON_NEIGHBORS:
            out.append(float(len(common)))
        elif kind is ScorerKind.JACCARD:
            union = len(nu | n2)
            out.append(len(common) / union if union else 0.0)
        elif kind is ScorerKind.ADAMIC_ADAR:
            out.append(fold(1.0 / math.log(deg[b]) for b in common if deg[b] >= 2))
        else:
            out.append(fold(1.0 / deg[b] for b in common))
    return np.array(out, dtype=np.float64)


def heuristic_one(g, kind, u, v):
    """One pair's heuristic score, through the batched call."""
    return heuristic_scores(heuristic_index(g), kind, [(u, v)])[0]


def katz_of(g, beta, pairs):
    """Katz scores of ``pairs`` on ``g``'s adjacency, from a fresh index."""
    return katz_score(katz_index(g), beta, pairs)


def katz_terms(terms):
    """Patch scoring._KATZ_TERMS, the series length L katz_score reads at
    call time."""
    return mock.patch.object(scoring, "_KATZ_TERMS", terms)


def scorer_for(kind, g, z):
    """The scorer behind ``kind`` on ``g`` with embeddings ``z``, as a
    function of the pairs; its model and index are built once, so every
    call of the function shares them."""
    model = model_for(g, z)
    if kind is ScorerKind.TWO_HOP:
        norm = normalize(g.adj)
        return lambda pairs: two_hop_score(model, norm, g.n_left, pairs)
    if kind is ScorerKind.RECON_TWO_HOP:
        return lambda pairs: recon_two_hop_score(model, g.n_left, pairs)
    if kind in (ScorerKind.LGAE, ScorerKind.GAE):
        return lambda pairs: decode_score(model, g.n_left, pairs, kind=kind)
    if kind is ScorerKind.KATZ:
        index = katz_index(g)
        return lambda pairs: katz_score(index, 0.05, pairs)
    index = heuristic_index(g)
    return lambda pairs: heuristic_scores(index, kind, pairs)


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
        got = two_hop_score(model, norm, g.n_left, [(0, 0)])
        assert got.tolist() == [0.5]

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
        u, v = 0, 5  # global ends of the local pair (0, 2)
        want = 0.5 * (
            an[u, 3] * dec(3, v)
            + an[u, 4] * dec(4, v)
            + an[u, u] * dec(u, v)
            + an[v, 1] * dec(1, u)
            + an[v, 2] * dec(2, u)
            + an[v, v] * dec(v, u)
        )
        got = two_hop_score(model, norm, g.n_left, [(0, 2)])[0]
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
            got = two_hop_score(model, norm, g.n_left, pairs)
            want = dense_two_hop_oracle(g, z, *global_pairs(g, pairs).T)
            denom = np.maximum(np.abs(want), 1e-30)
            assert np.max(np.abs(got - want) / denom) <= 1e-10

    def test_gather_chunk_boundaries(self, monkeypatch):
        """A gather budget that allows one pair per chunk still matches the
        oracle over every left-right pair."""
        rng = np.random.default_rng(62)
        g = random_bipartite(rng, max_side=12)
        z = rng.standard_normal((g.n, 4))
        pairs = het_pairs(g)
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", 5)
        got = two_hop_score(model_for(g, z), normalize(g.adj), g.n_left, pairs)
        want = dense_two_hop_oracle(g, z, *global_pairs(g, pairs).T)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_symmetric_and_nonnegative(self):
        """Pair (u, v) scores as (v, u) does on the graph with its sides
        swapped (to 1e-12: An's rows list a node's self-loop on the other
        side of its neighbours there), and no score is negative."""
        rng = np.random.default_rng(63)
        g = random_bipartite(rng)
        z = rng.standard_normal((g.n, 3))
        swapped, z_swapped = swap_sides(g, z)
        fwd = two_hop_score(model_for(g, z), normalize(g.adj), g.n_left, het_pairs(g))
        rev = two_hop_score(
            model_for(swapped, z_swapped), normalize(swapped.adj), swapped.n_left, [(v, u) for u, v in het_pairs(g)]
        )
        assert np.allclose(fwd, rev, rtol=1e-12, atol=0)
        assert np.all(fwd >= 0.0)

    def test_model_size_mismatch(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((7, 2)))
        with pytest.raises(ValueError, match="embeddings"):
            two_hop_score(model, normalize(g.adj), g.n_left, [(0, 0)])

    def test_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        model = model_for(g, np.zeros((4, 2)))
        got = two_hop_score(model, normalize(g.adj), g.n_left, [])
        assert got.shape == (0,)


class TestReconTwoHop:
    def test_zero_embedding_gives_quarter_n(self):
        """R is the all-half matrix, so each entry of R @ R is n/4."""
        for n_left, n_right in [(2, 3), (4, 4), (1, 6)]:
            g = build_graph(n_left, n_right, [(0, 0)])
            model = model_for(g, np.zeros((g.n, 2)))
            got = recon_two_hop_score(model, g.n_left, [(0, 0)])[0]
            assert got == pytest.approx(g.n / 4.0, rel=1e-14)

    def test_symmetry(self):
        """Pair (u, v) scores as (v, u) does on the graph with its sides
        swapped, to 1e-12: the sum runs over Z's rows in another order."""
        rng = np.random.default_rng(64)
        z = rng.standard_normal((9, 3))
        g = build_graph(4, 5, [(0, 0)])
        swapped, z_swapped = swap_sides(g, z)
        fwd = recon_two_hop_score(model_for(g, z), g.n_left, [(1, 3)])[0]
        rev = recon_two_hop_score(model_for(swapped, z_swapped), swapped.n_left, [(3, 1)])[0]
        assert fwd == pytest.approx(rev, rel=1e-12)

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
            got = recon_two_hop_score(model, g.n_left, pairs)
            recon = expit(z @ z.T)
            want = (recon @ recon)[tuple(global_pairs(g, pairs).T)]
            denom = np.maximum(np.abs(want), 1e-30)
            assert np.max(np.abs(got - want) / denom) <= 1e-10

    def test_lazy_chunking_boundary(self):
        """More pairs than one chunk still matches the explicit R @ R."""
        rng = np.random.default_rng(66)
        g = build_graph(20, 20, [(i, i) for i in range(20)])
        z = rng.standard_normal((40, 3))
        model = model_for(g, z)
        pairs = het_pairs(g)  # 400 pairs > the 256-pair chunk
        got = recon_two_hop_score(model, g.n_left, pairs)
        recon = expit(z @ z.T)
        want = (recon @ recon)[tuple(global_pairs(g, pairs).T)]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_chunks_match_spelled_out_products(self):
        """Over more pairs than one chunk, every score equals the chunk's
        sum of the two sigmoid columns' product, byte for byte."""
        rng = np.random.default_rng(67)
        g = build_graph(20, 25, [(i, i) for i in range(20)])
        z = rng.standard_normal((g.n, 3))
        pairs = np.asarray(het_pairs(g))  # 500 pairs > the 256-pair chunk
        assert len(pairs) > scoring._PAIR_CHUNK
        got = recon_two_hop_score(model_for(g, z), g.n_left, pairs)
        assert np.array_equal(got, recon_chunk_sums(z, global_pairs(g, pairs)))

    @pytest.mark.parametrize("n_left, n_right, k", [(350, 350, 600), (256, 257, 513)])
    def test_row_blocks_match_full_columns(self, n_left, n_right, k):
        """Z's rows are walked in blocks: 256 + 256 + 188 rows at n = 700,
        and at n = 513 the lone last row joins the block before it.  With
        k = 513 the last chunk holds one pair and takes all rows at once.
        Every score equals its chunk's full-column sum byte for byte."""
        rng = np.random.default_rng(68)
        g = build_graph(n_left, n_right, [(0, 0)])
        z = rng.standard_normal((g.n, 16))
        pairs = np.column_stack([rng.integers(0, n_left, k), rng.integers(0, n_right, k)])
        assert g.n > scoring._GATHER_ENTRIES // scoring._PAIR_CHUNK
        got = recon_two_hop_score(model_for(g, z), g.n_left, pairs)
        assert np.array_equal(got, recon_chunk_sums(z, global_pairs(g, pairs)))

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
        got = recon_two_hop_score(model_for(g, z), g.n_left, pairs)
        assert np.array_equal(got, recon_chunk_sums(z, global_pairs(g, pairs)))

    def test_one_call_keeps_row_block_memory(self):
        """A call on a 4200 x 16 model holds 256 x 256 blocks, not the two
        4200 x 256 columns of R (8.2 MiB each) of every chunk."""
        rng = np.random.default_rng(70)
        z = rng.standard_normal((4200, 16))
        model = EmbeddingModel(
            Z=z, model_kind=ModelKind.LGAE, weights=(z,), loss_history=np.zeros(1)
        )
        pairs = rng.integers(0, 2100, size=(2100, 2))
        tracemalloc.start()
        try:
            recon_two_hop_score(model, 2100, pairs)
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
        got = decode_score(model, g.n_left, pairs)
        us, vs = global_pairs(g, pairs).T
        want = expit(np.einsum("ij,ij->i", z[us], z[vs]))
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_kind_override(self):
        g = build_graph(1, 1, [(0, 0)])
        model = model_for(g, np.zeros((2, 2)))
        got = decode_score(model, g.n_left, [(0, 0)], kind=ScorerKind.GAE)
        assert got[0] == 0.5


class TestHeuristics:
    def test_preferential_attachment_product(self):
        # deg(u) = 2 and deg(v) = 3 multiply to 6
        g = build_graph(3, 3, [(0, 0), (0, 1), (1, 0), (2, 0)])
        assert heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 0, 0) == 6.0
        # right node 2 is isolated, so any product with it is zero
        assert heuristic_one(g, ScorerKind.PREFERENTIAL_ATTACHMENT, 1, 2) == 0.0

    def test_common_neighbors_on_chain(self):
        """Chain u - b1 - a1 - v: the single length-3 path contributes one
        common neighbor (b1)."""
        # left: u=0, a1=1; right: b1=0, v=1
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        assert heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, 0, 1) == 1.0

    def test_common_neighbors_no_path(self):
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        assert heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, 0, 1) == 0.0

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
                    v = g.n_left + vl
                    has_path = any(
                        g.adj[a, b] and g.adj[a, v]
                        for b in g.adj[u].indices.tolist()
                        for a in range(g.n_left)
                    )
                    cn = heuristic_one(g, ScorerKind.COMMON_NEIGHBORS, u, vl)
                    if has_path:
                        assert cn > 0
                    else:
                        for kind in kinds:
                            assert heuristic_one(g, kind, u, vl) == 0.0

    def test_resource_allocation_path_oracle(self):
        """RA equals the sum of 1/deg(b) over intermediates adjacent to u."""
        rng = np.random.default_rng(69)
        for _ in range(20):
            g = random_bipartite(rng, max_side=6)
            deg = g.degrees()
            for u in range(g.n_left):
                for vl in range(g.n_right):
                    v = g.n_left + vl
                    intermediates = {
                        b
                        for b in g.adj[u].indices.tolist()
                        for a in range(g.n_left)
                        if g.adj[a, b] and g.adj[a, v]
                    }
                    want = sum(1.0 / deg[b] for b in intermediates)
                    got = heuristic_one(g, ScorerKind.RESOURCE_ALLOCATION, u, vl)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_adamic_adar_skips_degree_one(self):
        # path u - b1 - a1 - v with deg(b1) = 2: AA = 1/ln 2;
        # rewire so the only intermediate has degree 1: AA = 0
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        got = heuristic_one(g, ScorerKind.ADAMIC_ADAR, 0, 1)
        assert got == pytest.approx(1.0 / np.log(2.0), rel=1e-14)
        # u - b1, a1 - b2, a1 - v: u's only neighbor b1 has degree 1 and no
        # second hop, so C is empty anyway; build the degree-1 intermediate
        # case via a 3x3 graph instead
        g2 = build_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        # pair (0, right 1): C = {right 0 or right 2}? enumerate by hand:
        # N(0) = {r0, r2}; N2(r1) = N(1) u N(2) = {r0, r1, r2}; C = {r0, r2},
        # deg(r0) = 2, deg(r2) = 2 -> AA = 2 / ln 2
        got2 = heuristic_one(g2, ScorerKind.ADAMIC_ADAR, 0, 1)
        assert got2 == pytest.approx(2.0 / np.log(2.0), rel=1e-14)

    def test_jaccard_range_and_value(self):
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        # N(u) = {b1}; N2(v) = N(a1) = {b1, v}: intersection 1, union 2
        got = heuristic_one(g, ScorerKind.JACCARD, 0, 1)
        assert got == 0.5
        rng = np.random.default_rng(70)
        for _ in range(10):
            gg = random_bipartite(rng, max_side=6)
            scores = heuristic_scores(heuristic_index(gg), ScorerKind.JACCARD, het_pairs(gg))
            assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_non_heuristic_kind_rejected(self):
        g = build_graph(2, 2, [(0, 0)])
        for kind in set(ScorerKind) - HEURISTIC_KINDS:
            with pytest.raises(ValueError, match="not a heuristic"):
                heuristic_scores(heuristic_index(g), kind, [(0, 0)])
            with pytest.raises(ValueError, match="not a heuristic"):
                heuristic_scores(heuristic_index(g), kind, [])

    def test_integer_count_for_common_neighbors(self):
        rng = np.random.default_rng(72)
        g = random_bipartite(rng, max_side=7)
        scores = heuristic_scores(heuristic_index(g), ScorerKind.COMMON_NEIGHBORS, het_pairs(g))
        assert np.array_equal(scores, np.round(scores))
        assert np.all(scores >= 0)

    @given(case=st.data())
    def test_matches_per_pair_oracle(self, case):
        """All five indices equal the per-pair loop bit for bit.  Each graph
        has an isolated node on both sides and a degree-1 right node, and
        pairs repeat endpoints and whole pairs."""
        n_left = case.draw(st.integers(1, 6))
        n_right = case.draw(st.integers(1, 6))
        edges = case.draw(
            st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)), max_size=24)
        )
        # left n_left and right n_right + 1 isolated; right n_right hangs off left 0
        g = build_graph(n_left + 1, n_right + 2, edges + [(0, n_right)])
        pairs = case.draw(st.lists(st.sampled_from(het_pairs(g)), min_size=1, max_size=30))
        pairs = pairs + pairs[: len(pairs) // 2]
        index = heuristic_index(g)
        for kind in HEURISTIC_KINDS:
            got = heuristic_scores(index, kind, pairs)
            assert np.array_equal(got, heuristic_loop(g, kind, pairs)), kind

    def test_sums_keep_set_order_on_a_larger_graph(self):
        """On sets large enough that iteration order is not ascending, aa and
        ra still equal the per-pair loop bit for bit, while an ascending-order
        sum differs for some pair: the check sees the order of the sums."""
        g = generate_bipartite_er(60, 110, 0.3, seed=3)
        index = heuristic_index(g)
        pairs = het_pairs(g)[::7]
        for kind in (ScorerKind.ADAMIC_ADAR, ScorerKind.RESOURCE_ALLOCATION):
            got = heuristic_scores(index, kind, pairs)
            assert np.array_equal(got, heuristic_loop(g, kind, pairs)), kind
        terms, lists = index.aa_terms, index.neighbor_lists
        ascending = [
            fold(terms[b] for b in sorted(index.neighbor_sets[u] & scoring._two_step_neighborhood(lists, g.n_left + v)))
            for u, v in pairs
        ]
        assert not np.array_equal(heuristic_scores(index, ScorerKind.ADAMIC_ADAR, pairs), ascending)

    def test_sums_are_left_to_right_folds(self):
        """aa and ra add their terms left to right in C's order, on every
        Python version: they equal the plain fold and, for some pair, differ
        from the compensated sum that builtin sum() uses from Python 3.12."""
        g = generate_bipartite_er(60, 110, 0.3, seed=3)
        index = heuristic_index(g)
        pairs = het_pairs(g)[::7]
        commons = [
            index.neighbor_sets[u] & scoring._two_step_neighborhood(index.neighbor_lists, v)
            for u, v in global_pairs(g, pairs).tolist()
        ]
        for kind, terms in (
            (ScorerKind.ADAMIC_ADAR, index.aa_terms), (ScorerKind.RESOURCE_ALLOCATION, index.ra_terms)
        ):
            got = heuristic_scores(index, kind, pairs)
            assert got.tobytes() == np.array([fold(terms[b] for b in c) for c in commons]).tobytes(), kind
        compensated = [neumaier(index.aa_terms[b] for b in c) for c in commons]
        assert not np.array_equal(heuristic_scores(index, ScorerKind.ADAMIC_ADAR, pairs), compensated)

    def test_folds_in_bounded_pieces(self, monkeypatch):
        """With a gather bound of a few entries one batch folds many times,
        each fold at a pair's end; aa and ra still equal the per-pair loop
        and the default bound's scores byte for byte.  The batch holds a
        pair with an empty C (its right node is isolated) and a pair listed
        twice."""
        er = generate_bipartite_er(60, 110, 0.3, seed=3)
        g = build_graph(er.n_left, er.n_right + 1, er.edges)
        isolated = g.n - 1
        pairs = het_pairs(g)[::37] + [(5, g.n_right - 1), (0, 4), (0, 4)]
        index = heuristic_index(g)
        assert index.degrees[isolated] == 0
        kinds = (ScorerKind.ADAMIC_ADAR, ScorerKind.RESOURCE_ALLOCATION)
        default = [heuristic_scores(index, kind, pairs) for kind in kinds]
        monkeypatch.setattr(scoring, "_GATHER_ENTRIES", 3)
        for kind, want in zip(kinds, default):
            got = heuristic_scores(heuristic_index(g), kind, pairs)
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
            fresh = heuristic_scores(heuristic_index(g), kind, pairs)
            assert fresh.tobytes() == heuristic_loop(g, kind, pairs).tobytes(), kind
            # The tail is scored before the head, then the whole list again.
            tail = heuristic_scores(shared, kind, pairs[cut:])
            head = heuristic_scores(shared, kind, pairs[:cut])
            assert np.concatenate([head, tail]).tobytes() == fresh.tobytes(), kind
            assert heuristic_scores(shared, kind, pairs).tobytes() == fresh.tobytes(), kind

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
                fresh = heuristic_scores(heuristic_index(g), kind, batch)
                assert heuristic_scores(shared, kind, batch).tobytes() == fresh.tobytes(), kind
        assert len(shared.commons) == 1

    def test_one_call_holds_one_two_step_set_at_a_time(self):
        """A cn call on the 600 x 1070 ER graph's test pairs (1,070 targets,
        N2 sets of about 870 nodes) keeps four numbers per pair, not every
        N2(v) it built: those sets alone are about 35 MB."""
        g = generate_bipartite_er(600, 1070, 0.063, seed=3)
        split = split_edges(g, DEFAULT_RATIOS, 0)
        index = heuristic_index(train_graph(g, split))
        pairs = np.concatenate([split.test_pos, split.test_neg])
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
        got = katz_of(g, 0.5, [(0, 0)])[0]
        # geometric series over odd walk lengths: beta / (1 - beta^2)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_small_beta_first_order_limit(self):
        rng = np.random.default_rng(74)
        g = random_bipartite(rng, max_side=6)
        a = adjacency(g)
        beta = 1e-8
        pairs = het_pairs(g)
        got = katz_of(g, beta, pairs) / beta
        want = np.array([a[u, v] for u, v in global_pairs(g, pairs)])
        assert np.allclose(got, want, rtol=0, atol=1e-6)

    def test_truncated_series_approaches_closed_form(self):
        rng = np.random.default_rng(75)
        g = random_bipartite(rng, max_side=5, min_edges=6)
        pairs = het_pairs(g)
        with katz_form("closed"):
            closed = katz_of(g, 0.05, pairs)
        with katz_form("series"), katz_terms(25):
            series = katz_of(g, 0.05, pairs)
        denom = np.maximum(np.abs(closed), 1e-30)
        assert np.max(np.abs(series - closed) / denom) <= 1e-8

    def test_five_term_series_is_degree_five_polynomial(self):
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with katz_form("series"), katz_terms(5):
            got = katz_of(g, beta, [(0, 0)])[0]
        assert got == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)

    def test_beta_beyond_radius_rejected_in_dense_mode(self):
        g = build_graph(1, 1, [(0, 0)])  # spectral radius exactly 1
        with katz_form("closed"), pytest.raises(ValueError, match="diverges"):
            katz_of(g, 1.5, [(0, 0)])

    def test_series_mode_tolerates_large_beta(self):
        g = build_graph(1, 1, [(0, 0)])
        with katz_form("series"), katz_terms(3):
            got = katz_of(g, 1.5, [(0, 0)])[0]
        assert got == pytest.approx(1.5 + 1.5**3, rel=1e-14)

    def test_graph_size_picks_the_form(self):
        """The closed form runs up to DENSE_THRESHOLD nodes inclusive, the
        series above it; on one edge they give beta / (1 - beta^2) and
        beta + beta^3 + beta^5."""
        g = build_graph(1, 1, [(0, 0)])
        beta = 0.3
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n):
            closed = katz_of(g, beta, [(0, 0)])[0]
        with mock.patch.object(scoring, "DENSE_THRESHOLD", g.n - 1):
            series = katz_of(g, beta, [(0, 0)])[0]
        assert closed == pytest.approx(beta / (1 - beta**2), rel=1e-14)
        assert series == pytest.approx(beta + beta**3 + beta**5, rel=1e-14)
        assert scoring.DENSE_THRESHOLD == 4096

    def test_nonpositive_beta_rejected(self):
        g = build_graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="positive"):
            katz_of(g, 0.0, [(0, 0)])

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        """NaN fails every comparison, so a bare beta <= 0 check let it through."""
        g = build_graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="positive and finite"):
            katz_of(g, beta, [(0, 0)])

    def test_symmetry(self):
        """Pair (u, v) scores as (v, u) does on the graph with its sides
        swapped."""
        rng = np.random.default_rng(76)
        g = random_bipartite(rng, max_side=6)
        swapped = build_graph(g.n_right, g.n_left, g.edges[:, ::-1])
        fwd = katz_of(g, 0.03, [(0, g.n_right - 1)])[0]
        rev = katz_of(swapped, 0.03, [(g.n_right - 1, 0)])[0]
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_series_bit_identical_to_per_pair_loop(self):
        """More unique right ends than one column chunk, repeated right
        ends, and a left and a right node with no training neighbours:
        every score equals the per-pair
        walk from the pair's right end, for a series that is its pointwise
        last hop alone (1 term) and for series whose last hop follows one or
        more sparse products (2, 3, 5 terms)."""
        rng = np.random.default_rng(79)
        for n_left, n_right in ((150, 300), (40, 30)):
            # Left node 0 and right node 0 stay isolated.
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
            rights = np.concatenate([np.arange(n_right), rng.integers(0, n_right, size=50)])
            pairs = [(int(rng.integers(n_left)), int(v)) for v in rights]
            pairs += [(0, 1), (1, 0), (0, 0)]
            if n_left == 150:
                assert len({v for _, v in pairs}) > scoring._KATZ_COLUMNS
            for matrix, beta in ((a, 0.05), (weighted, 0.3)):
                for terms in (1, 2, 3, 5):
                    with katz_form("series"), katz_terms(terms):
                        got = katz_score(KatzIndex(adj=matrix, n_left=n_left), beta, pairs)
                    want = katz_series_loop(matrix, beta, global_pairs(g, pairs), terms)
                    assert np.array_equal(got, want)

    def test_series_empty_pairs(self):
        g = build_graph(2, 2, [(0, 0)])
        with katz_form("series"):
            got = katz_of(g, 0.1, [])
        assert got.shape == (0,)

    def test_spectral_radius_small_and_large_paths_agree(self):
        """The right side larger, then the same graph with its sides swapped:
        the Gram matrix of either smaller side gives the dense radius of A."""
        rng = np.random.default_rng(77)
        g = random_bipartite(rng, max_side=8, min_edges=10)
        swapped = build_graph(g.n_right, g.n_left, g.edges[:, ::-1])
        assert g.n_left < g.n_right
        for h in (g, swapped):
            dense = float(np.max(np.abs(np.linalg.eigvalsh(h.adj.toarray()))))
            _, gram, radius, _ = katz_index(h).blocks
            assert gram.shape == (min(h.n_left, h.n_right),) * 2
            assert radius == adjacency_spectral_radius(gram)
            assert radius == pytest.approx(dense, rel=1e-10)

    def test_spectral_radius_repeats_bit_for_bit(self):
        """One eigvalsh of the Gram matrix, so the radius that decides Katz
        feasibility is the same on every call and every index."""
        rng = np.random.default_rng(78)
        edges = [(u, v) for u in range(60) for v in range(50) if rng.random() < 0.1]
        g = build_graph(60, 50, edges)
        gram = katz_index(g).blocks[1]
        radii = {adjacency_spectral_radius(gram) for _ in range(5)}
        radii |= {katz_index(g).blocks[2] for _ in range(5)}
        assert len(radii) == 1
        dense = float(np.max(np.abs(np.linalg.eigvalsh(g.adj.toarray()))))
        assert radii.pop() == pytest.approx(dense, rel=1e-10)

    def test_empty_graph_radius_zero(self):
        """No edge, or no node on one side (an s = 0 Gram matrix): 0.0."""
        assert katz_index(build_graph(3, 3, [])).blocks[2] == 0.0
        for g in (build_graph(0, 4, []), build_graph(4, 0, [])):
            _, gram, radius, _ = katz_index(g).blocks
            assert gram.shape == (0, 0)
            assert radius == 0.0 == adjacency_spectral_radius(gram)

    def test_radius_reads_the_index_gram(self):
        """The index passes its own Gram matrix to adjacency_spectral_radius,
        once, rather than the radius rebuilding W and G from the adjacency."""
        g = random_bipartite(np.random.default_rng(76), max_side=8, min_edges=10)
        index = katz_index(g)
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
        """Every left-right pair against inv(I - beta A) - I, at 1e-12 of
        the largest |score|: the left side
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
            for matrix in (a, sp.csr_matrix(upper + upper.T)):
                dense = matrix.toarray()
                index = KatzIndex(adj=matrix, n_left=n_left)
                radius = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
                for beta in (0.5 / radius, 0.9 / radius):
                    want = np.linalg.inv(np.eye(g.n) - beta * dense) - np.eye(g.n)
                    with katz_form("closed"):
                        got = katz_score(index, beta, pairs)
                    tol = 1e-12 * np.max(np.abs(want))
                    assert np.max(np.abs(got - want[tuple(global_pairs(g, pairs).T)])) <= tol
        empty = build_graph(3, 4, [])
        assert not np.any(katz_of(empty, 0.5, het_pairs(empty)))

    def test_closed_form_loads_no_scipy_linalg(self):
        """A closed-form call loads neither scipy.sparse.linalg nor
        scipy.linalg; in a fresh process, since this one may have loaded
        them already."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, bihop\n"
            "g = bihop.generate_bipartite_er(30, 40, 0.2, seed=1)\n"
            "bihop.katz_score(bihop.katz_index(g), 0.01, [(0, 0), (5, 1), (29, 39)])\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"


# Every scorer once, Katz in both forms: (kind, Katz form or None).
SCORER_FORMS = [
    *(pytest.param(kind, None, id=kind.value) for kind in ScorerKind if kind is not ScorerKind.KATZ),
    *(pytest.param(ScorerKind.KATZ, form, id=f"katz-{form}") for form in ("closed", "series")),
]


class TestPairValidation:
    @pytest.mark.parametrize("bad", [(-1, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_out_of_range_pair_rejected(self, kind, bad, toy_graph):
        """An index outside [0, n_left) x [0, n_right) raises and names the
        pair instead of wrapping around to another node."""
        z = np.random.default_rng(80).standard_normal((toy_graph.n, 3))
        with pytest.raises(ValueError, match=re.escape(f"pair {bad} is out of range")):
            scorer_for(kind, toy_graph, z)([(0, 0), bad])

    @pytest.mark.parametrize("kind, form", SCORER_FORMS)
    def test_global_right_index_rejected(self, kind, form):
        """A pair is local (left, right): with n_right >= n_left, the global
        index of right node 0 is in range on neither side, so (0, n_right)
        and (n_left, 0) each raise GraphInputError naming the pair and its
        position rather than scoring another pair."""
        g = build_graph(2, 3, [(0, 0), (1, 2)])
        z = np.random.default_rng(86).standard_normal((g.n, 3))
        for pos, bad in enumerate([(0, g.n_right), (g.n_left, 0)]):
            batch = [(0, 0)] * pos + [bad]
            with katz_form(form) if form else nullcontext():
                with pytest.raises(GraphInputError, match=re.escape(f"pair {bad} is out of range")) as err:
                    scorer_for(kind, g, z)(batch)
            assert (err.value.pair, err.value.position) == (bad, pos)
            assert f"at position {pos}" in str(err.value)

    @pytest.mark.parametrize(
        "bad",
        [np.empty((0, 3), dtype=np.int64), np.empty((0,)), np.empty((0, 2), dtype=bool)],
        ids=["int64-0x3", "float64-0", "bool-0x2"],
    )
    def test_malformed_empty_array_rejected(self, bad, toy_graph):
        """An empty array that is not (k, 2) integers is refused, not read
        as zero pairs."""
        z = np.random.default_rng(87).standard_normal((toy_graph.n, 3))
        with pytest.raises(GraphInputError, match="is not \\(k, 2\\) integers"):
            scorer_for(ScorerKind.TWO_HOP, toy_graph, z)(bad)

    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_tuple_list_and_array_score_alike(self, kind):
        """A list of int tuples and the (k, 2) int64 array of the same pairs
        give equal scores (both Katz forms)."""
        g = random_bipartite(np.random.default_rng(81), max_side=8, min_edges=10)
        z = np.random.default_rng(82).standard_normal((g.n, 3))
        listed = het_pairs(g)
        listed += listed[::3]
        arr = np.array(listed, dtype=np.int64)
        for form in ("closed", "series") if kind is ScorerKind.KATZ else (None,):
            with katz_form(form) if form else nullcontext():
                from_list = scorer_for(kind, g, z)(listed)
                from_array = scorer_for(kind, g, z)(arr)
            assert np.array_equal(from_list, from_array)

    @pytest.mark.parametrize("kind", list(ScorerKind), ids=lambda k: k.value)
    def test_pairs_not_shaped_k_by_2_rejected(self, kind, toy_graph):
        """Only a (k, 2) input is read as pairs: a (k, 3) array, a flat list
        or array, or a triple raises instead of being reshaped."""
        z = np.random.default_rng(83).standard_normal((toy_graph.n, 3))
        for bad in (np.zeros((2, 3), dtype=np.int64), [0, 3], np.array([0, 3, 1, 4]), [(0, 3, 1)]):
            with pytest.raises(ValueError, match="at position 0 is not a pair of integers"):
                scorer_for(kind, toy_graph, z)(bad)

    def test_scalar_heuristic_rejects_out_of_range(self, toy_graph):
        with pytest.raises(ValueError, match="out of range"):
            heuristic_one(toy_graph, ScorerKind.COMMON_NEIGHBORS, -1, 0)


class TestReturnContract:
    @pytest.mark.parametrize("kind, form", SCORER_FORMS)
    def test_returns_the_callers_float64_array(self, kind, form):
        """A scorer returns a 1-D float64 array with one score per pair, and
        the array is the caller's: writing into it leaves a repeat call on
        the same pairs, through the same model or index, byte-equal to the
        first.  That call reads the heuristic index's kept batch."""
        g = random_bipartite(np.random.default_rng(84), max_side=8, min_edges=10)
        z = np.random.default_rng(85).standard_normal((g.n, 3))
        pairs = het_pairs(g)
        with katz_form(form) if form else nullcontext():
            score = scorer_for(kind, g, z)
            first = score(pairs)
            assert first.dtype == np.float64 and first.shape == (len(pairs),)
            want = first.tobytes()
            first.fill(-1.0)
            assert score(pairs).tobytes() == want


@st.composite
def graph_and_batches(draw):
    """A random graph, embeddings, and two lists of left-right pairs
    (either list may be empty)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_bipartite(rng, max_side=7)
    z = rng.standard_normal((g.n, 3))
    pair = st.sampled_from(het_pairs(g))
    pos = draw(st.lists(pair, max_size=10))
    neg = draw(st.lists(pair, max_size=10))
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
                together = scorer_for(kind, g, z)(pos + neg)
                apart = np.concatenate(
                    [scorer_for(kind, g, z)(pos), scorer_for(kind, g, z)(neg)]
                )
            if kind in (ScorerKind.TWO_HOP, ScorerKind.RECON_TWO_HOP):
                assert np.allclose(together, apart, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(together, apart)


class TestSideSwap:
    """Which side a graph lists first is part of a heuristic's definition.

    u is a pair's left node and C = N(u) n N2(v) lies on the right side, so
    the graph with its sides swapped, ``build_graph(n_right, n_left,
    edges[:, ::-1])``, scores each pair from C' = N(v) n N2(u) on the left
    side instead.  pa and the Katz closed form read no side and keep their
    bytes."""

    @pytest.fixture(scope="class")
    def swap(self):
        g = generate_bipartite_er(60, 110, 0.3, seed=3)
        swapped = build_graph(g.n_right, g.n_left, g.edges[:, ::-1])
        us, vs = np.divmod(np.arange(g.n_left * g.n_right), g.n_right)
        pairs = np.column_stack([us, vs])
        across = np.column_stack([vs, us])
        return g, swapped, pairs, across

    def test_pa_and_katz_closed_form_keep_their_bytes(self, swap):
        g, swapped, pairs, across = swap
        kind = ScorerKind.PREFERENTIAL_ATTACHMENT
        pa = heuristic_scores(heuristic_index(g), kind, pairs)
        assert heuristic_scores(heuristic_index(swapped), kind, across).tobytes() == pa.tobytes()
        with katz_form("closed"):
            katz = katz_of(g, 0.01, pairs)
            assert katz_of(swapped, 0.01, across).tobytes() == katz.tobytes()

    def test_swapped_common_sets_are_the_left_side_oracle(self, swap):
        """On the swapped graph cn and jc equal the C' oracle exactly, aa and
        ra to 1e-12 relative (the oracle adds C' in another order)."""
        g, swapped, pairs, across = swap
        b = g.adj[: g.n_left, g.n_left :].toarray()  # b[u, v]: left u, right v
        two_step = (b @ b.T > 0).astype(np.float64)  # two_step[u, w]: w in N2(u)
        deg = b.sum(axis=1)  # left degrees
        aa_terms = np.divide(1.0, np.log(deg), out=np.zeros(g.n_left), where=deg >= 2)
        cn = two_step @ b  # |N(v) n N2(u)| at [u, v]
        union = two_step.sum(axis=1)[:, None] + b.sum(axis=0)[None, :] - cn
        oracle = {
            ScorerKind.COMMON_NEIGHBORS: cn,
            ScorerKind.JACCARD: np.divide(cn, union, out=np.zeros_like(cn), where=union > 0),
            ScorerKind.ADAMIC_ADAR: (two_step * aa_terms) @ b,
            ScorerKind.RESOURCE_ALLOCATION: (two_step / np.maximum(deg, 1)) @ b,
        }
        index = heuristic_index(swapped)
        for kind, want in oracle.items():
            got = heuristic_scores(index, kind, across)
            if kind in (ScorerKind.COMMON_NEIGHBORS, ScorerKind.JACCARD):
                assert got.tobytes() == want.ravel().tobytes(), kind
            else:
                assert np.allclose(got, want.ravel(), rtol=1e-12, atol=0), kind


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
        scores = two_hop_score(model, norm, g.n_left, pairs)
        pos, neg = scores[: len(pairs) // 2], scores[len(pairs) // 2 :]
        base = roc_auc(pos, neg)
        for f in (lambda x: 10.0 * x - 3.0, np.exp, lambda x: x + x**3):
            assert roc_auc(f(pos), f(neg)) == base

