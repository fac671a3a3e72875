"""Autoencoder forward passes, loss, analytic gradients, and training.

The gradient checks compare the analytic formulas against central finite
differences entry by entry; the acceptance suite repeats this at larger
scale.  Loss identities used below:

  * Z = 0 makes every logit 0, and with the class-balanced weights the
    total loss collapses to exactly ln 2
  * W = 0 is a stationary point for both encoders
  * dL/dZ = 2 R Z, where R is the n x n residual of the weighted loss

``dense_reference`` keeps the former dense kernel (two logaddexp and one
expit over every logit against the densified labels) as an oracle for the
sparse-label tile kernel.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import expit

from bihop import autoencoder
from bihop.autoencoder import (
    TILE_SIDE,
    EmbeddingModel,
    ModelKind,
    TrainConfig,
    TrainingDivergedError,
    decode_pairs,
    forward,
    init_weights,
    load_model,
    loss_gradient,
    reconstruction_loss,
    save_model,
    train,
    training_labels,
    _label_tiles,
    _loss_and_gz,
    _loss_value_and_gradient,
)
from bihop.data import generate_bipartite_er
from bihop.graph import NormalizedAdjacency, adjacency, build_graph, normalize

from conftest import random_bipartite


def problem_instance(rng, kind: ModelKind, max_side=5, embed_dim=3, hidden_dim=4):
    while True:
        g = random_bipartite(rng, max_side=max_side)
        if 2 * g.m + g.n < g.n * g.n:  # complete graphs make the loss degenerate
            break
    norm = normalize(g.adj)
    labels = training_labels(adjacency(g))
    cfg = TrainConfig(
        model_kind=kind,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        seed=int(rng.integers(2**31)),
    )
    weights = init_weights(cfg, g.n)
    return norm, labels, weights


def class_weights(labels):
    """(pos_weight, norm) from their definition, independent of the kernel:
    s ones among n^2 labels give (n^2 - s) / s and n^2 / (2 (n^2 - s))."""
    dense = labels.toarray()
    total = dense.size
    s = int(np.count_nonzero(dense == 1.0))
    return (total - s) / s, total / (2.0 * (total - s))


def fd_gradient(weights, norm, labels, h=1e-5):
    """Central finite differences of the loss in every weight entry."""
    grads = []
    for k, w in enumerate(weights):
        grad = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            bumped = [x.copy() for x in weights]
            bumped[k][idx] = w[idx] + h
            hi = reconstruction_loss(forward(tuple(bumped), norm), labels)
            bumped[k][idx] = w[idx] - h
            lo = reconstruction_loss(forward(tuple(bumped), norm), labels)
            grad[idx] = (hi - lo) / (2.0 * h)
        grads.append(grad)
    return tuple(grads)


def dense_reference(z, labels):
    """Loss and residual R (dL/dZ = 2 R Z) from dense n x n arrays."""
    n = z.shape[0]
    theta = z @ z.T
    y = labels.toarray()
    pos_weight, norm = class_weights(labels)
    scale = norm / (n * n)
    loss = scale * float(
        np.sum(pos_weight * y * np.logaddexp(0.0, -theta))
        + np.sum((1.0 - y) * np.logaddexp(0.0, theta))
    )
    sig = expit(theta)
    return loss, scale * (pos_weight * y * (sig - 1.0) + (1.0 - y) * sig)


def closed_form_gradient(weights, norm, r):
    """dL/dW from dL/dZ = 2 R Z, back through the encoder with dense An."""
    an = norm.matrix.toarray()
    if len(weights) == 1:
        return (an.T @ (2.0 * r @ (an @ weights[0])),)
    w0, w1 = weights
    pre = an @ w0
    hidden = np.maximum(pre, 0.0)
    a_dz = an.T @ (2.0 * r @ (an @ hidden @ w1))
    return (an.T @ ((a_dz @ w1.T) * (pre > 0.0)), hidden.T @ a_dz)


def double_loop_oracle(z, labels):
    """Loss and dL/dZ pair by pair, each term in its exact scalar form."""
    n = z.shape[0]
    dense = labels.toarray()
    pos_weight, norm = class_weights(labels)
    scale = norm / (n * n)
    loss = 0.0
    gz = np.zeros_like(z)
    for i in range(n):
        for j in range(n):
            theta = float(z[i] @ z[j])
            if dense[i, j]:
                loss += pos_weight * np.logaddexp(0.0, -theta)
                g = -pos_weight * expit(-theta)
            else:
                loss += np.logaddexp(0.0, theta)
                g = expit(theta)
            gz[i] += 2.0 * scale * g * z[j]
    return scale * loss, gz


def tile_side(side):
    """Patch autoencoder.TILE_SIDE, which loss and gradient read at call
    time; a context manager, so it also holds inside one hypothesis example."""
    return mock.patch.object(autoencoder, "TILE_SIDE", side)


def identity_encoder(n):
    """An = I, so the linear encoder's Z is its weight and dL/dW = dL/dZ."""
    return NormalizedAdjacency(matrix=sp.identity(n, format="csr"), tilde_degrees=np.ones(n))


def max_rel_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestForward:
    def test_lgae_matches_dense(self):
        rng = np.random.default_rng(30)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        w = rng.standard_normal((g.n, 3))
        got = forward((w,), norm)
        assert np.allclose(got, norm.matrix.toarray() @ w, rtol=0, atol=1e-14)

    def test_lgae_zero_weights(self):
        rng = np.random.default_rng(31)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        assert not forward((np.zeros((g.n, 2)),), norm).any()

    def test_gae_matches_dense(self):
        rng = np.random.default_rng(32)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        w0 = rng.standard_normal((g.n, 4))
        w1 = rng.standard_normal((4, 2))
        an = norm.matrix.toarray()
        want = an @ np.maximum(an @ w0, 0.0) @ w1
        assert np.allclose(forward((w0, w1), norm), want, rtol=0, atol=1e-13)

    def test_gae_negative_hidden_collapses(self):
        """An all-negative first layer dies under relu, so Z = 0."""
        rng = np.random.default_rng(33)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        w0 = -np.ones((g.n, 3))
        w1 = rng.standard_normal((3, 2))
        assert not forward((w0, w1), norm).any()

    def test_dispatch_rejects_three_matrices(self):
        g = random_bipartite(np.random.default_rng(34))
        norm = normalize(g.adj)
        with pytest.raises(ValueError):
            forward((np.eye(g.n),) * 3, norm)

    def test_weight_rows_must_match_the_nodes(self):
        """A weight whose row count is not n fails in the sparse product."""
        norm = normalize(build_graph(1, 1, [(0, 0)]).adj)
        with pytest.raises(ValueError):
            forward((np.ones((3, 2)),), norm)


class TestDecode:
    def test_zero_embedding_gives_half(self):
        z = np.zeros((4, 3))
        assert decode_pairs(z, [0], [2])[0] == 0.5

    def test_log3_norm_gives_three_quarters(self):
        z = np.full((2, 1), np.sqrt(np.log(3.0)))
        assert decode_pairs(z, [0], [1])[0] == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(35)
        z = rng.standard_normal((6, 4))
        us, vs = np.divmod(np.arange(36), 6)
        assert np.array_equal(decode_pairs(z, us, vs), decode_pairs(z, vs, us))

    def test_decode_pairs_matches_scalar(self):
        rng = np.random.default_rng(36)
        z = rng.standard_normal((8, 3))
        us = rng.integers(0, 8, size=20)
        vs = rng.integers(0, 8, size=20)
        got = decode_pairs(z, us, vs)
        want = [expit(z[u] @ z[v]) for u, v in zip(us, vs)]
        assert np.allclose(got, want, rtol=0, atol=1e-15)


class TestSigmoid:
    """``autoencoder.sigmoid`` against scipy's ``expit`` as the independent
    reference; the package itself does not import ``scipy.special``."""

    def test_matches_expit(self):
        rng = np.random.default_rng(37)
        x = np.concatenate([np.linspace(-700.0, 700.0, 200001), rng.normal(0.0, 30.0, 100000)])
        want = expit(x)
        assert np.max(np.abs(autoencoder.sigmoid(x) - want) / want) <= 1e-15

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = autoencoder.sigmoid(np.array([-800.0, 800.0, 0.0]))
        assert got.tolist() == [0.0, 1.0, 0.5]

    def test_out_argument_works_in_place(self):
        x = np.array([[-1.0, 0.0], [2.0, -800.0]])
        want = expit(x)
        got = autoencoder.sigmoid(x, out=x)
        assert got is x
        assert np.max(np.abs(x - want)) <= 1e-16
        out = np.empty(3)
        assert autoencoder.sigmoid(np.array([1.0, 2.0, 3.0]), out=out) is out
        assert np.allclose(out, expit([1.0, 2.0, 3.0]), rtol=1e-15, atol=0)

    def test_import_leaves_scipy_special_unloaded(self):
        """``import bihop`` does not load ``scipy.special``, which would add
        several MB to the import footprint."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, bihop\nprint('scipy.special' in sys.modules)\n"
        child = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"


def symmetric_ones(n, pairs):
    """n x n labels: the diagonal plus each (i, j) of ``pairs`` both ways."""
    rows = list(range(n)) + [i for i, j in pairs] + [j for i, j in pairs]
    cols = list(range(n)) + [j for i, j in pairs] + [i for i, j in pairs]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


class TestLossWeights:
    """The class weights come from the labels, through ``_label_tiles``."""

    def test_worked_example(self):
        *_, pos_weight, norm = _label_tiles(symmetric_ones(3, [(0, 1)]), 3)
        assert pos_weight == 0.8
        assert norm == 1.125

    def test_balanced_labels(self):
        *_, pos_weight, norm = _label_tiles(symmetric_ones(4, [(0, 1), (2, 3)]), 4)
        assert pos_weight == 1.0
        assert norm == 1.0

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError, match="degenerate label count"):
            _label_tiles(sp.csr_matrix((3, 3)), 3)
        with pytest.raises(ValueError, match="degenerate label count"):
            _label_tiles(sp.csr_matrix(np.ones((3, 3))), 3)


class TestTrainingLabels:
    def test_structure(self):
        rng = np.random.default_rng(37)
        g = random_bipartite(rng)
        labels = training_labels(adjacency(g))
        dense = labels.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 1.0)
        assert labels.nnz == 2 * g.m + g.n


class TestReconstructionLoss:
    def test_zero_embedding_is_ln2(self):
        """With the balancing weights, the all-zero embedding always costs
        exactly ln 2 regardless of the graph."""
        rng = np.random.default_rng(38)
        for _ in range(10):
            g = random_bipartite(rng)
            labels = training_labels(adjacency(g))
            loss = reconstruction_loss(np.zeros((g.n, 3)), labels)
            assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            g = random_bipartite(rng, max_side=5)
            if 2 * g.m + g.n == g.n * g.n:
                continue
            labels = training_labels(adjacency(g))
            pos_weight, norm = class_weights(labels)
            z = rng.standard_normal((g.n, 3))
            dense = labels.toarray()
            total = 0.0
            for i in range(g.n):
                for j in range(g.n):
                    theta = float(z[i] @ z[j])
                    y = dense[i, j]
                    total += pos_weight * y * np.logaddexp(0.0, -theta)
                    total += (1.0 - y) * np.logaddexp(0.0, theta)
            want = norm * total / (g.n * g.n)
            got = reconstruction_loss(z, labels)
            assert got == pytest.approx(want, rel=1e-12)

    def test_block_streaming_matches_dense(self):
        rng = np.random.default_rng(40)
        g = random_bipartite(rng, max_side=8)
        labels = training_labels(adjacency(g))
        z = rng.standard_normal((g.n, 4))
        with tile_side(g.n):
            dense = reconstruction_loss(z, labels)
        for block in (1, 2, 3, g.n):
            with tile_side(block):
                blocked = reconstruction_loss(z, labels)
            assert blocked == pytest.approx(dense, rel=1e-12)

    def test_confident_correct_reconstruction_drives_loss_down(self):
        g = random_bipartite(np.random.default_rng(41), max_side=4)
        labels = training_labels(adjacency(g))
        pos_weight, norm = class_weights(labels)
        # embed each node so that z_i . z_j is a large positive logit
        # exactly on label support and large negative elsewhere
        dense = np.asarray(labels.todense())
        sign = 2.0 * dense - 1.0
        # use an eigen factorization of the signed matrix scaled up
        vals, vecs = np.linalg.eigh(20.0 * sign)
        # shift spectrum to be representable: synthesize logits directly
        theta = 20.0 * sign
        total = (
            pos_weight * dense * np.logaddexp(0.0, -theta)
            + (1.0 - dense) * np.logaddexp(0.0, theta)
        ).sum()
        want = norm * total / (g.n * g.n)
        assert want < 1e-7  # the target the trained model approaches


def loss_entry_point(name, g):
    """reconstruction_loss or loss_gradient at Glorot weights on g, as a
    function of the labels alone."""
    norm = normalize(g.adj)
    weights = init_weights(TrainConfig(embed_dim=3), g.n)
    if name == "loss":
        return lambda labels: reconstruction_loss(forward(weights, norm), labels)
    return lambda labels: loss_gradient(weights, norm, labels)


@pytest.mark.parametrize("entry", ["loss", "gradient"])
class TestLossLabelChecks:
    """The loss and its gradient check their labels as ``train`` does."""

    @pytest.mark.parametrize("case", ["small_graph_side_2", "n_200_default_side"])
    def test_rejects_asymmetric_labels(self, entry, case):
        """Only tiles on and above the diagonal are read, so one-sided labels
        would be mirrored into a wrong loss."""
        if case == "small_graph_side_2":
            g, side = random_bipartite(np.random.default_rng(59), min_edges=2), 2
        else:
            g, side = generate_bipartite_er(100, 100, 0.05, seed=3), TILE_SIDE
        call = loss_entry_point(entry, g)
        upper = sp.triu(training_labels(adjacency(g)), format="csr")
        with tile_side(side), pytest.raises(ValueError, match="symmetric"):
            call(upper)

    @pytest.mark.parametrize("side", [2, TILE_SIDE])
    def test_rejects_labels_other_than_one(self, entry, side):
        g = random_bipartite(np.random.default_rng(60), min_edges=2)
        labels = training_labels(adjacency(g))
        labels.data[:] = 2.0
        call = loss_entry_point(entry, g)
        with tile_side(side), pytest.raises(ValueError, match="only ones"):
            call(labels)

    def test_rejects_shape_mismatch(self, entry):
        g = random_bipartite(np.random.default_rng(61))
        call = loss_entry_point(entry, g)
        with pytest.raises(ValueError, match="does not match"):
            call(sp.identity(g.n + 1, format="csr"))


class TestGradients:
    def test_lgae_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            norm, labels, weights = problem_instance(rng, ModelKind.LGAE)
            got = loss_gradient(weights, norm, labels)
            want = fd_gradient(weights, norm, labels)
            for g_a, g_f in zip(got, want):
                denom = max(np.abs(g_f).max(), 1e-12)
                assert np.abs(g_a - g_f).max() / denom < 1e-5

    def test_gae_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            norm, labels, weights = problem_instance(rng, ModelKind.GAE)
            got = loss_gradient(weights, norm, labels)
            want = fd_gradient(weights, norm, labels)
            for g_a, g_f in zip(got, want):
                denom = max(np.abs(g_f).max(), 1e-12)
                assert np.abs(g_a - g_f).max() / denom < 1e-5

    def test_zero_weights_are_stationary(self):
        rng = np.random.default_rng(44)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        labels = training_labels(adjacency(g))
        (gw,) = loss_gradient((np.zeros((g.n, 3)),), norm, labels)
        assert not gw.any()
        gw0, gw1 = loss_gradient(
            (np.zeros((g.n, 4)), np.zeros((4, 2))), norm, labels
        )
        assert not gw0.any() and not gw1.any()

    def test_gradient_scales_with_norm_constant(self):
        rng = np.random.default_rng(45)
        norm, labels, weights = problem_instance(rng, ModelKind.LGAE)
        tiles = _label_tiles(labels, norm.n)
        _, (g1,) = _loss_value_and_gradient(weights, norm, tiles)
        doubled = tiles[:4] + (2.0 * tiles[4],)
        _, (g2,) = _loss_value_and_gradient(weights, norm, doubled)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=0)

    def test_gae_gradient_reuses_the_forward_pass(self, monkeypatch):
        """One GAE gradient makes four sparse products, not five: pre and
        hidden come from the forward pass.  Training matches the former
        formula, which recomputed them, byte for byte."""

        def recomputing(weights, norm_adj, tiles):
            an = norm_adj.matrix
            w0, w1 = weights
            z = (an @ np.maximum(an @ w0, 0.0)) @ w1
            loss, dz = _loss_and_gz(z, tiles, True)
            pre = an @ w0
            hidden = np.maximum(pre, 0.0)
            a_dz = an @ dz
            dw1 = hidden.T @ a_dz
            d_pre = (a_dz @ w1.T) * (pre > 0.0)
            return loss, (an @ d_pre, dw1)

        calls = []

        class CountingCsr(sp.csr_matrix):
            """Counts the sparse-times-dense products made through it."""

            def __matmul__(self, other):
                calls.append(1)
                return super().__matmul__(other)

        rng = np.random.default_rng(53)
        norm, labels, weights = problem_instance(rng, ModelKind.GAE, max_side=7)
        counting = NormalizedAdjacency(matrix=CountingCsr(norm.matrix), tilde_degrees=norm.tilde_degrees)
        tiles = _label_tiles(labels, norm.n)
        got = _loss_value_and_gradient(weights, counting, tiles)
        assert len(calls) == 4
        calls.clear()
        want = recomputing(weights, counting, tiles)
        assert len(calls) == 5
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
        plain = _loss_value_and_gradient(weights, norm, tiles)
        assert plain[0] == got[0]
        assert all(np.array_equal(a, b) for a, b in zip(plain[1], got[1]))

        cfg = TrainConfig(model_kind=ModelKind.GAE, embed_dim=3, hidden_dim=4, epochs=30, seed=5)
        model = train(norm, labels, cfg)
        monkeypatch.setattr(autoencoder, "_loss_value_and_gradient", recomputing)
        former = train(norm, labels, cfg)
        assert np.array_equal(model.loss_history, former.loss_history)
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, former.weights))
        assert np.array_equal(model.Z, former.Z)

    def test_blocked_gradient_matches_dense(self):
        rng = np.random.default_rng(46)
        norm, labels, weights = problem_instance(rng, ModelKind.GAE, max_side=7)
        with tile_side(norm.n):
            dense = loss_gradient(weights, norm, labels)
        with tile_side(2):
            blocked = loss_gradient(weights, norm, labels)
        for g_d, g_b in zip(dense, blocked):
            assert np.allclose(g_b, g_d, rtol=1e-11, atol=1e-14)


class TestDenseOracles:
    def test_closed_form_gradient_every_block_size(self):
        rng = np.random.default_rng(54)
        for kind in ModelKind:
            for _ in range(10):
                norm, labels, weights = problem_instance(rng, kind)
                weights = tuple(3.0 * w for w in weights)
                z = forward(weights, norm)
                ref_loss, r = dense_reference(z, labels)
                want = closed_form_gradient(weights, norm, r)
                for block in (TILE_SIDE, 1, 2, 3, norm.n):
                    with tile_side(block):
                        loss = reconstruction_loss(z, labels)
                        got = loss_gradient(weights, norm, labels)
                    assert loss == pytest.approx(ref_loss, rel=1e-12)
                    for g_a, g_w in zip(got, want):
                        assert max_rel_error(g_a, g_w) <= 1e-12

    @pytest.mark.parametrize("reach", [40.0, 800.0])
    def test_extreme_random_logits(self, reach):
        rng = np.random.default_rng(55)
        for _ in range(5):
            g = random_bipartite(rng, max_side=6, min_edges=2)
            labels = training_labels(adjacency(g))
            z = rng.standard_normal((g.n, 3))
            z *= np.sqrt(reach / np.abs(z @ z.T).max())
            want_loss, want_gz = double_loop_oracle(z, labels)
            for block in (g.n, 2):
                with tile_side(block):
                    loss = reconstruction_loss(z, labels)
                    (gz,) = loss_gradient((z,), identity_encoder(g.n), labels)
                assert np.isfinite(loss) and np.all(np.isfinite(gz))
                assert loss == pytest.approx(want_loss, rel=1e-12)
                assert max_rel_error(gz, want_gz) <= 1e-12

    @pytest.mark.parametrize("reach", [40.0, 800.0])
    def test_extreme_confident_correct_logits(self, reach):
        """Three disjoint edges embedded so every label-one logit is +reach
        and every other logit is -reach/2: the loss is tiny and must not be
        lost to cancellation against the large label-one logits."""
        g = build_graph(3, 3, [(0, 0), (1, 1), (2, 2)])
        labels = training_labels(adjacency(g))
        z = np.vstack([np.eye(3), np.eye(3)]) - 1.0 / 3.0
        z *= np.sqrt(1.5 * reach)
        want_loss, want_gz = double_loop_oracle(z, labels)
        assert 0.0 < want_loss < 1e-8
        for block in (g.n, 1, 4):
            with tile_side(block):
                loss = reconstruction_loss(z, labels)
                (gz,) = loss_gradient((z,), identity_encoder(g.n), labels)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            assert max_rel_error(gz, want_gz) <= 1e-12


@st.composite
def tiled_problem(draw):
    """A random graph, an embedding whose largest |theta| is drawn up to 40,
    and a tile side from 1 to n + 1 (most sides do not divide n)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_bipartite(rng, max_side=draw(st.integers(1, 9)))
    assume(2 * g.m + g.n < g.n * g.n)  # complete graphs make the loss degenerate
    z = rng.standard_normal((g.n, draw(st.integers(1, 4))))
    z *= np.sqrt(draw(st.floats(0.01, 40.0)) / np.abs(z @ z.T).max())
    return g, z, draw(st.integers(1, g.n + 1))


class TestTileInvariance:
    @given(case=tiled_problem())
    def test_every_tile_side_matches_dense_oracles(self, case):
        g, z, side = case
        labels = training_labels(adjacency(g))
        ref_loss, r = dense_reference(z, labels)
        enc = identity_encoder(g.n)
        with tile_side(side):
            loss = reconstruction_loss(z, labels)
            (gz,) = loss_gradient((z,), enc, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        (want,) = closed_form_gradient((z,), enc, r)
        assert max_rel_error(gz, want) <= 1e-12

    def test_training_tiles_keep_memory_small(self):
        """One loss+gradient at n = 1000 holds tile-sized temporaries only;
        a whole-row block of n logits would take 8 MB per array."""
        g = generate_bipartite_er(500, 500, 0.01, seed=0)
        labels = training_labels(adjacency(g))
        (w,) = init_weights(TrainConfig(embed_dim=16), g.n)
        z = forward((w,), normalize(g.adj))
        tiles = _label_tiles(labels, g.n)
        tracemalloc.start()
        try:
            _loss_and_gz(z, tiles, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestInitWeights:
    def test_shapes_and_bounds(self):
        cfg = TrainConfig(model_kind=ModelKind.GAE, embed_dim=3, hidden_dim=5, seed=9)
        w0, w1 = init_weights(cfg, 7)
        assert w0.shape == (7, 5) and w1.shape == (5, 3)
        assert np.abs(w0).max() <= np.sqrt(6.0 / (7 + 5))
        assert np.abs(w1).max() <= np.sqrt(6.0 / (5 + 3))

    def test_deterministic_in_seed(self):
        cfg = TrainConfig(seed=123)
        a = init_weights(cfg, 6)
        b = init_weights(cfg, 6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_weights(self):
        a = init_weights(TrainConfig(seed=1), 6)
        b = init_weights(TrainConfig(seed=2), 6)
        assert not np.array_equal(a[0], b[0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(embed_dim=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for rate in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(model_kind=ModelKind.GAE, hidden_dim=0)

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim", "epochs", "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "3", True, None])
    def test_rejects_non_integer_sizes(self, key, value):
        """A float is not truncated and a bool is not a count: ``epochs=True``
        used to train for one epoch."""
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            TrainConfig(model_kind=ModelKind.GAE, **{key: value})

    @pytest.mark.parametrize("rate", [True, "0.01", None])
    def test_rejects_non_numeric_learning_rate(self, rate):
        """``learning_rate=True`` used to build and train at rate 1.0."""
        with pytest.raises(TypeError, match="learning_rate must be a real number"):
            TrainConfig(learning_rate=rate)

    def test_learning_rate_becomes_a_float(self):
        cfg = TrainConfig(learning_rate=np.float32(0.5))
        assert type(cfg.learning_rate) is float and cfg == TrainConfig(learning_rate=0.5)
        assert TrainConfig(learning_rate=1).learning_rate == 1.0

    def test_numpy_integer_sizes_become_ints(self):
        cfg = TrainConfig(embed_dim=np.int64(3), hidden_dim=np.int32(4), epochs=np.uint16(5), seed=np.int64(7))
        assert (cfg.embed_dim, cfg.hidden_dim, cfg.epochs, cfg.seed) == (3, 4, 5, 7)
        assert all(type(v) is int for v in (cfg.embed_dim, cfg.hidden_dim, cfg.epochs, cfg.seed))
        assert cfg == TrainConfig(embed_dim=3, hidden_dim=4, epochs=5, seed=7)

    def test_lgae_ignores_hidden_dim(self):
        TrainConfig(model_kind=ModelKind.LGAE, hidden_dim=0)  # no error


class TestTrain:
    def test_loss_history_and_descent(self):
        rng = np.random.default_rng(47)
        g = random_bipartite(rng, max_side=10, min_edges=8)
        norm = normalize(g.adj)
        labels = training_labels(adjacency(g))
        cfg = TrainConfig(embed_dim=4, epochs=60, seed=3)
        model = train(norm, labels, cfg)
        assert model.loss_history.shape == (61,)
        assert np.all(np.isfinite(model.loss_history))
        assert model.loss_history[-1] < model.loss_history[0]

    def test_embeddings_equal_forward_of_weights(self):
        rng = np.random.default_rng(48)
        g = random_bipartite(rng)
        norm = normalize(g.adj)
        labels = training_labels(adjacency(g))
        for kind in ModelKind:
            cfg = TrainConfig(model_kind=kind, embed_dim=3, epochs=5, seed=4)
            model = train(norm, labels, cfg)
            assert np.array_equal(model.Z, forward(model.weights, norm))

    def test_deterministic(self):
        rng = np.random.default_rng(49)
        g = random_bipartite(rng, min_edges=4)
        norm = normalize(g.adj)
        labels = training_labels(adjacency(g))
        cfg = TrainConfig(embed_dim=3, epochs=20, seed=11)
        a = train(norm, labels, cfg)
        b = train(norm, labels, cfg)
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.loss_history, b.loss_history)

    def test_gae_independent_of_blas_threads(self):
        """A 2000-node GAE trains to the same bytes at one and two BLAS
        threads.  BLAS may split dW1 = hidden^T (An dZ), whose inner
        dimension is n, across its threads; the sum over fixed row blocks
        does not move.  OpenBLAS reads its thread count when numpy loads, so
        each count gets a fresh process."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import hashlib\n"
            "from bihop.autoencoder import ModelKind, TrainConfig, train, training_labels\n"
            "from bihop.data import generate_bipartite_er\n"
            "from bihop.graph import normalize\n"
            "g = generate_bipartite_er(1000, 1000, 0.005, seed=5)\n"
            "cfg = TrainConfig(model_kind=ModelKind.GAE, epochs=3, seed=1)\n"
            "model = train(normalize(g.adj), training_labels(g.adj), cfg)\n"
            "print(hashlib.sha1(model.Z.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            child = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
            )
            assert child.returncode == 0, child.stderr
            digests.append(child.stdout.strip())
        assert digests[0] == digests[1]

    def test_single_epoch_history(self):
        rng = np.random.default_rng(50)
        g = random_bipartite(rng)
        model = train(
            normalize(g.adj),
            training_labels(adjacency(g)),
            TrainConfig(epochs=1, seed=0),
        )
        assert model.loss_history.shape == (2,)

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(51)
        g = random_bipartite(rng, max_side=6, min_edges=4)
        cfg = TrainConfig(embed_dim=4, epochs=5, learning_rate=1e160, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(normalize(g.adj), training_labels(adjacency(g)), cfg)
        assert 0 <= exc.value.epoch < 5

    def test_divergence_error_survives_pickle_and_copy(self):
        """A worker process hands the error back pickled: the copy keeps the
        type, message, epoch and notes."""
        err = TrainingDivergedError("non-finite loss at epoch 3", epoch=3)
        err.add_note("dataset er, run 0, seed 0")
        for clone in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert type(clone) is TrainingDivergedError
            assert (str(clone), clone.args, clone.epoch) == (str(err), err.args, 3)
            assert clone.__notes__ == ["dataset er, run 0, seed 0"]

    def test_label_shape_mismatch(self):
        rng = np.random.default_rng(52)
        g = random_bipartite(rng)
        bad = sp.identity(g.n + 1, format="csr")
        with pytest.raises(ValueError):
            train(normalize(g.adj), bad, TrainConfig())

    def test_rejects_asymmetric_labels(self):
        """The kernel reads only tiles on and above the diagonal, so one-sided
        labels would be silently mirrored."""
        g = random_bipartite(np.random.default_rng(58), min_edges=2)
        upper = sp.triu(training_labels(adjacency(g)), format="csr")
        with pytest.raises(ValueError, match="symmetric"):
            train(normalize(g.adj), upper, TrainConfig(epochs=1))

    @pytest.mark.parametrize("fault", ["stored_zero", "value_two", "duplicate"])
    def test_rejects_non_binary_labels(self, fault):
        g = random_bipartite(np.random.default_rng(56), min_edges=2)
        labels = training_labels(adjacency(g))
        if fault == "duplicate":
            labels = sp.csr_matrix(
                (np.append(labels.data, 1.0), np.append(labels.indices, labels.indices[-1]),
                 np.append(labels.indptr[:-1], labels.nnz + 1)),
                shape=labels.shape,
            )
        else:
            labels.data[0] = 0.0 if fault == "stored_zero" else 2.0
        with pytest.raises(ValueError, match="only ones"):
            train(normalize(g.adj), labels, TrainConfig(epochs=1))


class TestCheckpointing:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(53)
        g = random_bipartite(rng, min_edges=3)
        norm = normalize(g.adj)
        labels = training_labels(adjacency(g))
        for kind in ModelKind:
            cfg = TrainConfig(
                model_kind=kind, embed_dim=3, hidden_dim=4, epochs=8,
                learning_rate=0.02, seed=6,
            )
            model = train(norm, labels, cfg)
            path = tmp_path / f"{kind.value}.npz"
            save_model(model, cfg, path)
            loaded, loaded_cfg = load_model(path)
            assert loaded_cfg == cfg
            assert loaded.model_kind is kind
            assert np.array_equal(loaded.Z, model.Z)
            assert np.array_equal(loaded.loss_history, model.loss_history)
            assert len(loaded.weights) == len(model.weights)
            for a, b in zip(loaded.weights, model.weights):
                assert np.array_equal(a, b)

    def test_version_1_file_with_dense_threshold_loads(self, tmp_path):
        """Version-1 files written before the field was dropped still load."""
        g = random_bipartite(np.random.default_rng(57), min_edges=3)
        cfg = TrainConfig(embed_dim=3, epochs=4, seed=8)
        model = train(normalize(g.adj), training_labels(adjacency(g)), cfg)
        save_model(model, cfg, tmp_path / "new.npz")
        with np.load(tmp_path / "new.npz") as data:
            payload = dict(data)
        assert "dense_threshold" not in payload
        np.savez(tmp_path / "old.npz", dense_threshold=np.int64(4096), **payload)
        loaded, loaded_cfg = load_model(tmp_path / "old.npz")
        assert loaded_cfg == cfg
        assert np.array_equal(loaded.Z, model.Z)
        assert np.array_equal(loaded.weights[0], model.weights[0])

    @pytest.mark.parametrize("seed", [-5, 2**63 - 1, 2**63, 2**64 - 1, 2**70])
    def test_any_integer_seed_round_trips(self, tmp_path, seed):
        """A seed of 2**63 or more used to raise OverflowError on save."""
        g = random_bipartite(np.random.default_rng(58), min_edges=3)
        cfg = TrainConfig(embed_dim=3, epochs=2, seed=seed)
        model = train(normalize(g.adj), training_labels(adjacency(g)), cfg)
        save_model(model, cfg, tmp_path / "seed.npz")
        loaded, loaded_cfg = load_model(tmp_path / "seed.npz")
        assert loaded_cfg == cfg and type(loaded_cfg.seed) is int
        assert np.array_equal(loaded.Z, model.Z)

    def test_version_1_file_with_int64_fields_loads(self, tmp_path):
        """Files written before integers were stored as decimal strings
        hold them as int64 scalars; they load to the same config."""
        g = random_bipartite(np.random.default_rng(59), min_edges=3)
        cfg = TrainConfig(model_kind=ModelKind.GAE, embed_dim=3, hidden_dim=4, epochs=3, seed=-7)
        model = train(normalize(g.adj), training_labels(adjacency(g)), cfg)
        np.savez(
            tmp_path / "old.npz",
            format_version=np.int64(1), model_kind=np.str_("gae"), Z=model.Z,
            loss_history=model.loss_history, embed_dim=np.int64(3), hidden_dim=np.int64(4),
            learning_rate=np.float64(cfg.learning_rate), epochs=np.int64(3), seed=np.int64(-7),
            weight_0=model.weights[0], weight_1=model.weights[1],
        )
        loaded, loaded_cfg = load_model(tmp_path / "old.npz")
        assert loaded_cfg == cfg
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))

    def test_config_fields_are_stored_by_name(self, tmp_path):
        """Every TrainConfig field but the model kind has its own entry."""
        g = random_bipartite(np.random.default_rng(60), min_edges=3)
        cfg = TrainConfig(embed_dim=3, epochs=2, seed=4)
        save_model(train(normalize(g.adj), training_labels(adjacency(g)), cfg), cfg, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            names = {f.name for f in dataclasses.fields(TrainConfig)} - {"model_kind"}
            assert names <= set(data.files)
            assert data["seed"].item() == "4" and data["learning_rate"].item() == 0.01

    @pytest.mark.parametrize(
        "kind, field, value, match",
        [
            (ModelKind.GAE, "model_kind", np.str_("lgae"), r"weights: a lgae checkpoint holds 1, got 2"),
            (ModelKind.LGAE, "model_kind", np.str_("gae"), r"weights: a gae checkpoint holds 2, got 1"),
            (ModelKind.LGAE, "weight_0", np.zeros(5), r"weight_0 has shape \(5,\), expected \(5, 3\)"),
            (ModelKind.LGAE, "weight_0", np.zeros((9, 4)), r"weight_0 has shape \(9, 4\), expected \(9, 3\)"),
            (ModelKind.GAE, "weight_0", np.zeros((9, 3)), r"weight_0 has shape \(9, 3\), expected \(9, 4\)"),
            (ModelKind.GAE, "weight_1", np.zeros((3, 3)), r"weight_1 has shape \(3, 3\), expected \(4, 3\)"),
            (ModelKind.LGAE, "Z", np.zeros((3, 3)), r"Z has shape \(3, 3\), expected \({n}, 3\)"),
            (ModelKind.GAE, "Z", np.zeros((3, 3)), r"Z has shape \(3, 3\), expected \({n}, 3\)"),
            (ModelKind.LGAE, "loss_history", np.zeros(2), r"loss_history has shape \(2,\), expected \(3,\)"),
            (ModelKind.GAE, "loss_history", np.zeros((3, 1)), r"loss_history has shape \(3, 1\), expected \(3,\)"),
        ],
        ids=[
            "gae_as_lgae", "lgae_as_gae", "1d_weight", "lgae_embed_dim", "gae_hidden_dim", "gae_weight_1",
            "lgae_z", "gae_z", "short_loss_history", "2d_loss_history",
        ],
    )
    def test_corrupt_checkpoint_rejected(self, tmp_path, kind, field, value, match):
        """A checkpoint's weight count and every array's shape must fit its
        config: an "lgae" file with one n x 16 weight and a 3 x 3 Z used to
        load without error."""
        g = random_bipartite(np.random.default_rng(61), min_edges=3)
        cfg = TrainConfig(model_kind=kind, embed_dim=3, hidden_dim=4, epochs=2, seed=1)
        save_model(train(normalize(g.adj), training_labels(adjacency(g)), cfg), cfg, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            payload = dict(data, **{field: value})
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError, match=match.format(n=g.n)):
            load_model(tmp_path / "bad.npz")

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.int64(99))
        with pytest.raises(ValueError, match="version"):
            load_model(path)
