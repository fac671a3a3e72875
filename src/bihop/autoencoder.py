"""Featureless graph autoencoders with analytic gradients and Adam training.

Two encoders over the normalized adjacency ``An`` (features fixed to the
identity, so the feature matrix never appears):

* linear:   Z = An @ W
* two-layer GCN: Z = An @ relu(An @ W0) @ W1

Both share the inner-product decoder ``sigmoid(z_i . z_j)`` and a weighted
binary cross-entropy reconstruction loss over all n^2 node pairs against the
label matrix ``A_train + I``.  Gradients are computed analytically (verified
against finite differences in the test suite).  Loss and gradient stream
over row blocks of at most ``BLOCK_ROWS`` rows in index order for every n,
so results are deterministic.  Each block scores all its pairs as negatives,
then corrects the label-one entries read from the sparse labels; no dense
label matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .graph import NormalizedAdjacency, sparse_dense_product
from .splits import philox

BLOCK_ROWS = 1024

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ModelKind(Enum):
    LGAE = "lgae"
    GAE = "gae"


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training.

    Attributes:
        epoch: 0-based index of the offending step.
    """

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    model_kind: ModelKind = ModelKind.LGAE
    embed_dim: int = 16
    hidden_dim: int = 32
    learning_rate: float = 0.01
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.model_kind is ModelKind.GAE and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class LossWeights:
    """Class-imbalance reweighting for the all-pairs reconstruction loss."""

    pos_weight: float
    norm: float


@dataclass(frozen=True)
class EmbeddingModel:
    """Trained node embeddings plus the weights that produced them.

    ``Z`` always equals the forward pass of ``weights`` on the adjacency the
    model was trained on.  ``weights`` is (W,) for the linear encoder and
    (W0, W1) for the GCN encoder.  ``loss_history`` holds the loss before
    each step plus the final loss (epochs + 1 entries).
    """

    Z: np.ndarray
    model_kind: ModelKind
    weights: tuple
    loss_history: np.ndarray


def lgae_forward(norm_adj: NormalizedAdjacency, w: np.ndarray) -> np.ndarray:
    """Linear encoder: Z = An @ W."""
    return sparse_dense_product(norm_adj, w)


def gae_forward(norm_adj: NormalizedAdjacency, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Two-layer GCN encoder: Z = An @ relu(An @ W0) @ W1."""
    hidden = np.maximum(sparse_dense_product(norm_adj, w0), 0.0)
    return sparse_dense_product(norm_adj, hidden) @ w1


def forward(weights: tuple, norm_adj: NormalizedAdjacency) -> np.ndarray:
    """Dispatch on the number of weight matrices (1 = linear, 2 = GCN)."""
    if len(weights) == 1:
        return lgae_forward(norm_adj, weights[0])
    if len(weights) == 2:
        return gae_forward(norm_adj, weights[0], weights[1])
    raise ValueError(f"expected 1 or 2 weight matrices, got {len(weights)}")


def decode_pair(z: np.ndarray, i: int, j: int) -> float:
    """Edge probability sigmoid(z_i . z_j); symmetric in (i, j)."""
    return float(expit(np.dot(z[i], z[j])))


def decode_pairs(z: np.ndarray, us, vs) -> np.ndarray:
    """Vectorized decode over parallel index arrays."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    return expit(np.einsum("ij,ij->i", z[us], z[vs]))


def training_labels(a_train: sp.spmatrix) -> sp.csr_matrix:
    """Label matrix for reconstruction: training adjacency plus self-loops."""
    labels = sp.csr_matrix(a_train, dtype=np.float64) + sp.identity(a_train.shape[0], format="csr")
    labels.sort_indices()
    return labels


def loss_weights(n: int, s: int) -> LossWeights:
    """Reweighting constants for a label matrix with ``s`` ones out of n^2.

    pos_weight = (n^2 - s) / s scales positive terms up to balance classes;
    norm = n^2 / (2 (n^2 - s)) rescales the mean loss.
    """
    total = n * n
    if s <= 0 or s >= total:
        raise ValueError(f"degenerate label count s={s} for n={n}")
    return LossWeights(pos_weight=(total - s) / s, norm=total / (2.0 * (total - s)))


def _loss_and_gz(z, labels, lw, block_rows, want_grad):
    """Shared streaming kernel: loss and (optionally) dL/dZ.

    Each stored label counts as a one.  Every logit theta of a row block is
    scored as a negative (softplus and sigmoid share one exp(-|theta|)); the
    label-one entries are then overwritten with their positive terms, so no
    term comes from a cancellation.  Block size changes only round-off.
    """
    labels = sp.csr_matrix(labels)
    n = z.shape[0]
    step = max(1, n if block_rows is None else int(block_rows))
    pw, scale = lw.pos_weight, lw.norm / (n * n)
    loss = 0.0
    gz = np.empty_like(z) if want_grad else None
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ptr = labels.indptr[lo : hi + 1]
        flat = np.repeat(np.arange(hi - lo) * n, np.diff(ptr)) + labels.indices[ptr[0] : ptr[-1]]
        theta = z[lo:hi] @ z.T
        t = theta.ravel()[flat]
        e = np.abs(theta)
        np.exp(np.negative(e, out=e), out=e)
        np.maximum(theta, 0.0, out=theta)
        term = np.log1p(e)
        term += theta  # softplus(theta) = max(theta, 0) + log1p(exp(-|theta|))
        term.ravel()[flat] = pw * np.logaddexp(0.0, -t)
        loss += float(term.sum())
        if want_grad:
            np.divide(e, np.add(e, 1.0, out=term), out=e)  # sigmoid(-|theta|)
            np.subtract(1.0, e, out=e, where=theta > 0.0)
            e.ravel()[flat] = -pw * expit(-t)
            # theta = Z Z^T is symmetric, so each pair reaches dL/dZ twice
            gz[lo:hi] = (2.0 * scale) * (e @ z)
    return scale * loss, gz


def reconstruction_loss(z, labels, lw: LossWeights, block_rows=None) -> float:
    """Weighted cross-entropy over all n^2 pairs (labels are A_train + I)."""
    loss, _ = _loss_and_gz(np.asarray(z, dtype=np.float64), labels, lw, block_rows, False)
    return loss


def loss_gradient(weights, norm_adj, labels, lw: LossWeights, block_rows=None) -> tuple:
    """Analytic gradient of the reconstruction loss w.r.t. the weights."""
    _, grads = _loss_value_and_gradient(weights, norm_adj, labels, lw, block_rows)
    return grads


def _loss_value_and_gradient(weights, norm_adj, labels, lw, block_rows):
    z = forward(weights, norm_adj)
    loss, dz = _loss_and_gz(z, labels, lw, block_rows, True)
    if len(weights) == 1:
        return loss, (sparse_dense_product(norm_adj, dz),)
    w0, w1 = weights
    pre = sparse_dense_product(norm_adj, w0)
    hidden = np.maximum(pre, 0.0)
    a_dz = sparse_dense_product(norm_adj, dz)
    dw1 = hidden.T @ a_dz
    d_pre = (a_dz @ w1.T) * (pre > 0.0)
    dw0 = sparse_dense_product(norm_adj, d_pre)
    return loss, (dw0, dw1)


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_weights(config: TrainConfig, n: int) -> tuple:
    """Seeded Glorot-uniform initialization for the configured encoder."""
    rng = philox(config.seed)
    if config.model_kind is ModelKind.LGAE:
        return (_glorot(rng, n, config.embed_dim),)
    return (
        _glorot(rng, n, config.hidden_dim),
        _glorot(rng, config.hidden_dim, config.embed_dim),
    )


def train(norm_adj: NormalizedAdjacency, labels: sp.spmatrix, config: TrainConfig) -> EmbeddingModel:
    """Full-batch Adam on the reconstruction loss; deterministic given the seed.

    Raises ValueError unless every stored label is a one, and
    TrainingDivergedError (carrying the epoch index) if the loss ever
    becomes non-finite.
    """
    n = norm_adj.n
    if labels.shape != (n, n):
        raise ValueError(f"labels shape {labels.shape} does not match n={n}")
    labels = sp.csr_matrix(labels, dtype=np.float64, copy=True)
    labels.sort_indices()
    if not labels.has_canonical_format or np.any(labels.data != 1.0):
        raise ValueError("labels must store only ones: no stored zeros, duplicates or other values")
    lw = loss_weights(n, int(labels.nnz))

    weights = [w.copy() for w in init_weights(config, n)]
    m_state = [np.zeros_like(w) for w in weights]
    v_state = [np.zeros_like(w) for w in weights]
    history = []
    for epoch in range(config.epochs):
        loss, grads = _loss_value_and_gradient(tuple(weights), norm_adj, labels, lw, BLOCK_ROWS)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        history.append(loss)
        t = epoch + 1
        for k, g in enumerate(grads):
            m_state[k] = ADAM_BETA1 * m_state[k] + (1.0 - ADAM_BETA1) * g
            v_state[k] = ADAM_BETA2 * v_state[k] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m_state[k] / (1.0 - ADAM_BETA1**t)
            v_hat = v_state[k] / (1.0 - ADAM_BETA2**t)
            weights[k] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    final_weights = tuple(weights)
    z = forward(final_weights, norm_adj)
    final_loss = reconstruction_loss(z, labels, lw, BLOCK_ROWS)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(
            f"non-finite loss after final epoch {config.epochs - 1}",
            epoch=config.epochs - 1,
        )
    history.append(final_loss)
    return EmbeddingModel(
        Z=z,
        model_kind=config.model_kind,
        weights=final_weights,
        loss_history=np.array(history),
    )


CHECKPOINT_VERSION = 1


def save_model(model: EmbeddingModel, config: TrainConfig, path) -> None:
    """Write a versioned npz checkpoint.

    Layout (all float64 unless noted): ``format_version`` (int),
    ``model_kind`` (str), ``weight_<k>`` for each weight matrix, ``Z``,
    ``loss_history``, and the scalar config fields ``embed_dim``,
    ``hidden_dim``, ``learning_rate``, ``epochs``, ``seed``.  Values
    round-trip exactly.
    """
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "model_kind": np.str_(model.model_kind.value),
        "Z": model.Z,
        "loss_history": model.loss_history,
        "embed_dim": np.int64(config.embed_dim),
        "hidden_dim": np.int64(config.hidden_dim),
        "learning_rate": np.float64(config.learning_rate),
        "epochs": np.int64(config.epochs),
        "seed": np.int64(config.seed),
    }
    for k, w in enumerate(model.weights):
        payload[f"weight_{k}"] = w
    np.savez(path, **payload)


def load_model(path):
    """Read a checkpoint written by save_model; returns (model, config).

    A stored ``dense_threshold`` (written by older versions) is ignored.
    """
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        kind = ModelKind(str(data["model_kind"]))
        weights = []
        k = 0
        while f"weight_{k}" in data:
            weights.append(data[f"weight_{k}"])
            k += 1
        config = TrainConfig(
            model_kind=kind,
            embed_dim=int(data["embed_dim"]),
            hidden_dim=int(data["hidden_dim"]),
            learning_rate=float(data["learning_rate"]),
            epochs=int(data["epochs"]),
            seed=int(data["seed"]),
        )
        model = EmbeddingModel(
            Z=data["Z"],
            model_kind=kind,
            weights=tuple(weights),
            loss_history=data["loss_history"],
        )
    return model, config
