"""Featureless graph autoencoders with analytic gradients and Adam training.

Two encoders over the normalized adjacency ``An`` (features fixed to the
identity, so the feature matrix never appears):

* linear:   Z = An @ W
* two-layer GCN: Z = An @ relu(An @ W0) @ W1

Both share the inner-product decoder ``sigmoid(z_i . z_j)`` and a weighted
binary cross-entropy reconstruction loss over all n^2 node pairs against the
symmetric label matrix ``A_train + I``; as in Kipf & Welling's GAE, the
class weights follow from the labels alone.  ``sigmoid`` is this module's
numpy form, 1 / (1 + exp(-x)), which every scorer calls too.  Gradients are
computed analytically (verified against finite differences in the test
suite).  The logits ``Z Z^T`` are symmetric too, so loss and gradient stream
over the square tiles on and above the diagonal, ``TILE_SIDE`` nodes a side,
in index order for every n, and results are deterministic.  Each tile scores
all its pairs as negatives, then overwrites the label-one entries it owns,
found through flat in-tile indices built once from the sparse labels; no
dense label matrix is ever built.  Both classes' terms, the positive ones
included, read the tile's one L = log1p(exp(-|theta|)), so the kernel calls
no sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .graph import NormalizedAdjacency, check_int, check_real
from .splits import philox

TILE_SIDE = 128
# Rows per block of the GCN encoder's dW1 sum; up to this many nodes it is
# one product.
_GRAD_ROWS = 256

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

    def __reduce__(self):
        # The default rebuilds from ``args`` alone, which lacks ``epoch``;
        # the state dict carries ``epoch`` and any ``__notes__``.
        return type(self), (self.args[0], self.epoch), self.__dict__


@dataclass(frozen=True)
class TrainConfig:
    model_kind: ModelKind = ModelKind.LGAE
    embed_dim: int = 16
    hidden_dim: int = 32
    learning_rate: float = 0.01
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        hidden_low = 1 if self.model_kind is ModelKind.GAE else None
        for key, low in (("embed_dim", 1), ("hidden_dim", hidden_low), ("epochs", 1), ("seed", None)):
            object.__setattr__(self, key, check_int(key, getattr(self, key), low))
        object.__setattr__(self, "learning_rate", check_real("learning_rate", self.learning_rate))


@dataclass(frozen=True, eq=False)
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


def _gae_parts(norm_adj: NormalizedAdjacency, w0: np.ndarray, w1: np.ndarray) -> tuple:
    """(pre, hidden, Z) of the GCN encoder: pre = An @ W0, hidden = relu(pre),
    Z = An @ hidden @ W1; the gradient reads pre and hidden back."""
    pre = norm_adj.matrix @ w0
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, (norm_adj.matrix @ hidden) @ w1


def forward(weights: tuple, norm_adj: NormalizedAdjacency) -> np.ndarray:
    """Z of the linear encoder for (W,), of the two-layer GCN for (W0, W1)."""
    if len(weights) == 1:
        return norm_adj.matrix @ weights[0]
    if len(weights) == 2:
        return _gae_parts(norm_adj, weights[0], weights[1])[2]
    raise ValueError(f"expected 1 or 2 weight matrices, got {len(weights)}")


def sigmoid(x, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, into ``out`` when given (may be ``x``).

    exp(-x) overflows to inf below x of about -709, which gives exactly 0.0;
    the overflow is expected and raises no warning.
    """
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(x, out=out), out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def decode_pairs(z: np.ndarray, us, vs) -> np.ndarray:
    """Edge probabilities sigmoid(z_u . z_v) over parallel index arrays."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    dots = np.einsum("ij,ij->i", z[us], z[vs])
    return sigmoid(dots, out=dots)


def training_labels(a_train: sp.spmatrix) -> sp.csr_matrix:
    """Label matrix for reconstruction: training adjacency plus self-loops."""
    labels = sp.csr_matrix(a_train, dtype=np.float64) + sp.identity(a_train.shape[0], format="csr")
    labels.sort_indices()
    return labels


def _label_tiles(labels, n: int) -> tuple:
    """(side, ptr, flat, pos_weight, norm) of n x n labels with s ones.

    Raises ValueError unless the labels are n x n, store only ones, are
    symmetric and 0 < s < n^2.  pos_weight = (n^2 - s) / s balances the
    classes; norm = n^2 / (2 (n^2 - s)) rescales the mean loss.  Tile (I, J),
    I <= J, of side ``TILE_SIDE`` (read at call time) covers rows
    [I*side, (I+1)*side) and columns [J*side, (J+1)*side), and owns the
    labels ``flat[ptr[k]:ptr[k + 1]]``, k = I*nb + J with nb = ceil(n / side),
    as flat indices into the row-major tile.
    """
    if labels.shape != (n, n):
        raise ValueError(f"labels shape {labels.shape} does not match n={n}")
    labels = sp.csr_matrix(labels, dtype=np.float64, copy=True)
    labels.sort_indices()
    if not labels.has_canonical_format or np.any(labels.data != 1.0):
        raise ValueError("labels must store only ones: no stored zeros, duplicates or other values")
    if (labels != labels.T).nnz:
        raise ValueError("labels must be symmetric")
    total, s = n * n, int(labels.nnz)
    if s <= 0 or s >= total:
        raise ValueError(f"degenerate label count s={s} for n={n}")
    side = max(1, int(TILE_SIDE))
    nb = -(-n // side)
    rows = np.repeat(np.arange(n), np.diff(labels.indptr))
    bi, bj = rows // side, labels.indices // side
    upper = bi <= bj
    key = (bi * nb + bj)[upper]
    order = np.argsort(key, kind="stable")
    flat = (rows % side) * np.minimum(side, n - bj * side) + labels.indices % side
    ptr = np.searchsorted(key[order], np.arange(nb * nb + 1))
    return side, ptr, flat[upper][order], (total - s) / s, total / (2.0 * (total - s))


def _loss_and_gz(z, tiles, want_grad):
    """Shared streaming kernel: loss and (optionally) dL/dZ.

    Only tiles I <= J are computed.  An off-diagonal tile stands for itself
    and its mirror: its loss counts twice, and its residual R_IJ reaches
    both G_I (R_IJ Z_J) and G_J (R_IJ^T Z_I).  Every logit theta of a tile
    is scored as a negative from L = log1p(exp(-|theta|)):
    softplus(theta) = max(theta, 0) + L and
    sigmoid(theta) = exp(min(theta, 0) - L), with no masked pass.  The
    label-one entries the tile owns are then overwritten with their
    positive terms, read from the same L at t = -theta (L is even in
    theta): pw * (max(t, 0) + L) for the loss and -pw * exp(min(t, 0) - L)
    for the residual.  Both classes share one stable form and no term comes
    from a cancellation.  Tile side changes only round-off.
    """
    n = z.shape[0]
    side, ptr, flat, pw, norm = tiles
    nb = -(-n // side)
    loss = 0.0
    gz = np.zeros_like(z) if want_grad else None
    for bi in range(nb):
        rows = slice(bi * side, (bi + 1) * side)
        for bj in range(bi, nb):
            cols = slice(bj * side, (bj + 1) * side)
            k = bi * nb + bj
            own = flat[ptr[k] : ptr[k + 1]]
            theta = z[rows] @ z[cols].T
            t = -theta.ravel()[own]
            ell = np.abs(theta)
            np.exp(np.negative(ell, out=ell), out=ell)
            np.log1p(ell, out=ell)
            ell_t = ell.ravel()[own]
            if want_grad:
                sig = np.minimum(theta, 0.0)
                np.exp(np.subtract(sig, ell, out=sig), out=sig)
                sig.ravel()[own] = -pw * np.exp(np.minimum(t, 0.0) - ell_t)
                gz[rows] += sig @ z[cols]
                if bi != bj:
                    gz[cols] += sig.T @ z[rows]
            np.maximum(theta, 0.0, out=theta)
            theta += ell  # softplus(theta)
            theta.ravel()[own] = pw * (np.maximum(t, 0.0) + ell_t)
            loss += (1.0 if bi == bj else 2.0) * float(theta.sum())
    scale = norm / (n * n)
    if want_grad:
        gz *= 2.0 * scale  # theta = Z Z^T, so each pair reaches dL/dZ twice
    return scale * loss, gz


def reconstruction_loss(z, labels) -> float:
    """Weighted cross-entropy over all n^2 pairs (labels are A_train + I).

    Labels are checked and weighted as in ``train``.  The tiles are
    ``TILE_SIDE`` nodes a side, read at call time, as in training; a side of
    n or more makes one tile.
    """
    z = np.asarray(z, dtype=np.float64)
    return _loss_and_gz(z, _label_tiles(labels, z.shape[0]), False)[0]


def loss_gradient(weights, norm_adj, labels) -> tuple:
    """Analytic gradient of the reconstruction loss w.r.t. the weights.

    Labels and tiles are as in ``reconstruction_loss``.
    """
    return _loss_value_and_gradient(weights, norm_adj, _label_tiles(labels, norm_adj.n))[1]


def _loss_value_and_gradient(weights, norm_adj, tiles):
    if len(weights) != 2:
        loss, dz = _loss_and_gz(forward(weights, norm_adj), tiles, True)
        return loss, (norm_adj.matrix @ dz,)
    w0, w1 = weights
    pre, hidden, z = _gae_parts(norm_adj, w0, w1)
    loss, dz = _loss_and_gz(z, tiles, True)
    a_dz = norm_adj.matrix @ dz
    # dW1 = hidden^T a_dz sums over all n rows.  BLAS may split a long inner
    # dimension across its threads, which moves the last bits with the
    # thread count; an ordered sum of row blocks does not.
    dw1 = hidden[:_GRAD_ROWS].T @ a_dz[:_GRAD_ROWS]
    for lo in range(_GRAD_ROWS, hidden.shape[0], _GRAD_ROWS):
        dw1 += hidden[lo : lo + _GRAD_ROWS].T @ a_dz[lo : lo + _GRAD_ROWS]
    d_pre = (a_dz @ w1.T) * (pre > 0.0)
    dw0 = norm_adj.matrix @ d_pre
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

    Raises ValueError unless the labels are n x n, symmetric and store only
    ones, and TrainingDivergedError (carrying the epoch index) if the loss
    ever becomes non-finite.  The class weights come from the labels.
    """
    tiles = _label_tiles(labels, norm_adj.n)
    weights = [w.copy() for w in init_weights(config, norm_adj.n)]
    m_state = [np.zeros_like(w) for w in weights]
    v_state = [np.zeros_like(w) for w in weights]
    scratch = [np.empty_like(w) for w in weights]
    history = []
    for epoch in range(config.epochs):
        loss, grads = _loss_value_and_gradient(tuple(weights), norm_adj, tiles)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        history.append(loss)
        t = epoch + 1
        # In place, in the operation order of m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g g and w -= lr m_hat / (sqrt(v_hat) + eps);
        # each gradient is a fresh array, so it serves as a buffer.
        for w, m, v, buf, g in zip(weights, m_state, v_state, scratch, grads):
            np.multiply(g, 1.0 - ADAM_BETA2, out=buf)
            buf *= g
            v *= ADAM_BETA2
            v += buf
            g *= 1.0 - ADAM_BETA1
            m *= ADAM_BETA1
            m += g
            np.divide(v, 1.0 - ADAM_BETA2**t, out=buf)
            np.sqrt(buf, out=buf)
            buf += ADAM_EPS
            np.divide(m, 1.0 - ADAM_BETA1**t, out=g)
            g *= config.learning_rate
            g /= buf
            w -= g

    final_weights = tuple(weights)
    z = forward(final_weights, norm_adj)
    final_loss, _ = _loss_and_gz(z, tiles, False)
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
# The TrainConfig fields a checkpoint stores as scalars, by name.
_CONFIG_SCALARS = tuple(f.name for f in fields(TrainConfig) if f.name != "model_kind")


def save_model(model: EmbeddingModel, config: TrainConfig, path) -> None:
    """Write a versioned npz checkpoint.

    Layout (all float64 unless noted): ``format_version`` (int),
    ``model_kind`` (str), ``weight_<k>`` for each weight matrix, ``Z``,
    ``loss_history``, and each other ``TrainConfig`` field under its own
    name (``embed_dim``, ``hidden_dim``, ``learning_rate``, ``epochs``,
    ``seed``).  An integer field is stored as its decimal string, so a seed
    of any size fits.  Values round-trip exactly.
    """
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "model_kind": np.str_(model.model_kind.value),
        "Z": model.Z,
        "loss_history": model.loss_history,
    }
    for key in _CONFIG_SCALARS:
        value = getattr(config, key)
        payload[key] = np.str_(value) if isinstance(value, int) else np.float64(value)
    for k, w in enumerate(model.weights):
        payload[f"weight_{k}"] = w
    np.savez(path, **payload)


def _config_scalar(stored: np.ndarray):
    """A stored config field, an int's decimal string (int64 in older files)
    or a float64; ``.item()`` keeps any other type for TrainConfig to reject."""
    value = stored.item()
    return int(value) if isinstance(value, str) else value


def _check_checkpoint(model: EmbeddingModel, config: TrainConfig) -> None:
    """ValueError naming the first stored field of a checkpoint whose count
    or shape does not fit ``config``; n is the first weight's row count."""
    lgae = config.model_kind is ModelKind.LGAE
    if len(model.weights) != (1 if lgae else 2):
        raise ValueError(
            f"weights: a {config.model_kind.value} checkpoint holds {1 if lgae else 2}, got {len(model.weights)}"
        )
    n = model.weights[0].shape[:1]  # (n,), or () for a 0-d weight, which then fails its shape
    e, h = config.embed_dim, config.hidden_dim
    shapes = ([n + (e,)] if lgae else [n + (h,), (h, e)]) + [n + (e,), (config.epochs + 1,)]
    stored = [(f"weight_{k}", w) for k, w in enumerate(model.weights)]
    for (name, value), shape in zip(stored + [("Z", model.Z), ("loss_history", model.loss_history)], shapes):
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")


def load_model(path):
    """Read a checkpoint written by save_model; returns (model, config).

    ValueError if the weight count, or the shape of a weight, ``Z`` or
    ``loss_history``, does not fit the stored config.  A stored
    ``dense_threshold`` (written by older versions) is ignored.
    """
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        kind = ModelKind(str(data["model_kind"]))
        weights = []
        while f"weight_{len(weights)}" in data:
            weights.append(data[f"weight_{len(weights)}"])
        config = TrainConfig(model_kind=kind, **{key: _config_scalar(data[key]) for key in _CONFIG_SCALARS})
        model = EmbeddingModel(
            Z=data["Z"],
            model_kind=kind,
            weights=tuple(weights),
            loss_history=data["loss_history"],
        )
    _check_checkpoint(model, config)
    return model, config
