#!/usr/bin/env python3
"""Train the linear autoencoder on the women-by-events network.

Shows the loss trajectory, what the embeddings reconstruct, and the
two-layer encoder behind the same interface.

Run: python demos/02_training.py
"""

import numpy as np

from bihop import (
    ModelKind,
    TrainConfig,
    adjacency,
    decode_score,
    normalize,
    southern_women_graph,
    split_edges,
    train,
    train_graph,
    training_labels,
)

print("=" * 64)
print("1. Prepare training inputs")
print("=" * 64)

g = southern_women_graph()
split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
gt = train_graph(g, split)
a_train = adjacency(gt)
norm = normalize(gt.adj)
labels = training_labels(a_train)
print(f"graph: {g.n} nodes, training edges: {gt.m}")
print(f"label matrix keeps edges plus self-loops: nnz = {labels.nnz}")

print()
print("=" * 64)
print("2. Train the one-matrix encoder")
print("=" * 64)

config = TrainConfig(
    model_kind=ModelKind.LGAE,
    embed_dim=16,
    learning_rate=0.01,
    epochs=200,
    seed=0,
)
model = train(norm, labels, config)
history = model.loss_history
print(f"epochs: {config.epochs}, embedding shape: {model.Z.shape}")
print("loss trajectory (weighted cross-entropy):")
for epoch in (0, 10, 50, 100, 200):
    print(f"  epoch {epoch:>3}: {history[epoch]:.4f}")
print(f"loss decreased overall: {history[-1] < history[0]}")

print()
print("=" * 64)
print("3. What the decoder says about known pairs")
print("=" * 64)

# One training edge, one held-out edge and one sampled non-edge, as
# (left, right) rows; the decoder is told where the right side starts.
pairs = np.stack([split.train_edges[0], split.test_pos[0], split.test_neg[0]])
probs = decode_score(model, g.n_left, pairs)
train_pair, held_pair, non_edge = map(tuple, pairs.tolist())
print(f"decoded probability, training edge  {train_pair}: {probs[0]:.3f}")
print(f"decoded probability, held-out edge  {held_pair}: {probs[1]:.3f}")
print(f"decoded probability, sampled non-edge {non_edge}: {probs[2]:.3f}")

print()
print("=" * 64)
print("4. The two-layer encoder uses the same interface")
print("=" * 64)

gae_config = TrainConfig(
    model_kind=ModelKind.GAE,
    embed_dim=16,
    hidden_dim=32,
    learning_rate=0.01,
    epochs=200,
    seed=0,
)
gae_model = train(norm, labels, gae_config)
print(f"weights: {len(gae_model.weights)} matrices "
      f"{[w.shape for w in gae_model.weights]}")
print(f"final loss, one-matrix encoder: {history[-1]:.4f}")
print(f"final loss, two-layer encoder:  {gae_model.loss_history[-1]:.4f}")
