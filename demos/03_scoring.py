#!/usr/bin/env python3
"""Score held-out pairs with the two-hop composition and the baselines.

The interesting comparison: the plain decoder looks at one pair of
embeddings, while the two-hop score routes that reconstruction through the
normalized training adjacency, crediting pairs whose neighborhoods already
lean toward each other.

Run: python demos/03_scoring.py
"""

import numpy as np

from bihop import (
    ScorerKind,
    TrainConfig,
    adjacency,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_index,
    katz_score,
    normalize,
    roc_auc,
    southern_women_graph,
    split_edges,
    train,
    train_graph,
    training_labels,
    two_hop_score,
)

print("=" * 64)
print("1. Train once on the training portion of a split")
print("=" * 64)

g = southern_women_graph()
split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
gt = train_graph(g, split)
a_train = adjacency(gt)
norm = normalize(gt.adj)
model = train(norm, training_labels(a_train), TrainConfig(seed=0))
print(f"training edges: {gt.m}, held-out test edges: {len(split.test_pos)}")

# Scorers take global (k, 2) pair arrays: shift each right index by n_left.
test_pos = split.test_pos + (0, g.n_left)
test_neg = split.test_neg + (0, g.n_left)
pairs = np.concatenate([test_pos, test_neg])

print()
print("=" * 64)
print("2. Rank test edges against sampled non-edges")
print("=" * 64)

print(f"{'scorer':<18} {'AUC':>6}")

mixed = two_hop_score(model, norm, pairs)
auc = roc_auc(mixed[: len(test_pos)], mixed[len(test_pos):])
print(f"{'two_hop':<18} {auc:>6.3f}")

plain = decode_score(model, pairs)
auc = roc_auc(plain[: len(test_pos)], plain[len(test_pos):])
print(f"{'lgae decoder':<18} {auc:>6.3f}")

index = heuristic_index(gt)  # built once, shared by the five heuristics
for kind in (
    ScorerKind.PREFERENTIAL_ATTACHMENT,
    ScorerKind.COMMON_NEIGHBORS,
    ScorerKind.JACCARD,
    ScorerKind.ADAMIC_ADAR,
    ScorerKind.RESOURCE_ALLOCATION,
):
    result = heuristic_scores(index, kind, pairs)
    auc = roc_auc(result[: len(test_pos)], result[len(test_pos):])
    print(f"{kind.value:<18} {auc:>6.3f}")

# Katz reads an index of the training graph; its closed form solves
# through the smaller side's Gram matrix, built by the first call and kept.
katz = katz_score(katz_index(gt), 0.005, pairs)
auc = roc_auc(katz[: len(test_pos)], katz[len(test_pos):])
print(f"{'katz':<18} {auc:>6.3f}")

print()
print("note: one seed on a 32-node graph is noisy; the benchmark harness")
print("averages 50 reseeded splits before comparing scorers.")

print()
print("=" * 64)
print("3. Inspect a few pairs side by side")
print("=" * 64)

sample = np.concatenate([test_pos[:3], test_neg[:3]])
two = two_hop_score(model, norm, sample)
dec = decode_score(model, sample)
print(f"{'pair':<10} {'label':<6} {'two_hop':>9} {'decoder':>9}")
for i, pair in enumerate(sample):
    label = "edge" if i < 3 else "none"
    print(f"{str(tuple(pair.tolist())):<10} {label:<6} {two[i]:>9.4f} {dec[i]:>9.4f}")

