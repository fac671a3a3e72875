#!/usr/bin/env python3
"""Score held-out pairs with the two-hop composition and the baselines.

The interesting comparison: the plain decoder looks at one pair of
embeddings, while the two-hop score routes that reconstruction through the
normalized training adjacency, crediting pairs whose neighborhoods already
lean toward each other.

Run: python demos/03_scoring.py
"""

import tempfile
from pathlib import Path

from bihop import (
    ScorerKind,
    TrainConfig,
    adjacency,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_score,
    normalized_adjacency,
    roc_auc,
    southern_women_graph,
    split_edges,
    train,
    train_graph,
    training_labels,
    two_hop_score,
    write_scores_csv,
)

print("=" * 64)
print("1. Train once on the training portion of a split")
print("=" * 64)

g = southern_women_graph()
split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
gt = train_graph(g, split)
a_train = adjacency(gt)
norm = normalized_adjacency(gt)
model = train(norm, training_labels(a_train), TrainConfig(seed=0))
print(f"training edges: {gt.m}, held-out test edges: {len(split.test_pos)}")

test_pos = [(u, g.right_global(v)) for u, v in split.test_pos]
test_neg = [(u, g.right_global(v)) for u, v in split.test_neg]

print()
print("=" * 64)
print("2. Rank test edges against sampled non-edges")
print("=" * 64)

print(f"{'scorer':<18} {'AUC':>6}")

mixed = two_hop_score(model, norm, test_pos + test_neg)
auc = roc_auc(mixed.scores[: len(test_pos)], mixed.scores[len(test_pos):])
print(f"{'two_hop':<18} {auc:>6.3f}")

plain = decode_score(model, test_pos + test_neg)
auc = roc_auc(plain.scores[: len(test_pos)], plain.scores[len(test_pos):])
print(f"{'lgae decoder':<18} {auc:>6.3f}")

index = heuristic_index(gt)  # built once, shared by the five heuristics
for kind in (
    ScorerKind.PREFERENTIAL_ATTACHMENT,
    ScorerKind.COMMON_NEIGHBORS,
    ScorerKind.JACCARD,
    ScorerKind.ADAMIC_ADAR,
    ScorerKind.RESOURCE_ALLOCATION,
):
    result = heuristic_scores(index, kind, test_pos + test_neg)
    auc = roc_auc(result.scores[: len(test_pos)], result.scores[len(test_pos):])
    print(f"{kind.value:<18} {auc:>6.3f}")

katz = katz_score(a_train, 0.005, test_pos + test_neg)
auc = roc_auc(katz.scores[: len(test_pos)], katz.scores[len(test_pos):])
print(f"{'katz':<18} {auc:>6.3f}")

print()
print("note: one seed on a 32-node graph is noisy; the benchmark harness")
print("averages 50 reseeded splits before comparing scorers.")

print()
print("=" * 64)
print("3. Inspect a few pairs side by side")
print("=" * 64)

sample = test_pos[:3] + test_neg[:3]
two = two_hop_score(model, norm, sample).scores
dec = decode_score(model, sample).scores
print(f"{'pair':<10} {'label':<6} {'two_hop':>9} {'decoder':>9}")
for i, pair in enumerate(sample):
    label = "edge" if i < 3 else "none"
    print(f"{str(pair):<10} {label:<6} {two[i]:>9.4f} {dec[i]:>9.4f}")

print()
print("=" * 64)
print("4. Persist scores for downstream analysis")
print("=" * 64)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "scores.csv"
    labels = [1] * len(test_pos) + [0] * len(test_neg)
    write_scores_csv(mixed, out, labels=labels)
    lines = out.read_text().splitlines()
    print(f"wrote {len(lines) - 1} rows to {out.name}:")
    for line in lines[:4]:
        print(f"  {line}")
