#!/usr/bin/env python3
"""Walk through the graph layer: construction, adjacency, normalization, splits.

Run: python demos/01_graph_basics.py
"""

import numpy as np

from bihop import (
    adjacency,
    build_graph,
    normalize,
    southern_women_graph,
    split_edges,
    train_graph,
)

print("=" * 64)
print("1. Build a toy bipartite graph")
print("=" * 64)

# Three left nodes, three right nodes, four edges.  Pairs are given in
# partition-local indices: (left_index, right_index).
g = build_graph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])
print(f"nodes: {g.n_left} left + {g.n_right} right = {g.n}")
print(f"edges: {g.m}")
print(f"left degrees:  {g.degrees()[: g.n_left].tolist()}")
print(f"right node 1 sits at global index {g.n_left + 1}")
# The adjacency is the one edge store: an edge is an entry of it.
print(f"edge (0, 1): {bool(g.adj[0, g.n_left + 1])}")
print(f"edge (2, 0): {bool(g.adj[2, g.n_left + 0])}")

print()
print("=" * 64)
print("2. Adjacency and its normalized form")
print("=" * 64)

a = adjacency(g)
print("adjacency (dense view, left block rows 0..2, right block rows 3..5):")
print(a.toarray())

norm = normalize(g.adj)
print("normalized adjacency (self-loops added, scaled by degree products):")
print(np.round(norm.matrix.toarray(), 3))
print(f"self-loop degrees: {g.degrees() + 1}")

print()
print("single-edge sanity check: a 1+1 graph normalizes to all 0.5 exactly")
tiny = build_graph(1, 1, [(0, 0)])
print(normalize(tiny.adj).matrix.toarray())

print()
print("=" * 64)
print("3. Split edges for evaluation")
print("=" * 64)

women = southern_women_graph()
print(f"women-by-events network: {women.n_left}+{women.n_right} nodes, {women.m} edges")

split = split_edges(women, (0.85, 0.05, 0.10), seed=0)
print(f"train edges: {len(split.train_edges)}")
print(f"val:  {len(split.val_pos)} held-out edges + {len(split.val_neg)} sampled non-edges")
print(f"test: {len(split.test_pos)} held-out edges + {len(split.test_neg)} sampled non-edges")

gt = train_graph(women, split)
print(f"training graph keeps the node set ({gt.n_left}+{gt.n_right}) "
      f"but only {gt.m} edges")

# Each part is a read-only (k, 2) int64 array of (left, right) pairs.  A
# cell's key left * n_right + right makes membership one sorted lookup.
held_out = np.concatenate([split.val_pos, split.test_pos])
overlap = np.isin(gt.cell_keys(held_out), gt.edge_keys)
print(f"parts are {split.test_pos.dtype} arrays, test part shaped {split.test_pos.shape}")
print(f"held-out edges seen by the training graph: {overlap.sum()} (expected 0)")

print()
print("same seed, same split:")
again = split_edges(women, (0.85, 0.05, 0.10), seed=0)
parts = ("train_edges", "val_pos", "test_pos", "val_neg", "test_neg")
print(f"identical = {all(np.array_equal(getattr(split, p), getattr(again, p)) for p in parts)}")
