"""Seeded train/validation/test edge splits and negative-pair sampling.

Split sizes use round-half-up on the validation and test ratios with the
remainder going to train.  Negative pairs are always heterogeneous
(left x right), are checked against the FULL edge set so no true edge is
ever labeled negative, and validation/test negatives are disjoint.

This module owns the package's seeding: every random stream, here and in
the graph generators and weight initialization, is a counter-based Philox
generator from ``philox``, and ``child_keys`` derives independent keys from
one seed.  A (graph, ratios, seed) triple therefore always produces an
identical split.  Seeds are taken modulo 2**64, so a negative or oversized
seed names the same stream as its residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, build_graph

# Below this fraction of free (non-edge) cells, rejection sampling may stall,
# so negatives are drawn by enumerating and shuffling all free cells instead.
ENUMERATION_DENSITY = 0.05


@dataclass(frozen=True)
class EdgeSplit:
    """One experimental split: train/val/test positives plus sampled negatives.

    All pairs are in partition-local (left_index, right_index) indexing.
    ``train_edges`` is sorted; the positive/negative sequences keep their
    sampling order.
    """

    train_edges: tuple
    val_pos: tuple
    test_pos: tuple
    val_neg: tuple
    test_neg: tuple
    seed: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def philox(key: int) -> np.random.Generator:
    """The Philox generator keyed by ``key`` mod 2**64."""
    return np.random.Generator(np.random.Philox(key=int(key) & (2**64 - 1)))


def child_keys(seed: int, n: int) -> list:
    """``n`` independent 64-bit keys derived from ``seed`` mod 2**64."""
    ss = np.random.SeedSequence(int(seed) & (2**64 - 1))
    return [int(k) for k in ss.generate_state(n, dtype=np.uint64)]


def sample_negatives(g: BipartiteGraph, count: int, exclude, seed: int) -> tuple:
    """Draw ``count`` distinct heterogeneous non-edge pairs.

    Pairs are (left_index, right_index), never an edge of ``g`` and never in
    ``exclude``.  Raises ValueError when fewer than ``count`` free cells
    exist.  Uses rejection sampling on a Philox stream, falling back to
    enumerate-and-shuffle when the graph is so dense that rejection would
    struggle to terminate.
    """
    if count < 0:
        raise ValueError(f"negative sample count {count}")
    if count == 0:
        return ()
    total_cells = g.n_left * g.n_right
    edges = g.edge_set
    excluded = {(int(u), int(v)) for u, v in exclude} - edges
    available = total_cells - g.m - len(excluded)
    if count > available:
        raise ValueError(
            f"cannot sample {count} negatives: only {available} non-edge "
            f"pairs are available"
        )

    rng = philox(seed)
    non_edge_density = (total_cells - g.m) / total_cells
    if non_edge_density < ENUMERATION_DENSITY:
        # Row-major enumeration: the free cells come out sorted.
        cells = ((u, v) for u in range(g.n_left) for v in range(g.n_right))
        free = [c for c in cells if c not in edges and c not in excluded]
        order = rng.permutation(len(free))
        return tuple(free[i] for i in order[:count])

    picked = []
    # Excluded pairs start out as taken, so one lookup rejects them.
    picked_set = set(excluded)
    while len(picked) < count:
        batch = max(64, 2 * (count - len(picked)))
        us = rng.integers(0, g.n_left, size=batch)
        vs = rng.integers(0, g.n_right, size=batch)
        for u, v in zip(us.tolist(), vs.tolist()):
            if len(picked) >= count:
                break
            pair = (u, v)
            if pair in edges or pair in picked_set:
                continue
            picked.append(pair)
            picked_set.add(pair)
    return tuple(picked)


def split_edges(g: BipartiteGraph, ratios, seed: int) -> EdgeSplit:
    """Partition the edge set into train/val/test plus sampled negatives.

    ``ratios`` is (train, val, test); each must be positive and they must sum
    to 1.  Sizes: |test| = round_half_up(test_ratio * m), |val| likewise,
    train takes the remainder.  Deterministic in (g, ratios, seed).
    """
    train_r, val_r, test_r = (float(r) for r in ratios)
    if min(train_r, val_r, test_r) <= 0:
        raise ValueError(f"ratios must be positive, got {ratios}")
    if abs(train_r + val_r + test_r - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    m = g.m
    if m < 3:
        raise ValueError(f"graph has {m} edges; need at least 3 to split")

    n_test = _round_half_up(test_r * m)
    n_val = _round_half_up(val_r * m)
    n_train = m - n_test - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split sizes (train={n_train}, val={n_val}, test={n_test}) for "
            f"m={m}: every part needs at least one edge"
        )
    available = g.n_left * g.n_right - m
    if n_val + n_test > available:
        raise ValueError(
            f"need {n_val + n_test} negatives but only {available} non-edge "
            f"pairs exist"
        )

    shuffle_key, val_key, test_key = child_keys(seed, 3)
    order = philox(shuffle_key).permutation(m)
    edges = g.edges
    test_pos = tuple(edges[i] for i in order[:n_test])
    val_pos = tuple(edges[i] for i in order[n_test : n_test + n_val])
    train_edges = tuple(sorted(edges[i] for i in order[n_test + n_val :]))

    val_neg = sample_negatives(g, n_val, exclude=(), seed=val_key)
    test_neg = sample_negatives(g, n_test, exclude=val_neg, seed=test_key)
    return EdgeSplit(
        train_edges=train_edges,
        val_pos=val_pos,
        test_pos=test_pos,
        val_neg=val_neg,
        test_neg=test_neg,
        seed=int(seed),
    )


def train_graph(g: BipartiteGraph, split: EdgeSplit) -> BipartiteGraph:
    """Graph on the same node set whose edges are exactly the train edges."""
    return build_graph(g.n_left, g.n_right, split.train_edges)


_SECTIONS = ("train", "val_pos", "val_neg", "test_pos", "test_neg")


def save_split(split: EdgeSplit, path) -> None:
    """Serialize a split to text for audit and replay (see load_split)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#seed\n{split.seed}\n")
        for name in _SECTIONS:
            pairs = split.train_edges if name == "train" else getattr(split, name)
            fh.write(f"#{name}\n")
            for u, v in pairs:
                fh.write(f"{u} {v}\n")


def load_split(path, g: BipartiteGraph) -> EdgeSplit:
    """Read a split written by save_split and check it against ``g``.

    Raises ValueError naming the first bad pair unless the train, val_pos
    and test_pos pairs partition ``g.edges`` exactly, every negative is an
    in-range non-edge, and no pair is both a validation and a test negative.
    """
    sections = {name: [] for name in _SECTIONS}
    seed_lines = []
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                name = line[1:].strip()
                if name != "seed" and name not in sections:
                    raise ValueError(f"{path}:{lineno}: unknown section '#{name}'")
                current = name
                continue
            if current == "seed":
                seed_lines.append(line)
            elif current is None:
                raise ValueError(f"{path}:{lineno}: data before any section header")
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
                sections[current].append((int(parts[0]), int(parts[1])))
    if len(seed_lines) != 1:
        raise ValueError(f"{path}: expected exactly one seed line")
    _check_split_pairs(path, g, sections)
    return EdgeSplit(
        train_edges=tuple(sections["train"]),
        val_pos=tuple(sections["val_pos"]),
        test_pos=tuple(sections["test_pos"]),
        val_neg=tuple(sections["val_neg"]),
        test_neg=tuple(sections["test_neg"]),
        seed=int(seed_lines[0]),
    )


def _check_split_pairs(path, g: BipartiteGraph, sections: dict) -> None:
    seen = set()
    for name in ("train", "val_pos", "test_pos"):
        for pair in sections[name]:
            if pair not in g.edge_set:
                raise ValueError(f"{path}: #{name} pair {pair} is not an edge of the graph")
            if pair in seen:
                raise ValueError(f"{path}: #{name} pair {pair} is listed twice among the positives")
            seen.add(pair)
    for pair in g.edges:
        if pair not in seen:
            raise ValueError(f"{path}: edge {pair} of the graph is in no positive section")
    for name in ("val_neg", "test_neg"):
        for u, v in sections[name]:
            if not (0 <= u < g.n_left and 0 <= v < g.n_right):
                raise ValueError(f"{path}: #{name} pair {(u, v)} is out of range")
            if (u, v) in g.edge_set:
                raise ValueError(f"{path}: #{name} pair {(u, v)} is an edge of the graph")
    val_neg = set(sections["val_neg"])
    for pair in sections["test_neg"]:
        if pair in val_neg:
            raise ValueError(f"{path}: #test_neg pair {pair} is also in #val_neg")
