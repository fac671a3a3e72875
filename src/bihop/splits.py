"""Seeded train/validation/test edge splits and negative-pair sampling.

Split sizes use round-half-up on the validation and test ratios with the
remainder going to train.  Negative pairs are always heterogeneous
(left x right), are checked against the FULL edge set so no true edge is
ever labeled negative, and validation/test negatives are disjoint.

Every pair set here is a read-only (k, 2) int64 array of partition-local
(left, right) pairs, tested for membership by cell key (``g.cell_keys``).

This module owns the package's seeding: every random stream, here and in
the graph generators and weight initialization, is a counter-based Philox
generator from ``philox``, and ``child_keys`` derives independent keys from
one seed.  A (graph, ratios, seed) triple therefore always produces an
identical split.  Seeds are taken modulo 2**64, so a negative or oversized
seed names the same stream as its residue; a seed or count that is not an
integer raises TypeError (``graph.check_int``) rather than being truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, build_graph, check_int, check_real, in_sorted, pair_array, read_only

# Below this fraction of free (non-edge) cells, rejection sampling may stall,
# so negatives are drawn by enumerating and shuffling all free cells instead.
ENUMERATION_DENSITY = 0.05


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """One experimental split: train/val/test positives plus sampled negatives.

    Each of the five pair fields is a read-only (k, 2) int64 array of
    partition-local (left_index, right_index) pairs.  ``train_edges`` is
    sorted; the positive/negative arrays keep their sampling order.
    Equality is identity; compare the fields with ``np.array_equal``.
    """

    train_edges: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    seed: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def philox(seed: int) -> np.random.Generator:
    """The Philox generator keyed by the integer ``seed`` mod 2**64."""
    return np.random.Generator(np.random.Philox(key=check_int("seed", seed) & (2**64 - 1)))


def child_keys(seed: int, n: int) -> list:
    """``n`` independent 64-bit keys derived from the integer ``seed`` mod 2**64."""
    ss = np.random.SeedSequence(check_int("seed", seed) & (2**64 - 1))
    return [int(k) for k in ss.generate_state(check_int("n", n, low=0), dtype=np.uint64)]


def sample_negatives(g: BipartiteGraph, count: int, exclude, seed: int) -> np.ndarray:
    """Draw ``count`` distinct heterogeneous non-edge pairs.

    Returns a read-only (count, 2) int64 array of (left_index, right_index)
    pairs, never an edge of ``g`` and never in ``exclude`` (local pairs).
    ValueError names an ``exclude`` entry that is not an integer pair in
    range, and is raised when fewer than ``count`` free cells exist.  Uses
    rejection sampling on a Philox stream, a batch at a time, falling back
    to enumerate-and-shuffle when the graph is so dense that rejection would
    struggle to terminate.
    """
    count, seed = check_int("count", count, low=0), check_int("seed", seed)
    excluded = np.unique(g.cell_keys(pair_array(exclude, g.n_left, g.n_right, what="exclude pair")))
    if count == 0:
        return read_only(np.empty((0, 2), dtype=np.int64))
    total_cells = g.n_left * g.n_right
    excluded = excluded[~in_sorted(g.edge_keys, excluded)]
    available = total_cells - g.m - excluded.size
    if count > available:
        raise ValueError(
            f"cannot sample {count} negatives: only {available} non-edge "
            f"pairs are available"
        )

    rng = philox(seed)
    non_edge_density = (total_cells - g.m) / total_cells
    if non_edge_density < ENUMERATION_DENSITY:
        # Row-major enumeration: the free cells come out sorted.
        free = np.ones(total_cells, dtype=bool)
        free[g.edge_keys] = free[excluded] = False
        keys = np.flatnonzero(free)[rng.permutation(available)[:count]]
    else:
        # ``taken``: the sorted keys of the excluded and the picked cells.
        taken, picked, need = excluded, [], count
        while need:
            batch = max(64, 2 * need)
            us = rng.integers(0, g.n_left, size=batch)
            vs = rng.integers(0, g.n_right, size=batch)
            drawn = us * g.n_right + vs
            drawn = drawn[~(in_sorted(g.edge_keys, drawn) | in_sorted(taken, drawn))]
            # A cell drawn twice is kept at its first draw.
            _, first = np.unique(drawn, return_index=True)
            new = drawn[np.sort(first)[:need]]
            picked.append(new)
            taken = np.union1d(taken, new)
            need -= new.size
        keys = np.concatenate(picked)
    return read_only(np.column_stack(np.divmod(keys, g.n_right)))


def check_ratios(ratios) -> tuple:
    """``ratios`` as three floats (train, val, test).  Each must pass
    ``check_real`` (positive and finite), and ValueError is raised unless
    there are three and they sum to 1 within 1e-9."""
    values = tuple(check_real(f"ratios[{i}]", r) for i, r in enumerate(ratios))
    if len(values) != 3 or abs(math.fsum(values) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three finite, positive values summing to 1, got {values}")
    return values


def split_edges(g: BipartiteGraph, ratios, seed: int) -> EdgeSplit:
    """Partition the edge set into train/val/test plus sampled negatives.

    ``ratios`` is (train, val, test), as ``check_ratios`` accepts them.
    Sizes: |test| = round_half_up(test_ratio * m), |val| likewise, train
    takes the remainder.  Deterministic in (g, ratios, seed).  ValueError
    if a part would be empty or, from ``sample_negatives``, if fewer than
    |val| + |test| non-edges exist.
    """
    _, val_r, test_r = check_ratios(ratios)
    seed = check_int("seed", seed)
    m = g.m
    n_test = _round_half_up(test_r * m)
    n_val = _round_half_up(val_r * m)
    n_train = m - n_test - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split sizes (train={n_train}, val={n_val}, test={n_test}) for "
            f"m={m}: every part needs at least one edge"
        )

    shuffle_key, val_key, test_key = child_keys(seed, 3)
    order = philox(shuffle_key).permutation(m)
    val_neg = sample_negatives(g, n_val, exclude=(), seed=val_key)
    test_neg = sample_negatives(g, n_test, exclude=val_neg, seed=test_key)
    return EdgeSplit(
        # g.edges is sorted, so sorted positions give sorted training edges.
        train_edges=read_only(g.edges[np.sort(order[n_test + n_val :])]),
        val_pos=read_only(g.edges[order[n_test : n_test + n_val]]),
        test_pos=read_only(g.edges[order[:n_test]]),
        val_neg=val_neg,
        test_neg=test_neg,
        seed=seed,
    )


def train_graph(g: BipartiteGraph, split: EdgeSplit) -> BipartiteGraph:
    """Graph on the same node set whose edges are exactly the train edges."""
    return build_graph(g.n_left, g.n_right, split.train_edges)


# Section header in a split file -> EdgeSplit field, in file order.
_SECTIONS = {
    "train": "train_edges", "val_pos": "val_pos", "val_neg": "val_neg",
    "test_pos": "test_pos", "test_neg": "test_neg",
}


def save_split(split: EdgeSplit, path) -> None:
    """Serialize a split to text for audit and replay (see load_split)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#seed\n{split.seed}\n")
        for name, field in _SECTIONS.items():
            fh.write(f"#{name}\n")
            for u, v in getattr(split, field):
                fh.write(f"{u} {v}\n")


def load_split(path, g: BipartiteGraph) -> EdgeSplit:
    """Read a split written by save_split and check it against ``g``.

    Raises ValueError naming the first bad pair unless the train, val_pos
    and test_pos pairs partition ``g.edges`` exactly, every negative is an
    in-range non-edge listed once in its section, and no pair is both a
    validation and a test negative.  The pairs keep their file order.
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
                seed_lines.append(_int_token(path, lineno, line))
            elif current is None:
                raise ValueError(f"{path}:{lineno}: data before any section header")
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
                sections[current].append(tuple(_int_token(path, lineno, token) for token in parts))
    if len(seed_lines) != 1:
        raise ValueError(f"{path}: expected exactly one seed line")
    try:
        pairs = {name: np.array(sections[name], dtype=np.int64).reshape(-1, 2) for name in _SECTIONS}
    except OverflowError:
        raise ValueError(f"{path}: a pair index does not fit in int64") from None
    _check_split_pairs(path, g, pairs)
    fields = {field: read_only(pairs[name]) for name, field in _SECTIONS.items()}
    return EdgeSplit(**fields, seed=seed_lines[0])


def _int_token(path, lineno: int, token: str) -> int:
    """``token`` as an int; ValueError naming ``path:lineno`` if it is not one."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {token!r} is not an integer") from None


def _check_split_pairs(path, g: BipartiteGraph, sections: dict) -> None:
    """Raise ValueError naming the first bad positive, else the first bad negative."""
    for names in (("train", "val_pos", "test_pos"), ("val_neg", "test_neg")):
        pairs = np.concatenate([sections[name] for name in names])
        section = np.repeat(names, [len(sections[name]) for name in names])
        us, vs = pairs[:, 0], pairs[:, 1]
        outside = (us < 0) | (us >= g.n_left) | (vs < 0) | (vs >= g.n_right)
        keys = np.where(outside, -1, g.cell_keys(pairs))
        edge = np.isin(keys, g.edge_keys)
        repeat = np.ones(keys.size, dtype=bool)
        repeat[np.unique(keys, return_index=True)[1]] = False
        if names[0] == "train":
            checks = (
                (~edge, "is not an edge of the graph"), (repeat, "is listed twice among the positives")
            )
        else:
            in_val = (section == "test_neg") & np.isin(keys, keys[section == "val_neg"])
            checks = (
                (outside, "is out of range"), (edge, "is an edge of the graph"),
                (in_val, "is also in #val_neg"), (repeat, "is listed twice"),
            )
        bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
        if bad.size:
            i = bad[0]
            what = next(what for mask, what in checks if mask[i])
            raise ValueError(f"{path}: #{section[i]} pair {tuple(pairs[i].tolist())} {what}")
        if names[0] == "train" and keys.size < g.m:
            missing = tuple(g.edges[np.argmin(np.isin(g.edge_keys, keys))].tolist())
            raise ValueError(f"{path}: edge {missing} of the graph is in no positive section")
