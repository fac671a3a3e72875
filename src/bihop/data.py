"""Dataset ingestion, the benchmark registry, generators, and CSV reports.

Edge-list files are plain UTF-8 text: one edge per line, two whitespace
separated tokens, first token a Left node id and second a Right node id.
``#`` starts a comment, blank lines are skipped.  Ids are mapped to contiguous
local indices in order of first appearance, each side numbered on its own;
an id may not appear on both sides.  ``load_edge_list`` returns the graph
alone; the ids are not kept.  ``write_edge_list`` writes ``l<i> r<j>``
lines in edge order, so a written file reads back as the same edges under
the id mapping but not as the same graph: the right side comes back
numbered in order of first appearance, in general a permutation of the one
written, and a split of it differs.

The registry (registry.json, shipped inside the package) records the twelve
benchmark networks this package targets: expected node/edge counts, source
URL when one exists, and conversion notes.  The data itself is not bundled,
with one exception: the small Southern Women event-attendance network is
embedded as a constant.
"""

from __future__ import annotations

import csv
import inspect
import json
import logging
import os
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph, GraphInputError, build_graph, check_int, check_real
from .metrics import summarize
from .splits import philox

logger = logging.getLogger(__name__)

# Attendance lists of the 18-women / 14-events social network collected by
# Davis and collaborators in the 1930s.  Women are left nodes in this order;
# right node j is event j+1.  89 edges.
SOUTHERN_WOMEN_NAMES = (
    "Evelyn Jefferson",
    "Laura Mandeville",
    "Theresa Anderson",
    "Brenda Rogers",
    "Charlotte McDowd",
    "Frances Anderson",
    "Eleanor Nye",
    "Pearl Oglethorpe",
    "Ruth DeSand",
    "Verne Sanderson",
    "Myra Liddel",
    "Katherina Rogers",
    "Sylvia Avondale",
    "Nora Fayette",
    "Helen Lloyd",
    "Dorothy Murchison",
    "Olivia Carleton",
    "Flora Price",
)

SOUTHERN_WOMEN_EVENTS = tuple(f"E{k}" for k in range(1, 15))

_SOUTHERN_WOMEN_ATTENDANCE = (
    (1, 2, 3, 4, 5, 6, 8, 9),
    (1, 2, 3, 5, 6, 7, 8),
    (2, 3, 4, 5, 6, 7, 8, 9),
    (1, 3, 4, 5, 6, 7, 8),
    (3, 4, 5, 7),
    (3, 5, 6, 8),
    (5, 6, 7, 8),
    (6, 8, 9),
    (5, 7, 8, 9),
    (7, 8, 9, 12),
    (8, 9, 10, 12),
    (8, 9, 10, 12, 13, 14),
    (7, 8, 9, 10, 12, 13, 14),
    (6, 7, 9, 10, 11, 12, 13, 14),
    (7, 8, 10, 11, 12),
    (8, 9),
    (9, 11),
    (9, 11),
)


def southern_women_graph() -> BipartiteGraph:
    """The built-in women-by-events network (18 + 14 nodes, 89 edges)."""
    edges = [
        (w, e - 1)
        for w, events in enumerate(_SOUTHERN_WOMEN_ATTENDANCE)
        for e in events
    ]
    return build_graph(len(SOUTHERN_WOMEN_NAMES), len(SOUTHERN_WOMEN_EVENTS), edges)


def load_edge_list(path) -> BipartiteGraph:
    """Parse an edge-list file into a graph; duplicate lines are logged as a
    warning and dropped."""
    left_index: dict = {}
    right_index: dict = {}
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphInputError(
                    f"{path}: line {lineno}: expected 2 tokens, got {len(tokens)}"
                )
            left_tok, right_tok = tokens
            if left_tok in right_index:
                raise GraphInputError(
                    f"{path}: line {lineno}: id {left_tok!r} already used as a right node"
                )
            if right_tok in left_index:
                raise GraphInputError(
                    f"{path}: line {lineno}: id {right_tok!r} already used as a left node"
                )
            u = left_index.setdefault(left_tok, len(left_index))
            v = right_index.setdefault(right_tok, len(right_index))
            pairs.append((u, v))
    if not left_index:
        raise GraphInputError(f"{path}: no edges found")
    graph = build_graph(len(left_index), len(right_index), pairs)
    duplicates = len(pairs) - graph.m
    if duplicates:
        logger.warning("%s: %d duplicate edge lines ignored", path, duplicates)
    return graph


def write_edge_list(g: BipartiteGraph, path) -> None:
    """Write one ``l<i> r<j>`` line per edge, in the order of ``g.edges``.

    A node with no edge cannot be written, so ValueError names the first
    isolated node before the file is opened.
    """
    isolated = np.flatnonzero(g.degrees() == 0)
    if isolated.size:
        side, i = ("left", isolated[0]) if isolated[0] < g.n_left else ("right", isolated[0] - g.n_left)
        raise ValueError(f"{side} node {i} has no edge, and an edge list cannot hold it")
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"l{u} r{v}\n")


def _bernoulli_block(rng, n_rows: int, n_cols: int, p: float, row0: int = 0, col0: int = 0):
    """Yield the (row0 + i, col0 + j) cells of an n_rows x n_cols block, each
    an edge with probability p, from draws of at most 2**22 cells at a time.
    The draws run row-major, so they are the cells of one whole-block draw."""
    step = max(1, (1 << 22) // n_cols)
    for start in range(0, n_rows, step):
        rows, cols = np.nonzero(rng.random((min(step, n_rows - start), n_cols)) < p)
        yield np.column_stack([rows + (row0 + start), cols + col0])


def generate_bipartite_er(n_left: int, n_right: int, p: float, seed: int) -> BipartiteGraph:
    """Each left-right pair is an edge independently with probability p."""
    n_left, n_right = check_int("n_left", n_left, low=1), check_int("n_right", n_right, low=1)
    p = check_real("p", p, unit=True)
    pairs = list(_bernoulli_block(philox(seed), n_left, n_right, p))
    return build_graph(n_left, n_right, np.concatenate(pairs))


def generate_bipartite_sbm(left_sizes, right_sizes, p_in: float, p_out: float, seed: int) -> BipartiteGraph:
    """Planted block structure: k aligned blocks per side, dense within a block.

    Left block b spans a contiguous index run of left_sizes[b] nodes (same for
    right).  A pair in aligned blocks is an edge with probability p_in, a
    cross-block pair with probability p_out.
    """
    left_sizes = tuple(check_int(f"left_sizes[{i}]", s, low=1) for i, s in enumerate(left_sizes))
    right_sizes = tuple(check_int(f"right_sizes[{i}]", s, low=1) for i, s in enumerate(right_sizes))
    if len(left_sizes) != len(right_sizes) or not left_sizes:
        raise ValueError("need one left size and one right size per block")
    p_in, p_out = check_real("p_in", p_in, unit=True), check_real("p_out", p_out, unit=True)
    if p_in <= p_out:
        raise ValueError(f"p_in must exceed p_out, got {p_in} <= {p_out}")
    rng = philox(seed)
    left_starts = np.concatenate([[0], np.cumsum(left_sizes)])
    right_starts = np.concatenate([[0], np.cumsum(right_sizes)])
    pairs = []
    k = len(left_sizes)
    for bi in range(k):
        for bj in range(k):
            prob = p_in if bi == bj else p_out
            pairs.extend(
                _bernoulli_block(rng, left_sizes[bi], right_sizes[bj], prob, left_starts[bi], right_starts[bj])
            )
    return build_graph(int(left_starts[-1]), int(right_starts[-1]), np.concatenate(pairs))


def write_report(records, path):
    """Write per-run metric rows and a companion mean/std summary.

    The per-run file has header ``dataset,method,run,seed,auc,ap``.  The
    summary, ``<stem>_summary<ext>`` next to it, holds the rows of
    ``metrics.summarize``, the same rows ``run_benchmark`` returns: one per
    (dataset, method) in first-appearance order, with population standard
    deviations.  Returns (path, summary_path).
    """
    records = list(records)
    path = Path(path)
    summary_path = path.with_name(path.stem + "_summary" + (path.suffix or ".csv"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "run", "seed", "auc", "ap"])
        for r in records:
            writer.writerow([r.dataset, r.scorer.value, r.run, r.seed, repr(r.auc), repr(r.ap)])
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "auc_mean", "auc_std", "ap_mean", "ap_std"])
        for row in summarize(records):
            writer.writerow(
                [
                    row.dataset,
                    row.scorer.value,
                    repr(row.auc_mean),
                    repr(row.auc_std),
                    repr(row.ap_mean),
                    repr(row.ap_std),
                ]
            )
    return path, summary_path


def dataset_registry() -> dict:
    """The bundled registry: dataset id -> {nodes, edges, source, notes}."""
    text = resources.files("bihop").joinpath("registry.json").read_text(encoding="utf-8")
    return json.loads(text)


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset comes from and what shape it must have.

    source is a file path (str or os.PathLike), a generator mapping such as
    {"model": "er", "n_left": 100, "n_right": 100, "p": 0.05, "seed": 7} or
    {"model": "sbm", "left_sizes": [...], "right_sizes": [...], ...}, or None
    for the built-in southern_women network (a generator's seed defaults to
    0).  Any other source, an unknown generator key, a value the generator
    rejects or an expected count that is not an integer >= 0 fails the load.
    """

    id: str
    source: object = None
    expected_nodes: int | None = None
    expected_edges: int | None = None


_GENERATORS = {"er": generate_bipartite_er, "sbm": generate_bipartite_sbm}


def _generate_from_spec(params: dict) -> BipartiteGraph:
    params = dict(params)
    model = params.pop("model", None)
    if model not in _GENERATORS:
        raise ValueError(f"unknown generator model {model!r} (expected 'er' or 'sbm')")
    generator = _GENERATORS[model]
    keys = tuple(inspect.signature(generator).parameters)
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise ValueError(f"generator model {model!r} takes {keys}, got unknown {unknown}")
    return generator(**{"seed": 0, **params})


def load_dataset(spec: DatasetSpec, data_dir=None) -> BipartiteGraph:
    """Resolve a DatasetSpec to a graph and check its node and edge counts,
    first against the spec's expected counts, then against the registry
    entry for its id, if there is one."""
    source = spec.source
    if source is None and spec.id == "southern_women":
        g = southern_women_graph()
    elif isinstance(source, Mapping):
        g = _generate_from_spec(source)
    elif source is None or isinstance(source, (str, os.PathLike)):
        p = Path(f"{spec.id}.edges" if source is None else source)
        if data_dir is not None and not p.is_absolute():
            p = Path(data_dir) / p
        if source is None and not p.exists():
            raise FileNotFoundError(f"dataset {spec.id!r} has no source and no file at {p}")
        g = load_edge_list(p)
    else:
        raise TypeError(f"dataset {spec.id!r}: source must be a path or a generator mapping, got {source!r}")
    registry = dataset_registry().get(spec.id, {})
    for what, got in (("nodes", g.n), ("edges", g.m)):
        key = f"expected_{what}"
        want = getattr(spec, key)
        if want is not None and check_int(key, want, low=0) != got:
            raise GraphInputError(f"dataset {spec.id!r}: expected {want} {what}, got {got}")
        if what in registry and registry[what] != got:
            raise GraphInputError(f"dataset {spec.id!r}: registry expects {registry[what]} {what}, got {got}")
    return g
