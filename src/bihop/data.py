"""Dataset ingestion, the benchmark registry, generators, and CSV reports.

Edge-list files are plain UTF-8 text: one edge per line, two whitespace
separated tokens, first token a Left node id and second a Right node id.
``#`` starts a comment, blank lines are skipped.  Ids are mapped to contiguous
local indices in order of first appearance, Left and Right id spaces kept
independent; the mapping is retained so a written file round-trips.

The registry (registry.json, shipped inside the package) records the twelve
benchmark networks this package targets: expected node/edge counts, source
URL when one exists, and conversion notes.  The data itself is not bundled,
with one exception: the small Southern Women event-attendance network is
embedded as a constant.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph, GraphInputError, build_graph
from .metrics import MetricReport, summarize
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


@dataclass(frozen=True)
class EdgeListResult:
    """A loaded edge list plus its id mappings and dedup count."""

    graph: BipartiteGraph
    left_ids: tuple
    right_ids: tuple
    duplicate_count: int


def load_edge_list_detailed(path) -> EdgeListResult:
    """Parse an edge-list file keeping the node-id mappings."""
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
    return EdgeListResult(
        graph=graph,
        left_ids=tuple(left_index),
        right_ids=tuple(right_index),
        duplicate_count=duplicates,
    )


def write_edge_list(g: BipartiteGraph, path, left_ids=None, right_ids=None) -> None:
    """Write one ``left right`` line per edge (ids default to l<i> / r<j>)."""
    if left_ids is None:
        left_ids = tuple(f"l{i}" for i in range(g.n_left))
    if right_ids is None:
        right_ids = tuple(f"r{j}" for j in range(g.n_right))
    if len(left_ids) != g.n_left or len(right_ids) != g.n_right:
        raise ValueError("id sequences must match the partition sizes")
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{left_ids[u]} {right_ids[v]}\n")


def generate_bipartite_er(n_left: int, n_right: int, p: float, seed: int) -> BipartiteGraph:
    """Each left-right pair is an edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n_left < 1 or n_right < 1:
        raise ValueError("partition sizes must be positive")
    rng = philox(seed)
    pairs = []
    block = max(1, (1 << 22) // max(n_right, 1))
    for start in range(0, n_left, block):
        stop = min(start + block, n_left)
        rows, cols = np.nonzero(rng.random((stop - start, n_right)) < p)
        pairs.append(np.column_stack([rows + start, cols]))
    return build_graph(n_left, n_right, np.concatenate(pairs))


def generate_bipartite_sbm(left_sizes, right_sizes, p_in: float, p_out: float, seed: int) -> BipartiteGraph:
    """Planted block structure: k aligned blocks per side, dense within a block.

    Left block b spans a contiguous index run of left_sizes[b] nodes (same for
    right).  A pair in aligned blocks is an edge with probability p_in, a
    cross-block pair with probability p_out.
    """
    left_sizes = tuple(int(s) for s in left_sizes)
    right_sizes = tuple(int(s) for s in right_sizes)
    if len(left_sizes) != len(right_sizes) or not left_sizes:
        raise ValueError("need one left size and one right size per block")
    if any(s < 1 for s in left_sizes + right_sizes):
        raise ValueError("block sizes must be positive")
    for name, prob in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {prob}")
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
            rows, cols = np.nonzero(rng.random((left_sizes[bi], right_sizes[bj])) < prob)
            pairs.append(np.column_stack([rows + left_starts[bi], cols + right_starts[bj]]))
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


def read_report(path):
    """Load a per-run report CSV back into MetricReport rows."""
    from .scoring import ScorerKind

    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                MetricReport(
                    dataset=row["dataset"],
                    scorer=ScorerKind.parse(row["method"]),
                    run=int(row["run"]),
                    seed=int(row["seed"]),
                    auc=float(row["auc"]),
                    ap=float(row["ap"]),
                )
            )
    return out


def dataset_registry() -> dict:
    """The bundled registry: dataset id -> {nodes, edges, source, notes}."""
    text = resources.files("bihop").joinpath("registry.json").read_text(encoding="utf-8")
    return json.loads(text)


def validate_against_registry(g: BipartiteGraph, dataset_id: str) -> None:
    """Reject a graph whose (n, m) disagree with the registry entry for its id."""
    registry = dataset_registry()
    if dataset_id not in registry:
        return
    entry = registry[dataset_id]
    if g.n != entry["nodes"] or g.m != entry["edges"]:
        raise GraphInputError(
            f"dataset {dataset_id!r}: loaded graph has n={g.n}, m={g.m}; "
            f"registry expects n={entry['nodes']}, m={entry['edges']}"
        )


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset comes from and what shape it must have.

    source is a file path (str), a generator mapping such as
    {"model": "er", "n_left": 100, "n_right": 100, "p": 0.05, "seed": 7} or
    {"model": "sbm", "left_sizes": [...], "right_sizes": [...], ...}, or None
    for the built-in southern_women network.
    """

    id: str
    source: object = None
    expected_nodes: int | None = None
    expected_edges: int | None = None


def _generate_from_spec(params: dict) -> BipartiteGraph:
    params = dict(params)
    model = params.pop("model", None)
    if model == "er":
        return generate_bipartite_er(
            int(params["n_left"]), int(params["n_right"]),
            float(params["p"]), int(params.get("seed", 0)),
        )
    if model == "sbm":
        return generate_bipartite_sbm(
            params["left_sizes"], params["right_sizes"],
            float(params["p_in"]), float(params["p_out"]), int(params.get("seed", 0)),
        )
    raise ValueError(f"unknown generator model {model!r} (expected 'er' or 'sbm')")


def load_dataset(spec: DatasetSpec, data_dir=None) -> BipartiteGraph:
    """Resolve a DatasetSpec to a graph and validate its shape."""
    if spec.source is None and spec.id == "southern_women":
        g = southern_women_graph()
    elif isinstance(spec.source, dict):
        g = _generate_from_spec(spec.source)
    else:
        p = Path(f"{spec.id}.edges" if spec.source is None else str(spec.source))
        if data_dir is not None and not p.is_absolute():
            p = Path(data_dir) / p
        if spec.source is None and not p.exists():
            raise FileNotFoundError(f"dataset {spec.id!r} has no source and no file at {p}")
        g = load_edge_list_detailed(p).graph
    if spec.expected_nodes is not None and g.n != spec.expected_nodes:
        raise GraphInputError(
            f"dataset {spec.id!r}: expected {spec.expected_nodes} nodes, got {g.n}"
        )
    if spec.expected_edges is not None and g.m != spec.expected_edges:
        raise GraphInputError(
            f"dataset {spec.id!r}: expected {spec.expected_edges} edges, got {g.m}"
        )
    validate_against_registry(g, spec.id)
    return g
