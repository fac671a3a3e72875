"""Experiment orchestration: multi-run benchmarks, tuning, and diagnostics.

A benchmark run r uses seed base_seed + r for its split and for model
initialization, so the whole experiment is a pure function of (graph,
config).  Each split has one ``RunArtifacts``: the training graph, its
adjacency, normalization and labels, and the models trained on them, each
trained once on first use.  Hyperparameters with more than one grid point
are chosen by validation AUC on run 0's artifacts and then frozen for the
remaining runs; run 0 scores its test pairs on those same artifacts, so it
reuses the search's split, training side and models.

Leakage discipline: ``build_run_artifacts``, ``RunArtifacts.model`` and
``RunArtifacts.heuristics`` read only the training edges and the seed of
the split; validation and test pairs enter only as scoring arguments.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .autoencoder import EmbeddingModel, ModelKind, TrainConfig, decode_pairs, train, training_labels
from .data import DatasetSpec, load_dataset, write_report
from .graph import BipartiteGraph, NormalizedAdjacency, adjacency, normalize
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    ScoreMassReport,
    SummaryRow,
    average_precision,
    best_f1_threshold,
    confusion_at,
    format_mass_table,
    roc_auc,
    score_mass_report,
    summarize,
)
from .scoring import (
    HEURISTIC_KINDS,
    HeuristicIndex,
    KatzDivergenceError,
    ScorerKind,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
)
from .splits import EdgeSplit, child_keys, sample_negatives, split_edges, train_graph

logger = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.85, 0.05, 0.10)
DEFAULT_LGAE_GRID = ({"learning_rate": 0.01, "epochs": 200, "embed_dim": 16},)
DEFAULT_GAE_GRID = (
    {"learning_rate": 0.01, "epochs": 200, "embed_dim": 16, "hidden_dim": 32},
)
DEFAULT_KATZ_GRID = (0.001, 0.005, 0.01, 0.05)

CONFUSION_PAIR_LIMIT = 2000


@dataclass(frozen=True)
class BenchmarkConfig:
    datasets: tuple = ()
    scorers: tuple = (ScorerKind.TWO_HOP,)
    runs: int = 50
    base_seed: int = 0
    ratios: tuple = DEFAULT_RATIOS
    lgae_grid: tuple = DEFAULT_LGAE_GRID
    gae_grid: tuple = DEFAULT_GAE_GRID
    katz_grid: tuple = DEFAULT_KATZ_GRID
    time_budget_s: float | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        for kind in self.scorers:
            if not isinstance(kind, ScorerKind):
                raise TypeError(f"scorers must be ScorerKind values, got {kind!r}")
            if not _grid_for(kind, self):
                raise ValueError(f"empty hyperparameter grid for scorer {kind.value}")
        if len(set(self.scorers)) != len(self.scorers):
            raise ValueError(f"scorers must be distinct, got {[k.value for k in self.scorers]}")


def _grid_for(kind: ScorerKind, config: BenchmarkConfig):
    if kind in (ScorerKind.TWO_HOP, ScorerKind.RECON_TWO_HOP, ScorerKind.LGAE):
        return tuple(config.lgae_grid)
    if kind is ScorerKind.GAE:
        return tuple(config.gae_grid)
    if kind is ScorerKind.KATZ:
        return tuple(
            p if isinstance(p, dict) else {"beta": float(p)} for p in config.katz_grid
        )
    return ({},)  # degree/path heuristics have nothing to tune


def _param_key(params: dict):
    return tuple(sorted(params.items()))


def _global_pairs(g: BipartiteGraph, local_pairs) -> tuple:
    return tuple((u, g.n_left + v) for u, v in local_pairs)


@dataclass(frozen=True)
class RunArtifacts:
    """The training side of one split, shared by every step that uses it.

    Holds the training graph, its adjacency, normalization and labels, and
    caches each model trained on them under (model kind, params), so tuning
    and scoring on the same split train each distinct model once.  The
    heuristic index is built from the training graph on first use and
    shared by the five neighbourhood heuristics.
    """

    split: EdgeSplit
    g_train: BipartiteGraph
    a_train: sp.csr_matrix
    norm: NormalizedAdjacency
    labels: sp.csr_matrix = field(repr=False)
    models: dict = field(default_factory=dict, repr=False, compare=False)

    def model(self, model_kind: ModelKind, params: dict) -> EmbeddingModel:
        """The ``model_kind`` model trained with ``params``; trains on first use."""
        key = (model_kind, _param_key(params))
        if key not in self.models:
            self.models[key] = train(
                self.norm, self.labels, TrainConfig(model_kind=model_kind, seed=self.split.seed, **params)
            )
        return self.models[key]

    @cached_property
    def heuristics(self) -> HeuristicIndex:
        """The neighbourhood index of ``g_train``; built on first use."""
        return heuristic_index(self.g_train)


def build_run_artifacts(g: BipartiteGraph, split: EdgeSplit) -> RunArtifacts:
    """Training side of ``split``.  Reads only split.train_edges and seed."""
    gt = train_graph(g, split)
    a_train = adjacency(gt)
    return RunArtifacts(
        split=split, g_train=gt, a_train=a_train, norm=normalize(a_train),
        labels=training_labels(a_train),
    )


def _score_pairs(kind: ScorerKind, pairs, artifacts: RunArtifacts, params: dict) -> np.ndarray:
    """One call of scorer ``kind`` with hyperparameters ``params`` over ``pairs``."""
    if kind is ScorerKind.KATZ:
        return katz_score(artifacts.a_train, params.get("beta", 0.005), pairs).scores
    if kind in HEURISTIC_KINDS:
        return heuristic_scores(artifacts.heuristics, kind, pairs).scores
    model = artifacts.model(ModelKind.GAE if kind is ScorerKind.GAE else ModelKind.LGAE, params)
    if kind is ScorerKind.TWO_HOP:
        return two_hop_score(model, artifacts.norm, pairs).scores
    if kind is ScorerKind.RECON_TWO_HOP:
        return recon_two_hop_score(model, pairs).scores
    return decode_score(model, pairs, kind=kind).scores


def _pos_neg_scores(kind: ScorerKind, pos, neg, artifacts: RunArtifacts, params: dict):
    """Score positives and negatives in one call; returns (pos, neg) scores."""
    scores = _score_pairs(kind, tuple(pos) + tuple(neg), artifacts, params)
    return scores[: len(pos)], scores[len(pos) :]


def grid_search(artifacts: RunArtifacts, grid, scorer: ScorerKind):
    """Pick the grid point maximizing validation AUC of ``scorer``.

    Exhaustive; ties keep the earlier grid point.  Returns
    (chosen_params, validation_auc).  Each point scores the validation
    positives and negatives in one call; its model, if the scorer needs one,
    is trained through ``artifacts.model`` and stays cached there, so other
    scorers and the run's own scoring reuse it.  Katz points the closed form
    rejects (beta at or above 1 / spectral_radius of the training graph) are
    logged and skipped; ValueError lists them all if no point is feasible.
    """
    grid = [dict(p) if isinstance(p, dict) else {"beta": float(p)} for p in grid]
    if not grid:
        raise ValueError("grid_search needs a nonempty grid")
    split = artifacts.split
    val_pos = _global_pairs(artifacts.g_train, split.val_pos)
    val_neg = _global_pairs(artifacts.g_train, split.val_neg)
    best = None
    skipped = []
    for point in grid:
        try:
            pos, neg = _pos_neg_scores(scorer, val_pos, val_neg, artifacts, point)
        except KatzDivergenceError as exc:
            logger.warning("%s grid point %s skipped on seed %d: %s", scorer.value, point, split.seed, exc)
            skipped.append(f"{point}: {exc}")
            continue
        auc = roc_auc(pos, neg)
        if best is None or auc > best[1]:
            best = (point, auc)
    if best is None:
        raise ValueError(f"no feasible {scorer.value} grid point; skipped " + "; ".join(skipped))
    return best


def tune_scorers(artifacts: RunArtifacts, config: BenchmarkConfig) -> dict:
    """Resolve every scorer's hyperparameters (grid search only when needed)."""
    tuned: dict = {}
    for kind in config.scorers:
        grid = _grid_for(kind, config)
        if len(grid) == 1:
            tuned[kind] = dict(grid[0])
        else:
            point, val_auc = grid_search(artifacts, grid, kind)
            logger.info(
                "tuned %s on seed %d: %s (val AUC %.4f)", kind.value, artifacts.split.seed, point, val_auc
            )
            tuned[kind] = point
    return tuned


def run_experiment(
    artifacts: RunArtifacts,
    config: BenchmarkConfig,
    run_index: int,
    dataset_id: str = "dataset",
    tuned: dict | None = None,
):
    """Score the test pairs of ``artifacts.split``; returns a MetricReport per scorer.

    Deterministic in (artifacts.split, config).  Models come from
    ``artifacts.model``, so those trained while tuning on the same artifacts
    are reused.  When ``tuned`` is omitted, grids with more than one point
    are searched on this split's own validation pairs.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    if tuned is None:
        tuned = tune_scorers(artifacts, config)
    split = artifacts.split
    test_pos = _global_pairs(artifacts.g_train, split.test_pos)
    test_neg = _global_pairs(artifacts.g_train, split.test_neg)
    reports = []
    for kind in config.scorers:
        pos, neg = _pos_neg_scores(kind, test_pos, test_neg, artifacts, tuned.get(kind, {}))
        reports.append(
            MetricReport(
                dataset=dataset_id,
                scorer=kind,
                run=run_index,
                seed=split.seed,
                auc=roc_auc(pos, neg),
                ap=average_precision(pos, neg),
            )
        )
    return reports


def _add_run_note(exc: Exception, dataset_id: str, run_index: int, seed: int) -> None:
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(f"while running {dataset_id!r} run {run_index} (seed {seed})")


@dataclass(frozen=True)
class Summary:
    """Aggregated benchmark results (one row per dataset x scorer)."""

    rows: tuple
    missing: tuple = ()

    def get(self, dataset: str, scorer: ScorerKind) -> SummaryRow:
        for row in self.rows:
            if row.dataset == dataset and row.scorer is scorer:
                return row
        raise KeyError(f"no summary row for ({dataset}, {scorer.value})")

    def table(self) -> str:
        lines = [
            f"{'dataset':<22} {'method':<16} {'runs':>4} "
            f"{'auc':>16} {'ap':>16}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.dataset:<22} {r.scorer.value:<16} {r.runs:>4} "
                f"{r.auc_mean:>8.4f} +-{r.auc_std:.4f} "
                f"{r.ap_mean:>8.4f} +-{r.ap_std:.4f}"
            )
        for dataset_id, reason in self.missing:
            lines.append(f"{dataset_id:<22} MISSING: {reason}")
        return "\n".join(lines)


def run_benchmark(config: BenchmarkConfig, data_dir=None) -> Summary:
    """R runs per dataset, aggregated; emits CSVs when out_dir is set.

    A dataset that fails to load is skipped and recorded in
    ``Summary.missing``; other datasets still run.  Each run builds its
    split and ``RunArtifacts`` once; tuning uses run 0's, and run 0 then
    scores on the same ones.  The optional per-dataset wall-clock budget starts after tuning
    and stops a dataset early (run 0 always completes); the row's ``runs``
    field shows what was kept.  A failing run raises with one note naming
    the dataset, run and seed.
    """
    rows = []
    missing = []
    all_reports = []
    for spec in config.datasets:
        if not isinstance(spec, DatasetSpec):
            spec = DatasetSpec(id=str(spec))
        try:
            g = load_dataset(spec, data_dir=data_dir)
        except Exception as exc:
            logger.warning("dataset %s unavailable: %s", spec.id, exc)
            missing.append((spec.id, f"{type(exc).__name__}: {exc}"))
            continue
        reports = []
        for r in range(config.runs):
            if (
                r > 0
                and config.time_budget_s is not None
                and time.monotonic() - started > config.time_budget_s
            ):
                logger.warning(
                    "dataset %s: wall-clock budget hit after %d/%d runs",
                    spec.id, r, config.runs,
                )
                break
            seed = config.base_seed + r
            try:
                artifacts = build_run_artifacts(g, split_edges(g, config.ratios, seed))
                if r == 0:
                    tuned = tune_scorers(artifacts, config)
                    started = time.monotonic()
                reports.extend(run_experiment(artifacts, config, r, dataset_id=spec.id, tuned=tuned))
            except Exception as exc:
                _add_run_note(exc, spec.id, r, seed)
                raise
        rows.extend(summarize(reports))
        all_reports.extend(reports)
    summary = Summary(rows=tuple(rows), missing=tuple(missing))
    if config.out_dir is not None:
        from pathlib import Path

        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(all_reports, out / "results.csv")
    return summary


@dataclass(frozen=True)
class RankingRow:
    subset: str   # train / val / test
    surface: str  # recon (decoded embeddings) or norm_adj (normalized adjacency entry)
    auc: float
    ap: float


@dataclass(frozen=True)
class DiagnosticBundle:
    """Calibration diagnostics for one dataset and seed.

    recon_confusion / norm_confusion: best-F1 confusion of the decoded
    reconstruction and of the normalized training adjacency against the full
    graph's edges.  mass_recon / mass_two_hop: mean raw score per evaluation
    set for the recon-only two-hop surface and the mixed two-hop surface.
    ranking: AUC/AP of both surfaces over train/val/test edges with matched
    non-edges.
    """

    dataset: str
    seed: int
    recon_confusion: ConfusionMatrix
    norm_confusion: ConfusionMatrix
    mass_recon: ScoreMassReport
    mass_two_hop: ScoreMassReport
    ranking: tuple


def _norm_entries(norm: NormalizedAdjacency, pairs) -> np.ndarray:
    if not pairs:
        return np.empty(0)
    arr = np.asarray(pairs, dtype=np.int64)
    return np.asarray(norm.matrix[arr[:, 0], arr[:, 1]]).ravel()


def _confusion_population(g: BipartiteGraph, seed: int):
    """Scored pair population: every heterogeneous pair for small graphs,
    edges plus an equal sample of non-edges for large ones."""
    if g.n <= CONFUSION_PAIR_LIMIT:
        us, vs = np.meshgrid(
            np.arange(g.n_left), np.arange(g.n_left, g.n), indexing="ij"
        )
        pairs = np.column_stack([us.ravel(), vs.ravel()])
        labels = np.array(
            [g.has_edge(u, v - g.n_left) for u, v in pairs], dtype=np.int64
        )
        return [tuple(p) for p in pairs], labels
    sampled = sample_negatives(g, g.m, exclude=(), seed=seed)
    pairs = _global_pairs(g, list(g.edges) + list(sampled))
    labels = np.concatenate([np.ones(g.m, dtype=np.int64), np.zeros(g.m, dtype=np.int64)])
    return list(pairs), labels


def diagnose(
    g: BipartiteGraph,
    config: BenchmarkConfig,
    dataset_id: str = "dataset",
    seed: int | None = None,
) -> DiagnosticBundle:
    """Why-does-it-work diagnostics on a single dataset.

    Uses the first point of the linear-model grid (no tuning) and the split
    seeded by ``seed`` (default: the config's base seed).
    """
    if seed is None:
        seed = config.base_seed
    artifacts = build_run_artifacts(g, split_edges(g, config.ratios, seed))
    split = artifacts.split
    model = artifacts.model(ModelKind.LGAE, dict(config.lgae_grid[0]))

    extra_keys = child_keys(seed, 6)[3:]

    # (a) best-F1 confusion of each surface against the full graph's edges
    pop_pairs, pop_labels = _confusion_population(g, extra_keys[0])
    arr = np.asarray(pop_pairs, dtype=np.int64)
    recon_scores = decode_pairs(model.Z, arr[:, 0], arr[:, 1])
    norm_scores = _norm_entries(artifacts.norm, pop_pairs)
    recon_thr, _ = best_f1_threshold(recon_scores, pop_labels)
    norm_thr, _ = best_f1_threshold(norm_scores, pop_labels)
    recon_confusion = confusion_at(recon_scores, pop_labels, recon_thr)
    norm_confusion = confusion_at(norm_scores, pop_labels, norm_thr)

    # (b) mean raw two-hop mass per evaluation set, for both surfaces
    all_edges = _global_pairs(g, g.edges)
    false_edges = _global_pairs(g, sample_negatives(g, g.m, exclude=(), seed=extra_keys[1]))
    mass_sets = {
        "test_pos": _global_pairs(g, split.test_pos),
        "test_neg": _global_pairs(g, split.test_neg),
        "val_pos": _global_pairs(g, split.val_pos),
        "val_neg": _global_pairs(g, split.val_neg),
        "all_edges": all_edges,
        "false_edges": false_edges,
    }
    mass_recon = score_mass_report(
        **{
            name: recon_two_hop_score(model, pairs).scores
            for name, pairs in mass_sets.items()
        }
    )
    mass_two_hop = score_mass_report(
        **{
            name: two_hop_score(model, artifacts.norm, pairs).scores
            for name, pairs in mass_sets.items()
        }
    )

    # (c) ranking quality of both surfaces on train/val/test with matched negatives
    train_neg = _global_pairs(
        g, sample_negatives(g, len(split.train_edges), exclude=(), seed=extra_keys[2])
    )
    subsets = (
        ("train", _global_pairs(g, split.train_edges), train_neg),
        ("val", _global_pairs(g, split.val_pos), _global_pairs(g, split.val_neg)),
        ("test", _global_pairs(g, split.test_pos), _global_pairs(g, split.test_neg)),
    )
    ranking = []
    for name, pos, neg in subsets:
        pos_arr = np.asarray(pos, dtype=np.int64)
        neg_arr = np.asarray(neg, dtype=np.int64)
        recon_pos = decode_pairs(model.Z, pos_arr[:, 0], pos_arr[:, 1])
        recon_neg = decode_pairs(model.Z, neg_arr[:, 0], neg_arr[:, 1])
        ranking.append(
            RankingRow(
                subset=name, surface="recon",
                auc=roc_auc(recon_pos, recon_neg),
                ap=average_precision(recon_pos, recon_neg),
            )
        )
        norm_pos = _norm_entries(artifacts.norm, pos)
        norm_neg = _norm_entries(artifacts.norm, neg)
        ranking.append(
            RankingRow(
                subset=name, surface="norm_adj",
                auc=roc_auc(norm_pos, norm_neg),
                ap=average_precision(norm_pos, norm_neg),
            )
        )
    return DiagnosticBundle(
        dataset=dataset_id,
        seed=seed,
        recon_confusion=recon_confusion,
        norm_confusion=norm_confusion,
        mass_recon=mass_recon,
        mass_two_hop=mass_two_hop,
        ranking=tuple(ranking),
    )


_CONFIG_KEYS = frozenset(f.name for f in fields(BenchmarkConfig))


def config_from_dict(raw: dict) -> BenchmarkConfig:
    """Build a BenchmarkConfig from a JSON-compatible mapping.

    Schema (all keys optional):
      datasets:   list of ids or {"id", "source", "expected_nodes", "expected_edges"}
      scorers:    list of distinct scorer names (see ScorerKind; short aliases accepted)
      runs, base_seed: ints
      ratios:     [train, val, test] floats summing to 1
      lgae_grid / gae_grid: list of {"learning_rate", "epochs", "embed_dim"[, "hidden_dim"]}
      katz_grid:  list of damping factors
      time_budget_s: seconds per dataset (null = unlimited)
      out_dir:    directory for CSV reports
    """
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    if "datasets" in raw:
        specs = []
        for entry in raw["datasets"]:
            if isinstance(entry, str):
                specs.append(DatasetSpec(id=entry))
            else:
                extra = set(entry) - {"id", "source", "expected_nodes", "expected_edges"}
                if extra:
                    raise ValueError(f"unknown dataset keys: {sorted(extra)}")
                specs.append(
                    DatasetSpec(
                        id=entry["id"],
                        source=entry.get("source"),
                        expected_nodes=entry.get("expected_nodes"),
                        expected_edges=entry.get("expected_edges"),
                    )
                )
        kwargs["datasets"] = tuple(specs)
    if "scorers" in raw:
        kwargs["scorers"] = tuple(ScorerKind.parse(s) for s in raw["scorers"])
    for key in ("runs", "base_seed"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "ratios" in raw:
        kwargs["ratios"] = tuple(float(r) for r in raw["ratios"])
    for key in ("lgae_grid", "gae_grid"):
        if key in raw:
            kwargs[key] = tuple(dict(p) for p in raw[key])
    if "katz_grid" in raw:
        kwargs["katz_grid"] = tuple(raw["katz_grid"])
    if "time_budget_s" in raw and raw["time_budget_s"] is not None:
        kwargs["time_budget_s"] = float(raw["time_budget_s"])
    if "out_dir" in raw and raw["out_dir"] is not None:
        kwargs["out_dir"] = str(raw["out_dir"])
    return BenchmarkConfig(**kwargs)


def load_config(path) -> BenchmarkConfig:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def format_diagnostics(bundle: DiagnosticBundle) -> str:
    lines = [f"diagnostics for {bundle.dataset} (seed {bundle.seed})", ""]
    for name, cm in (("recon", bundle.recon_confusion), ("norm_adj", bundle.norm_confusion)):
        lines.append(
            f"{name} vs original edges @ best-F1 threshold {cm.threshold:.6g}: "
            f"tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn} (f1={cm.f1:.4f})"
        )
    lines.append("")
    lines.append(format_mass_table(bundle.mass_recon, "mean score, recon-only two-hop (recon @ recon)"))
    lines.append("")
    lines.append(format_mass_table(bundle.mass_two_hop, "mean score, mixed two-hop (norm_adj @ recon)"))
    lines.append("")
    lines.append(f"{'subset':<8} {'surface':<10} {'auc':>8} {'ap':>8}")
    for row in bundle.ranking:
        lines.append(f"{row.subset:<8} {row.surface:<10} {row.auc:>8.4f} {row.ap:>8.4f}")
    return "\n".join(lines)
