"""Experiment orchestration: multi-run benchmarks, tuning, and diagnostics.

A benchmark makes exactly ``runs`` runs per dataset, and run r uses seed
base_seed + r for its split and for model initialization, so the whole
experiment is a pure function of (graph, config).  ``BenchmarkConfig``
holds each input in one form, and each split has one ``RunArtifacts``: the
split and its training graph, with the normalization, labels, heuristic
and Katz indices and models built on first use.
Hyperparameters with more than one grid point are chosen by validation AUC
on run 0's artifacts and then frozen for the remaining runs; run 0 scores
its test pairs on those same artifacts, so it reuses the search's split,
training side and models.

Leakage discipline: ``build_run_artifacts`` and every view of
``RunArtifacts`` read only the training edges and the seed of the split;
validation and test pairs enter only as scoring arguments.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .autoencoder import EmbeddingModel, ModelKind, TrainConfig, train, training_labels
from .data import DatasetSpec, load_dataset, write_report
from .graph import BipartiteGraph, NormalizedAdjacency, adjacency, check_int, check_real, in_sorted, normalize
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    ScoreMassReport,
    SummaryRow,
    average_precision,
    best_f1_threshold,
    format_mass_table,
    roc_auc,
    score_mass_report,
    summarize,
)
from .scoring import (
    HEURISTIC_KINDS,
    HeuristicIndex,
    KatzDivergenceError,
    KatzIndex,
    ScorerKind,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_index,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
)
from .splits import EdgeSplit, check_ratios, child_keys, sample_negatives, split_edges, train_graph

logger = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.85, 0.05, 0.10)
DEFAULT_LGAE_GRID = ({"learning_rate": 0.01, "epochs": 200, "embed_dim": 16},)
DEFAULT_GAE_GRID = (
    {"learning_rate": 0.01, "epochs": 200, "embed_dim": 16, "hidden_dim": 32},
)
DEFAULT_KATZ_GRID = (0.001, 0.005, 0.01, 0.05)

# The model each model scorer trains, whose grid (``<model>_grid``) it reads.
SCORER_MODELS = {ScorerKind.TWO_HOP: ModelKind.LGAE, ScorerKind.RECON_TWO_HOP: ModelKind.LGAE,
                 ScorerKind.LGAE: ModelKind.LGAE, ScorerKind.GAE: ModelKind.GAE}

CONFUSION_PAIR_LIMIT = 2000

_DATASET_KEYS = frozenset(f.name for f in fields(DatasetSpec))


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
    out_dir: str | os.PathLike | None = None

    def __post_init__(self):
        # The one parser of a benchmark's inputs: each takes its one form
        # here, from Python or JSON alike; idempotent, as replace() reruns it.
        put = object.__setattr__
        for key in ("datasets", "scorers", "ratios", "lgae_grid", "gae_grid", "katz_grid"):
            put(self, key, _array(key, getattr(self, key)))
        specs = []
        for i, spec in enumerate(self.datasets):
            if isinstance(spec, Mapping):
                extra = set(spec) - _DATASET_KEYS
                if extra:
                    raise ValueError(f"unknown dataset keys in datasets[{i}]: {sorted(extra)}")
                if "id" not in spec:
                    raise ValueError(f"datasets[{i}] has no 'id': {spec!r}")
                spec = DatasetSpec(**spec)
            elif isinstance(spec, str):
                spec = DatasetSpec(id=spec)
            elif not isinstance(spec, DatasetSpec):
                raise TypeError(f"datasets[{i}] must be a DatasetSpec, its fields or a dataset id, got {spec!r}")
            if not isinstance(spec.id, str) or not spec.id:
                raise TypeError(f"datasets[{i}]: id must be a non-empty string, got {spec.id!r}")
            if spec.id in {s.id for s in specs}:
                raise ValueError(f"datasets[{i}]: id {spec.id!r} is listed twice; dataset ids must be distinct")
            specs.append(spec)
        put(self, "datasets", tuple(specs))
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise TypeError(f"out_dir must be a path string, got {self.out_dir!r}")
        put(self, "ratios", check_ratios(self.ratios))
        put(self, "katz_grid", tuple(check_real(f"katz_grid[{i}]: beta", b) for i, b in enumerate(self.katz_grid)))
        for model_kind in ModelKind:
            key = f"{model_kind.value}_grid"
            for i, point in enumerate(getattr(self, key)):
                if not isinstance(point, Mapping):
                    raise TypeError(f"{key}[{i}] must be a mapping of training parameters, got {point!r}")
                try:  # as run 0 would train it
                    TrainConfig(model_kind=model_kind, seed=0, **point)
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{key}[{i}]: {exc}") from exc
            put(self, key, tuple(map(dict, getattr(self, key))))
        put(self, "runs", check_int("runs", self.runs, low=1))
        put(self, "base_seed", check_int("base_seed", self.base_seed))
        scorers = []
        for i, kind in enumerate(self.scorers):
            try:
                kind = ScorerKind.parse(kind) if isinstance(kind, str) else kind
            except ValueError as exc:
                raise ValueError(f"scorers[{i}]: {exc}") from exc
            if not isinstance(kind, ScorerKind):
                raise TypeError(f"scorers[{i}] must be a ScorerKind or a scorer name, got {kind!r}")
            if not _grid_for(kind, self):
                raise ValueError(f"empty hyperparameter grid for scorer {kind.value}")
            scorers.append(kind)
        put(self, "scorers", tuple(scorers))
        if len(set(self.scorers)) != len(self.scorers):
            raise ValueError(f"scorers must be distinct, got {[k.value for k in self.scorers]}")


def _array(key: str, value) -> tuple:
    """``value``'s items as a tuple; TypeError naming ``key`` for a str,
    bytes, mapping or non-iterable value."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise TypeError(f"{key} must be an array, got {value!r}")
    return tuple(value)


def _grid_for(kind: ScorerKind, config: BenchmarkConfig) -> tuple:
    """``kind``'s grid as a tuple of parameter dicts."""
    if kind in SCORER_MODELS:
        return getattr(config, f"{SCORER_MODELS[kind].value}_grid")
    if kind is ScorerKind.KATZ:
        return tuple({"beta": b} for b in config.katz_grid)
    return ({},)  # degree/path heuristics have nothing to tune


def _param_key(params: dict):
    return tuple(sorted(params.items()))


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """The training side of one split, shared by every step that uses it.

    Holds the split and its training graph.  The rest is built from the
    training graph on first use and kept: the normalization and labels the
    models read, the heuristic and Katz indices, and each model under
    (model kind, params), so tuning and scoring on one split train each
    model once, and Katz's grid points and test call share one radius.  A
    run that scores only heuristics never builds the normalization or labels.
    """

    split: EdgeSplit
    g_train: BipartiteGraph
    models: dict = field(default_factory=dict, repr=False)

    @cached_property
    def norm(self) -> NormalizedAdjacency:
        """The normalized adjacency of ``g_train``; built on first use."""
        return normalize(adjacency(self.g_train))

    @cached_property
    def labels(self):
        """The training labels of ``g_train``; built on first use."""
        return training_labels(adjacency(self.g_train))

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

    @cached_property
    def katz(self) -> KatzIndex:
        """The Katz index of ``g_train``; its dense blocks and spectral
        radius are built by the first closed-form Katz call."""
        return katz_index(self.g_train)


def build_run_artifacts(g: BipartiteGraph, split: EdgeSplit) -> RunArtifacts:
    """Training side of ``split``.  Reads only split.train_edges and seed."""
    return RunArtifacts(split=split, g_train=train_graph(g, split))


def _score_pairs(kind: ScorerKind, pairs, artifacts: RunArtifacts, params: dict) -> np.ndarray:
    """One call of scorer ``kind`` with hyperparameters ``params`` over ``pairs``."""
    if kind is ScorerKind.KATZ:
        return katz_score(artifacts.katz, params["beta"], pairs)
    if kind in HEURISTIC_KINDS:
        return heuristic_scores(artifacts.heuristics, kind, pairs)
    model, n_left = artifacts.model(SCORER_MODELS[kind], params), artifacts.g_train.n_left
    if kind is ScorerKind.TWO_HOP:
        return two_hop_score(model, artifacts.norm, n_left, pairs)
    if kind is ScorerKind.RECON_TWO_HOP:
        return recon_two_hop_score(model, n_left, pairs)
    return decode_score(model, n_left, pairs, kind=kind)


def _pos_neg_scores(kind: ScorerKind, pos, neg, artifacts: RunArtifacts, params: dict):
    """Score positives and negatives in one call; returns (pos, neg) scores."""
    scores = _score_pairs(kind, np.concatenate([pos, neg]), artifacts, params)
    return scores[: len(pos)], scores[len(pos) :]


def grid_search(artifacts: RunArtifacts, grid, scorer: ScorerKind):
    """Pick the parameter dict in ``grid`` maximizing validation AUC of ``scorer``.

    Exhaustive; ties keep the earlier grid point.  Returns
    (chosen_params, validation_auc).  Each point scores the validation
    positives and negatives in one call; its model, if the scorer needs one,
    is trained through ``artifacts.model`` and stays cached there, so other
    scorers and the run's own scoring reuse it.  Katz points the closed form
    rejects (beta at or above 1 / spectral_radius of the training graph) are
    logged and skipped; ValueError lists them all if no point is feasible.
    """
    if not grid:
        raise ValueError("grid_search needs a nonempty grid")
    split = artifacts.split
    best = None
    skipped = []
    for point in grid:
        try:
            pos, neg = _pos_neg_scores(scorer, split.val_pos, split.val_neg, artifacts, point)
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
            tuned[kind] = grid[0]
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
    *,
    tuned: dict,
):
    """Score the test pairs of ``artifacts.split``; returns a MetricReport per scorer.

    ``tuned`` maps each scorer to its parameters, as ``tune_scorers``
    returns them.  Deterministic in (artifacts.split, config, tuned).
    Models come from ``artifacts.model``, so those trained while tuning on
    the same artifacts are reused.
    """
    run_index = check_int("run_index", run_index, low=0)
    split = artifacts.split
    reports = []
    for kind in config.scorers:
        pos, neg = _pos_neg_scores(kind, split.test_pos, split.test_neg, artifacts, tuned[kind])
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
    """Append the run to ``exc.__notes__``, which 3.11+ tracebacks print."""
    note = f"while running {dataset_id!r} run {run_index} (seed {seed})"
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


@dataclass(frozen=True)
class Summary:
    """Aggregated benchmark results (one row per dataset x scorer)."""

    rows: tuple
    missing: tuple = ()

    def get(self, dataset: str, scorer: ScorerKind | str) -> SummaryRow:
        """The row of ``dataset`` and ``scorer``, a ``ScorerKind`` or a name
        ``ScorerKind.parse`` reads; KeyError when there is none."""
        if isinstance(scorer, str):
            scorer = ScorerKind.parse(scorer)
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
    ``Summary.missing``; other datasets still run.  Each loaded dataset runs
    exactly ``config.runs`` times, so every row's ``runs`` field is
    ``config.runs``.  Each run builds its split and ``RunArtifacts`` once;
    tuning uses run 0's, and run 0 then scores on the same ones.  A failing
    run raises with one note naming the dataset, run and seed.
    """
    missing = []
    reports = []
    for spec in config.datasets:
        try:
            g = load_dataset(spec, data_dir=data_dir)
        except Exception as exc:
            logger.warning("dataset %s unavailable: %s", spec.id, exc)
            missing.append((spec.id, f"{type(exc).__name__}: {exc}"))
            continue
        for r in range(config.runs):
            seed = config.base_seed + r
            try:
                artifacts = build_run_artifacts(g, split_edges(g, config.ratios, seed))
                if r == 0:
                    tuned = tune_scorers(artifacts, config)
                reports.extend(run_experiment(artifacts, config, r, dataset_id=spec.id, tuned=tuned))
            except Exception as exc:
                _add_run_note(exc, spec.id, r, seed)
                raise
    summary = Summary(rows=summarize(reports), missing=tuple(missing))
    if config.out_dir is not None:
        from pathlib import Path

        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(reports, out / "results.csv")
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


def _surface_scores(model: EmbeddingModel, artifacts: RunArtifacts, pairs: np.ndarray) -> tuple:
    """(decoded reconstruction, normalized adjacency entry) at local (k, 2) ``pairs``."""
    n_left = artifacts.g_train.n_left
    entries = artifacts.norm.matrix[pairs[:, 0], n_left + pairs[:, 1]]
    return decode_score(model, n_left, pairs), np.asarray(entries).ravel()


def _confusion_population(g: BipartiteGraph, seed: int):
    """Scored pair population as a (k, 2) local pair array plus 0/1 edge
    labels: every left-right pair for small graphs, edges plus an equal
    sample of non-edges for large ones."""
    if g.n <= CONFUSION_PAIR_LIMIT:
        pairs = np.column_stack(np.divmod(np.arange(g.n_left * g.n_right), g.n_right))
        return pairs, in_sorted(g.edge_keys, g.cell_keys(pairs)).astype(np.int64)
    pairs = np.concatenate([g.edges, sample_negatives(g, g.m, exclude=(), seed=seed)])
    labels = np.concatenate([np.ones(g.m, dtype=np.int64), np.zeros(g.m, dtype=np.int64)])
    return pairs, labels


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
    recon_scores, norm_scores = _surface_scores(model, artifacts, pop_pairs)
    recon_confusion = best_f1_threshold(recon_scores, pop_labels)
    norm_confusion = best_f1_threshold(norm_scores, pop_labels)

    # (b) mean raw two-hop mass per evaluation set, for both surfaces
    false_edges = sample_negatives(g, g.m, exclude=(), seed=extra_keys[1])
    # score_mass_report's six sets, in its parameter order
    mass_pairs = (split.test_pos, split.test_neg, split.val_pos, split.val_neg, g.edges, false_edges)
    mass_recon = score_mass_report(*(recon_two_hop_score(model, g.n_left, p) for p in mass_pairs))
    mass_two_hop = score_mass_report(*(two_hop_score(model, artifacts.norm, g.n_left, p) for p in mass_pairs))

    # (c) ranking quality of both surfaces on train/val/test with matched negatives
    train_neg = sample_negatives(g, len(split.train_edges), exclude=(), seed=extra_keys[2])
    subsets = (
        ("train", split.train_edges, train_neg),
        ("val", split.val_pos, split.val_neg),
        ("test", split.test_pos, split.test_neg),
    )
    ranking = []
    for name, pos, neg in subsets:
        pos_scores = _surface_scores(model, artifacts, pos)
        neg_scores = _surface_scores(model, artifacts, neg)
        for surface, s_pos, s_neg in zip(("recon", "norm_adj"), pos_scores, neg_scores):
            ranking.append(
                RankingRow(
                    subset=name, surface=surface,
                    auc=roc_auc(s_pos, s_neg), ap=average_precision(s_pos, s_neg),
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

    Schema (all keys optional; each list must be a JSON array):
      datasets:   list of ids or {"id", "source", "expected_nodes", "expected_edges"}
      scorers:    list of distinct scorer names (see ScorerKind; short aliases accepted)
      runs, base_seed: integers, runs >= 1 (any seed is taken modulo 2**64)
      ratios:     [train, val, test]: three finite, positive numbers summing to 1
      lgae_grid / gae_grid: list of {"learning_rate", "epochs", "embed_dim"[, "hidden_dim"]}
      katz_grid:  list of positive, finite damping factors (numbers)
      out_dir:    directory for CSV reports (a string)
    Nothing is coerced: a bool or a string for a number, a float for an
    integer, or a non-array for a list raises TypeError naming the key.
    ``BenchmarkConfig`` parses every value; only a non-object and unknown
    keys are caught here.
    """
    if not isinstance(raw, Mapping):
        raise TypeError(f"a config must be a JSON object, got {type(raw).__name__} {raw!r}")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return BenchmarkConfig(**raw)


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
