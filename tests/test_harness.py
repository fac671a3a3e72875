"""Tests for the benchmark harness: configs, tuning, runs, and diagnostics."""

import dataclasses
import json
import logging
import random
import sys

import numpy as np
import pytest

import bihop.harness as harness
from bihop import scoring
from bihop.autoencoder import ModelKind
from bihop.data import (
    DatasetSpec,
    generate_bipartite_er,
    generate_bipartite_sbm,
    read_report,
    southern_women_graph,
)
from bihop.graph import build_graph
from bihop.harness import (
    DEFAULT_KATZ_GRID,
    DEFAULT_LGAE_GRID,
    DEFAULT_RATIOS,
    BenchmarkConfig,
    Summary,
    SummaryRow,
    build_run_artifacts,
    config_from_dict,
    diagnose,
    format_diagnostics,
    grid_search,
    load_config,
    run_benchmark,
    run_experiment,
    tune_scorers,
)
from bihop.metrics import MetricReport, summarize
from bihop.scoring import HEURISTIC_KINDS, ScorerKind, adjacency_spectral_radius, heuristic_scores
from bihop.splits import split_edges


SMALL_GRID = ({"learning_rate": 0.01, "epochs": 40, "embed_dim": 8},)
SMALL_GAE_GRID = (
    {"learning_rate": 0.01, "epochs": 40, "embed_dim": 8, "hidden_dim": 16},
)


@pytest.fixture(scope="module")
def block_graph():
    """Two aligned 15x15 blocks, dense inside, sparse across."""
    return generate_bipartite_sbm([15, 15], [15, 15], p_in=0.5, p_out=0.05, seed=3)


def small_config(**overrides):
    base = dict(
        scorers=(ScorerKind.TWO_HOP,),
        runs=2,
        lgae_grid=SMALL_GRID,
        gae_grid=SMALL_GAE_GRID,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


def artifacts_for(g, config, run_index):
    """Run ``run_index``'s split and training side, as run_benchmark builds them."""
    return build_run_artifacts(g, split_edges(g, config.ratios, config.base_seed + run_index))


class TestBenchmarkConfig:
    def test_defaults(self):
        config = BenchmarkConfig()
        assert config.runs == 50
        assert config.ratios == DEFAULT_RATIOS
        assert config.scorers == (ScorerKind.TWO_HOP,)
        assert config.lgae_grid == DEFAULT_LGAE_GRID
        assert config.katz_grid == DEFAULT_KATZ_GRID

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="runs"):
            BenchmarkConfig(runs=0)

    def test_rejects_string_scorers(self):
        with pytest.raises(TypeError, match="ScorerKind"):
            BenchmarkConfig(scorers=("two_hop",))

    def test_rejects_empty_grid_for_model_scorer(self):
        with pytest.raises(ValueError, match="empty hyperparameter grid"):
            BenchmarkConfig(scorers=(ScorerKind.TWO_HOP,), lgae_grid=())
        with pytest.raises(ValueError, match="empty hyperparameter grid"):
            BenchmarkConfig(scorers=(ScorerKind.KATZ,), katz_grid=())

    def test_rejects_duplicate_scorers(self):
        """A scorer listed twice would be scored twice per run and report
        twice the runs."""
        pa = ScorerKind.PREFERENTIAL_ATTACHMENT
        with pytest.raises(ValueError, match="distinct"):
            BenchmarkConfig(scorers=(pa, ScorerKind.TWO_HOP, pa), runs=2)

    def test_empty_grid_fine_when_unused(self):
        config = BenchmarkConfig(scorers=(ScorerKind.COMMON_NEIGHBORS,), lgae_grid=())
        assert config.lgae_grid == ()


class TestRunExperiment:
    def test_deterministic_reports(self):
        g = southern_women_graph()
        config = small_config(
            scorers=(ScorerKind.TWO_HOP, ScorerKind.LGAE, ScorerKind.PREFERENTIAL_ATTACHMENT)
        )
        first = run_experiment(artifacts_for(g, config, 1), config, 1, dataset_id="sw")
        second = run_experiment(artifacts_for(g, config, 1), config, 1, dataset_id="sw")
        assert first == second
        assert [r.scorer for r in first] == list(config.scorers)
        assert all(r.run == 1 and r.seed == 1 and r.dataset == "sw" for r in first)

    def test_distinct_runs_use_distinct_seeds(self):
        g = southern_women_graph()
        config = small_config(scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,))
        r0 = run_experiment(artifacts_for(g, config, 0), config, 0)[0]
        r5 = run_experiment(artifacts_for(g, config, 5), config, 5)[0]
        assert r0.seed == config.base_seed
        assert r5.seed == config.base_seed + 5
        assert r0.run == 0 and r5.run == 5

    def test_metrics_in_range(self):
        g = southern_women_graph()
        config = small_config(scorers=(ScorerKind.TWO_HOP, ScorerKind.ADAMIC_ADAR))
        for report in run_experiment(artifacts_for(g, config, 0), config, 0):
            assert 0.0 <= report.auc <= 1.0
            assert 0.0 <= report.ap <= 1.0

    def test_empty_scorer_list_yields_no_reports(self):
        g = southern_women_graph()
        config = BenchmarkConfig(scorers=(), runs=1)
        assert run_experiment(artifacts_for(g, config, 0), config, 0) == []

    def test_negative_run_index_rejected(self):
        g = southern_women_graph()
        with pytest.raises(ValueError, match="run_index"):
            run_experiment(artifacts_for(g, small_config(), 0), small_config(), -1)

    def test_split_failure_propagates(self, monkeypatch):
        # Two edges cannot be split three ways, whatever the ratios.
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        monkeypatch.setattr(harness, "load_dataset", lambda spec, data_dir=None: g)
        config = small_config(
            datasets=("two_edges",), scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,), base_seed=2
        )
        with pytest.raises(ValueError, match="at least 3") as exc:
            run_benchmark(config)
        if sys.version_info >= (3, 11):
            assert exc.value.__notes__ == ["while running 'two_edges' run 0 (seed 2)"]

    def test_degree_product_auc_matches_hand_computation(self):
        # Small enough to score by hand: the test set is one held-out edge
        # and one sampled non-edge, so the AUC is 1, 1/2, or 0 depending on
        # how the two degree products compare.
        g = build_graph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])
        ratios = (0.5, 0.25, 0.25)
        config = BenchmarkConfig(
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,), runs=1, ratios=ratios
        )
        for run_index in range(6):
            split = split_edges(g, ratios, config.base_seed + run_index)
            assert len(split.test_pos) == 1 and len(split.test_neg) == 1
            left_deg = {u: 0 for u in range(3)}
            right_deg = {v: 0 for v in range(3)}
            for u, v in split.train_edges:
                left_deg[u] += 1
                right_deg[v] += 1

            def product(pair):
                return left_deg[pair[0]] * right_deg[pair[1]]

            s_pos = product(split.test_pos[0])
            s_neg = product(split.test_neg[0])
            expected = 1.0 if s_pos > s_neg else (0.5 if s_pos == s_neg else 0.0)
            report = run_experiment(build_run_artifacts(g, split), config, run_index)[0]
            assert report.auc == expected


class TestGridSearch:
    def test_singleton_grid_returns_that_point(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        point, val_auc = grid_search(
            build_run_artifacts(block_graph, split), SMALL_GRID, ScorerKind.TWO_HOP
        )
        assert point == SMALL_GRID[0]
        assert 0.0 <= val_auc <= 1.0

    def test_trained_point_beats_degenerate_point(self, block_graph):
        # One grid point barely moves off the random initialization, the
        # other actually trains; validation AUC must prefer the latter.
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        degenerate = {"learning_rate": 1e-12, "epochs": 1, "embed_dim": 8}
        trained = {"learning_rate": 0.01, "epochs": 150, "embed_dim": 8}
        artifacts = build_run_artifacts(block_graph, split)
        point, val_auc = grid_search(
            artifacts, (degenerate, trained), ScorerKind.TWO_HOP
        )
        assert point == trained
        _, auc_degenerate = grid_search(
            build_run_artifacts(block_graph, split), (degenerate,), ScorerKind.TWO_HOP
        )
        assert val_auc > auc_degenerate

    def test_duplicate_points_tie_break_keeps_first(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=1)
        grid = (dict(SMALL_GRID[0]), dict(SMALL_GRID[0]))
        point, val_auc = grid_search(build_run_artifacts(block_graph, split), grid, ScorerKind.TWO_HOP)
        single_point, single_auc = grid_search(
            build_run_artifacts(block_graph, split), SMALL_GRID, ScorerKind.TWO_HOP
        )
        assert point == single_point
        assert val_auc == single_auc

    def test_deterministic(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=2)
        grid = (
            {"learning_rate": 0.01, "epochs": 30, "embed_dim": 4},
            {"learning_rate": 0.01, "epochs": 30, "embed_dim": 8},
        )
        assert grid_search(
            build_run_artifacts(block_graph, split), grid, ScorerKind.LGAE
        ) == grid_search(build_run_artifacts(block_graph, split), grid, ScorerKind.LGAE)

    def test_katz_scalar_grid_points_coerced(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        point, _ = grid_search(
            build_run_artifacts(block_graph, split), (0.001, 0.01), ScorerKind.KATZ
        )
        assert set(point) == {"beta"}
        assert point["beta"] in (0.001, 0.01)

    def test_empty_grid_rejected(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            grid_search(build_run_artifacts(block_graph, split), (), ScorerKind.TWO_HOP)


DENSE_ER = {"model": "er", "n_left": 300, "n_right": 500, "p": 0.1, "seed": 0}


class TestKatzFeasibility:
    """On this graph 1 / spectral_radius is about 0.03, below the default
    grid's beta = 0.05, which the closed-form Katz resolvent cannot use."""

    @pytest.fixture(scope="class")
    def dense_er(self):
        g = generate_bipartite_er(300, 500, 0.1, seed=0)
        artifacts = build_run_artifacts(g, split_edges(g, DEFAULT_RATIOS, seed=0))
        limit = 1.0 / adjacency_spectral_radius(artifacts.a_train)
        return artifacts, limit

    def test_default_grid_skips_infeasible_points(self, dense_er, caplog):
        artifacts, limit = dense_er
        infeasible = [beta for beta in DEFAULT_KATZ_GRID if beta >= limit]
        assert infeasible == [0.05]
        with caplog.at_level(logging.WARNING, logger="bihop.harness"):
            point, val_auc = grid_search(artifacts, DEFAULT_KATZ_GRID, ScorerKind.KATZ)
        assert point["beta"] < limit
        assert 0.0 <= val_auc <= 1.0
        assert "{'beta': 0.05} skipped" in caplog.text

    def test_benchmark_with_default_grid_completes(self):
        config = BenchmarkConfig(
            datasets=(DatasetSpec(id="dense_er", source=DENSE_ER),),
            scorers=(ScorerKind.KATZ,), runs=1,
        )
        assert run_benchmark(config).get("dense_er", ScorerKind.KATZ).runs == 1

    def test_all_infeasible_grid_lists_every_point(self, dense_er):
        artifacts, _ = dense_er
        with pytest.raises(ValueError, match="no feasible katz grid point") as exc:
            grid_search(artifacts, (0.5, 0.9), ScorerKind.KATZ)
        assert "{'beta': 0.5}" in str(exc.value) and "{'beta': 0.9}" in str(exc.value)

    def test_other_errors_propagate(self, dense_er):
        artifacts, _ = dense_er
        with pytest.raises(ValueError, match="beta must be positive"):
            grid_search(artifacts, (0.001, -0.1), ScorerKind.KATZ)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="exception notes need Python 3.11")
    def test_run0_tuning_failure_carries_run_note(self):
        config = BenchmarkConfig(
            datasets=(DatasetSpec(id="dense_er", source=DENSE_ER),),
            scorers=(ScorerKind.KATZ,), runs=1, base_seed=4, katz_grid=(0.5, 0.9),
        )
        with pytest.raises(ValueError, match="no feasible") as exc:
            run_benchmark(config)
        assert exc.value.__notes__ == ["while running 'dense_er' run 0 (seed 4)"]


class TestTuneScorers:
    def test_singleton_grids_skip_search(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        config = small_config(scorers=(ScorerKind.TWO_HOP, ScorerKind.JACCARD))
        tuned = tune_scorers(build_run_artifacts(block_graph, split), config)
        assert tuned[ScorerKind.TWO_HOP] == SMALL_GRID[0]
        assert tuned[ScorerKind.JACCARD] == {}

    def test_multi_point_grid_selects_member(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        config = small_config(scorers=(ScorerKind.KATZ,), katz_grid=(0.001, 0.05))
        tuned = tune_scorers(build_run_artifacts(block_graph, split), config)
        assert tuned[ScorerKind.KATZ]["beta"] in (0.001, 0.05)


class TestLeakageDiscipline:
    def test_artifacts_ignore_heldout_pairs(self, block_graph):
        """Swapping the evaluation pairs must not change anything trained."""
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=4)
        tampered = dataclasses.replace(
            split,
            test_pos=tuple(reversed(split.test_pos)),
            val_pos=tuple(reversed(split.val_pos)),
            test_neg=split.val_neg,
            val_neg=split.test_neg,
        )
        a = build_run_artifacts(block_graph, split)
        b = build_run_artifacts(block_graph, tampered)
        assert np.array_equal(a.norm.matrix.toarray(), b.norm.matrix.toarray())
        assert a.g_train.edges == b.g_train.edges
        model_a = a.model(ModelKind.LGAE, SMALL_GRID[0])
        model_b = b.model(ModelKind.LGAE, SMALL_GRID[0])
        assert np.array_equal(model_a.Z, model_b.Z)
        probe = [(u, block_graph.n_left + v) for u in range(0, 30, 4) for v in range(30)]
        for kind in HEURISTIC_KINDS:
            assert np.array_equal(
                heuristic_scores(a.heuristics, kind, probe).scores,
                heuristic_scores(b.heuristics, kind, probe).scores,
            ), kind


BLOCKS = DatasetSpec(
    id="blocks",
    source={
        "model": "sbm", "left_sizes": [15, 15], "right_sizes": [15, 15],
        "p_in": 0.5, "p_out": 0.05, "seed": 3,
    },
)
TWO_POINT_GRID = (
    {"learning_rate": 0.01, "epochs": 30, "embed_dim": 4},
    {"learning_rate": 0.01, "epochs": 30, "embed_dim": 8},
)


def two_point_config(**overrides):
    base = dict(
        datasets=(BLOCKS,),
        scorers=(ScorerKind.TWO_HOP, ScorerKind.RECON_TWO_HOP, ScorerKind.LGAE, ScorerKind.KATZ),
        runs=1,
        lgae_grid=TWO_POINT_GRID,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


def count_calls(monkeypatch, name):
    """Wrap ``bihop.harness.<name>`` and return the list its calls land in."""
    calls = []
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


class TestSharedTrainingSide:
    """Tuning and run 0 share one split, one training side and its models."""

    def test_one_split_one_training_side_one_training_per_model(self, monkeypatch):
        trains = count_calls(monkeypatch, "train")
        splits = count_calls(monkeypatch, "split_edges")
        sides = count_calls(monkeypatch, "train_graph")
        summary = run_benchmark(two_point_config())
        assert len(summary.rows) == 4
        # Two grid points, one LGAE model each, shared by the three scorers
        # and reused when run 0 scores its test pairs.
        assert (len(trains), len(splits), len(sides)) == (2, 1, 1)

    def test_run0_equals_scoring_fresh_artifacts(self, monkeypatch):
        config = two_point_config()
        seen = []
        real = harness.run_experiment

        def recorded(artifacts, config, run_index, dataset_id="dataset", tuned=None):
            seen.append((tuned, real(artifacts, config, run_index, dataset_id, tuned)))
            return seen[-1][1]

        monkeypatch.setattr(harness, "run_experiment", recorded)
        run_benchmark(config)
        ((tuned, reports),) = seen
        g = generate_bipartite_sbm([15, 15], [15, 15], p_in=0.5, p_out=0.05, seed=3)
        fresh = artifacts_for(g, config, 0)
        assert fresh.models == {}
        assert real(fresh, config, 0, dataset_id="blocks", tuned=tuned) == reports

    def test_one_heuristic_index_and_one_two_step_set_per_target(self, monkeypatch):
        """The five heuristics share one index per split, which builds each
        right node's N2 once, not once per heuristic call."""
        indexes = count_calls(monkeypatch, "heuristic_index")
        targets = []
        real = scoring._two_step_neighborhood

        def counted(g, v):
            targets.append(v)
            return real(g, v)

        monkeypatch.setattr(scoring, "_two_step_neighborhood", counted)
        config = BenchmarkConfig(
            datasets=(BLOCKS,), scorers=tuple(k for k in ScorerKind if k in HEURISTIC_KINDS), runs=1
        )
        assert len(run_benchmark(config).rows) == 5
        g = generate_bipartite_sbm([15, 15], [15, 15], p_in=0.5, p_out=0.05, seed=3)
        split = split_edges(g, config.ratios, config.base_seed)
        test_targets = {g.n_left + v for _, v in split.test_pos + split.test_neg}
        assert len(indexes) == 1
        assert sorted(targets) == sorted(test_targets)


class TestAggregation:
    @staticmethod
    def _reports():
        return [
            MetricReport("d", ScorerKind.LGAE, run=r, seed=r, auc=a, ap=p)
            for r, (a, p) in enumerate([(0.7, 0.6), (0.9, 0.8), (0.8, 0.7)])
        ]

    def test_mean_and_population_std(self):
        (row,) = summarize(self._reports())
        assert (row.dataset, row.scorer, row.runs) == ("d", ScorerKind.LGAE, 3)
        assert row.auc_mean == pytest.approx(0.8)
        assert row.auc_std == pytest.approx(np.std([0.7, 0.9, 0.8]))
        assert row.ap_mean == pytest.approx(0.7)

    def test_order_independent(self):
        reports = self._reports()
        shuffled = list(reports)
        random.Random(9).shuffle(shuffled)
        assert summarize(reports) == summarize(shuffled)

    def test_filters_by_scorer(self):
        reports = self._reports() + [
            MetricReport("d", ScorerKind.GAE, run=0, seed=0, auc=0.1, ap=0.1)
        ]
        lgae, gae = summarize(reports)
        assert (lgae.scorer, lgae.runs, lgae.auc_mean) == (ScorerKind.LGAE, 3, pytest.approx(0.8))
        assert (gae.scorer, gae.runs, gae.auc_mean) == (ScorerKind.GAE, 1, 0.1)

    def test_summary_get_and_table(self):
        row = SummaryRow(
            dataset="d", scorer=ScorerKind.LGAE, runs=3,
            auc_mean=0.8, auc_std=0.1, ap_mean=0.7, ap_std=0.05,
        )
        summary = Summary(rows=(row,), missing=(("gone", "OSError: nope"),))
        assert summary.get("d", ScorerKind.LGAE) is row
        with pytest.raises(KeyError):
            summary.get("d", ScorerKind.GAE)
        with pytest.raises(KeyError):
            summary.get("other", ScorerKind.LGAE)
        text = summary.table()
        assert "dataset" in text and "method" in text
        assert "0.8000" in text
        assert "gone" in text and "MISSING: OSError: nope" in text


class TestRunBenchmark:
    def test_single_run_has_zero_std(self):
        config = small_config(
            datasets=(DatasetSpec(id="southern_women"),),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.COMMON_NEIGHBORS),
            runs=1,
        )
        summary = run_benchmark(config)
        assert len(summary.rows) == 2
        g = southern_women_graph()
        single = {
            r.scorer: r for r in run_experiment(artifacts_for(g, config, 0), config, 0, "southern_women")
        }
        for row in summary.rows:
            assert row.runs == 1
            assert row.auc_std == 0.0 and row.ap_std == 0.0
            assert row.auc_mean == single[row.scorer].auc
            assert row.ap_mean == single[row.scorer].ap

    def test_missing_dataset_recorded_and_others_run(self):
        config = small_config(
            datasets=(
                DatasetSpec(id="no_such_dataset"),
                DatasetSpec(id="southern_women"),
            ),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,),
            runs=1,
        )
        summary = run_benchmark(config)
        assert len(summary.missing) == 1
        missing_id, reason = summary.missing[0]
        assert missing_id == "no_such_dataset"
        assert reason.startswith("FileNotFoundError:")
        assert [row.dataset for row in summary.rows] == ["southern_women"]

    def test_string_dataset_entries_coerced(self):
        config = small_config(
            datasets=("southern_women",),
            scorers=(ScorerKind.JACCARD,),
            runs=1,
        )
        summary = run_benchmark(config)
        assert summary.rows[0].dataset == "southern_women"

    def test_time_budget_keeps_first_run(self):
        config = small_config(
            datasets=(DatasetSpec(id="southern_women"),),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,),
            runs=5,
            time_budget_s=0.0,
        )
        summary = run_benchmark(config)
        assert summary.rows[0].runs == 1

    def test_out_dir_writes_reports(self, tmp_path):
        out = tmp_path / "results"
        config = small_config(
            datasets=(DatasetSpec(id="southern_women"),),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.ADAMIC_ADAR),
            runs=2,
            out_dir=str(out),
        )
        summary = run_benchmark(config)
        per_run = out / "results.csv"
        per_summary = out / "results_summary.csv"
        assert per_run.exists() and per_summary.exists()
        records = read_report(per_run)
        assert len(records) == 4
        by_scorer = {}
        for rec in records:
            by_scorer.setdefault(rec.scorer, []).append(rec)
        for kind, recs in by_scorer.items():
            row = summary.get("southern_women", kind)
            assert row.auc_mean == pytest.approx(np.mean([r.auc for r in recs]))

    def test_summary_csv_equals_summary_rows(self, tmp_path):
        """results_summary.csv holds exactly the returned Summary rows."""
        er = DatasetSpec(
            id="er", source={"model": "er", "n_left": 20, "n_right": 25, "p": 0.2, "seed": 4}
        )
        config = small_config(
            datasets=(DatasetSpec(id="southern_women"), er),
            scorers=(ScorerKind.ADAMIC_ADAR, ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.KATZ),
            katz_grid=(0.001, 0.01),
            runs=3,
            out_dir=str(tmp_path),
        )
        summary = run_benchmark(config)
        lines = (tmp_path / "results_summary.csv").read_text().splitlines()[1:]
        assert len(lines) == len(summary.rows) == 6
        for line, row in zip(lines, summary.rows):
            dataset, method, *values = line.split(",")
            assert (dataset, method) == (row.dataset, row.scorer.value)
            assert [float(v) for v in values] == [
                float(repr(x)) for x in (row.auc_mean, row.auc_std, row.ap_mean, row.ap_std)
            ]

    def test_repeat_invocation_identical(self, block_graph):
        spec = DatasetSpec(
            id="blocks",
            source={
                "model": "sbm",
                "left_sizes": [15, 15],
                "right_sizes": [15, 15],
                "p_in": 0.5,
                "p_out": 0.05,
                "seed": 3,
            },
        )
        config = small_config(
            datasets=(spec,),
            scorers=(ScorerKind.TWO_HOP, ScorerKind.LGAE),
            runs=2,
        )
        assert run_benchmark(config) == run_benchmark(config)


@pytest.fixture(scope="module")
def bundle():
    g = generate_bipartite_sbm([15, 15], [15, 15], p_in=0.5, p_out=0.05, seed=3)
    config = small_config(datasets=())
    return g, diagnose(g, config, dataset_id="blocks", seed=4)


class TestDiagnose:
    def test_identity_fields(self, bundle):
        _, d = bundle
        assert d.dataset == "blocks"
        assert d.seed == 4

    def test_confusions_cover_every_cross_pair(self, bundle):
        g, d = bundle
        cells = g.n_left * g.n_right
        for cm in (d.recon_confusion, d.norm_confusion):
            assert cm.tp + cm.fp + cm.fn + cm.tn == cells
            assert cm.tp + cm.fn == g.m

    def test_norm_surface_never_false_positive(self, bundle):
        # The normalized training adjacency is nonzero only on training
        # edges, all of which are true edges, so its best-F1 threshold
        # yields no false positives and keeps every non-edge negative.
        g, d = bundle
        assert d.norm_confusion.fp == 0
        assert d.norm_confusion.tn == g.n_left * g.n_right - g.m

    def test_ranking_covers_subsets_and_surfaces(self, bundle):
        _, d = bundle
        assert [(r.subset, r.surface) for r in d.ranking] == [
            ("train", "recon"),
            ("train", "norm_adj"),
            ("val", "recon"),
            ("val", "norm_adj"),
            ("test", "recon"),
            ("test", "norm_adj"),
        ]
        for row in d.ranking:
            assert 0.0 <= row.auc <= 1.0
            assert 0.0 <= row.ap <= 1.0

    def test_norm_surface_separates_train_only(self, bundle):
        # Training edges carry positive normalized weight while sampled
        # non-edges carry zero, so the train subset ranks perfectly; the
        # held-out subsets see zeros on both sides and tie at one half.
        _, d = bundle
        by_key = {(r.subset, r.surface): r for r in d.ranking}
        assert by_key[("train", "norm_adj")].auc == 1.0
        assert by_key[("val", "norm_adj")].auc == 0.5
        assert by_key[("test", "norm_adj")].auc == 0.5

    def test_recon_memorizes_training_edges(self, bundle):
        _, d = bundle
        by_key = {(r.subset, r.surface): r for r in d.ranking}
        assert by_key[("train", "recon")].auc > 0.8

    def test_mass_tables_finite_and_signal_bearing(self, bundle):
        _, d = bundle
        for report in (d.mass_recon, d.mass_two_hop):
            rows = report.rows()
            assert [name for name, _, _ in rows] == ["test", "val", "all_edges"]
            for _, edge_mean, false_mean in rows:
                assert np.isfinite(edge_mean) and np.isfinite(false_mean)
        assert d.mass_two_hop.all_edge > d.mass_two_hop.all_false

    def test_format_diagnostics_text(self, bundle):
        _, d = bundle
        text = format_diagnostics(d)
        assert "diagnostics for blocks (seed 4)" in text
        assert "recon" in text and "norm_adj" in text
        assert "best-F1 threshold" in text
        assert "train" in text and "test" in text

    def test_deterministic(self, block_graph):
        config = small_config(datasets=())
        a = diagnose(block_graph, config, seed=0)
        b = diagnose(block_graph, config, seed=0)
        assert a == b

    def test_default_seed_is_base_seed(self, block_graph):
        config = small_config(datasets=(), base_seed=7)
        assert diagnose(block_graph, config).seed == 7


class TestConfigFromDict:
    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == BenchmarkConfig()

    def test_full_round_trip(self):
        raw = {
            "datasets": [
                "southern_women",
                {
                    "id": "er_small",
                    "source": {"model": "er", "n_left": 10, "n_right": 10,
                               "p": 0.2, "seed": 1},
                    "expected_nodes": 20,
                },
            ],
            "scorers": ["two_hop", "pa", "katz"],
            "runs": 3,
            "base_seed": 11,
            "ratios": [0.8, 0.1, 0.1],
            "lgae_grid": [{"learning_rate": 0.02, "epochs": 10, "embed_dim": 4}],
            "katz_grid": [0.001, 0.01],
            "time_budget_s": 60,
            "out_dir": "/tmp/somewhere",
        }
        config = config_from_dict(raw)
        assert config.datasets[0] == DatasetSpec(id="southern_women")
        assert config.datasets[1].id == "er_small"
        assert config.datasets[1].expected_nodes == 20
        assert config.scorers == (
            ScorerKind.TWO_HOP, ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.KATZ,
        )
        assert config.runs == 3
        assert config.base_seed == 11
        assert config.ratios == (0.8, 0.1, 0.1)
        assert config.lgae_grid == (
            {"learning_rate": 0.02, "epochs": 10, "embed_dim": 4},
        )
        assert config.katz_grid == (0.001, 0.01)
        assert config.time_budget_s == 60.0
        assert config.out_dir == "/tmp/somewhere"

    def test_null_budget_and_out_dir_stay_none(self):
        config = config_from_dict({"time_budget_s": None, "out_dir": None})
        assert config.time_budget_s is None
        assert config.out_dir is None

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*typo"):
            config_from_dict({"typo": 1})

    def test_removed_dense_threshold_key_rejected(self):
        """Katz picks its form by graph size alone; the old override key is
        now an unknown key, not silently ignored."""
        with pytest.raises(ValueError, match="unknown config keys.*dense_threshold"):
            config_from_dict({"dense_threshold": 4096})

    def test_keys_are_the_config_fields(self):
        raw = {f.name: getattr(BenchmarkConfig(), f.name) for f in dataclasses.fields(BenchmarkConfig)}
        raw["scorers"] = [k.value for k in raw["scorers"]]
        assert config_from_dict(raw) == BenchmarkConfig()

    def test_unknown_dataset_key_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset keys.*url"):
            config_from_dict({"datasets": [{"id": "x", "url": "http://x"}]})

    @pytest.mark.parametrize("names", [["pa", "pa"], ["pa", "pref_attach"]])
    def test_duplicate_scorer_rejected(self, names):
        with pytest.raises(ValueError, match="distinct"):
            config_from_dict({"scorers": names, "runs": 2})

    def test_unknown_scorer_name_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"scorers": ["definitely_not_a_scorer"]})

    def test_load_config_reads_json(self, tmp_path):
        raw = {"runs": 4, "scorers": ["cn", "jc"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        config = load_config(path)
        assert config.runs == 4
        assert config.scorers == (
            ScorerKind.COMMON_NEIGHBORS, ScorerKind.JACCARD,
        )
