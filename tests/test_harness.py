"""Tests for the benchmark harness: configs, tuning, runs, and diagnostics."""

import dataclasses
import json
import logging
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from bihop.scoring import HEURISTIC_KINDS, ScorerKind, heuristic_scores
from bihop.splits import split_edges

from conftest import katz_form

# Ratios that split graphs of a few edges: each part gets one edge from m = 3.
SMALL_RATIOS = (0.6, 0.2, 0.2)


@st.composite
def graphs_differing_off_train(draw):
    """(g, other, split, epochs): ``split`` is a seeded split of ``g``, and
    ``other`` keeps exactly its training edges plus a drawn set of the other
    cells, held-out edges of ``g`` or not."""
    n_left, n_right = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    cells = [(u, v) for u in range(n_left) for v in range(n_right)]
    # At least 3 edges to split, and as many non-edges as edges for the negatives.
    edges = draw(st.sets(st.sampled_from(cells), min_size=3, max_size=len(cells) // 2))
    g = build_graph(n_left, n_right, sorted(edges))
    split = split_edges(g, SMALL_RATIOS, draw(st.integers(0, 2**16)))
    train = set(map(tuple, split.train_edges.tolist()))
    rest = [c for c in cells if c not in train]
    in_other = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    other = build_graph(n_left, n_right, sorted(train | {c for c, keep in zip(rest, in_other) if keep}))
    return g, other, split, draw(st.integers(2, 3))


@st.composite
def small_benchmarks(draw):
    """A config of one to four distinct scorers on one small ER dataset that
    splits under ``SMALL_RATIOS``, one or two runs, and a two-point model
    grid of two-epoch models, so run 0 tunes."""
    source = {
        "model": "er", "n_left": draw(st.integers(4, 10)), "n_right": draw(st.integers(4, 10)),
        "p": draw(st.sampled_from([0.2, 0.3, 0.45])), "seed": draw(st.integers(0, 2**16)),
    }
    g = generate_bipartite_er(**{k: v for k, v in source.items() if k != "model"})
    assume(3 <= g.m <= g.n_left * g.n_right // 2)
    grid = tuple({"learning_rate": 0.01, "epochs": 2, "embed_dim": d} for d in (2, 4))
    return BenchmarkConfig(
        datasets=(DatasetSpec(id="er", source=source),),
        scorers=tuple(draw(st.lists(st.sampled_from(list(ScorerKind)), min_size=1, max_size=4, unique=True))),
        runs=draw(st.integers(1, 2)),
        base_seed=draw(st.integers(0, 2**32)),
        ratios=SMALL_RATIOS,
        lgae_grid=grid,
        gae_grid=tuple(dict(point, hidden_dim=4) for point in grid),
    )


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


def run_self_tuned(artifacts, config, run_index, dataset_id="dataset"):
    """``run_experiment`` with each scorer tuned on ``artifacts`` itself."""
    return run_experiment(artifacts, config, run_index, dataset_id, tuned=tune_scorers(artifacts, config))


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

    @pytest.mark.parametrize("key", ["runs", "base_seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "3", True])
    def test_rejects_non_integer_counts(self, key, value):
        """A float, a string or a bool fails at construction, before any
        dataset loads, and the error names the field."""
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            BenchmarkConfig(**{key: value})

    @pytest.mark.parametrize("key", ["embed_dim", "epochs"])
    @pytest.mark.parametrize("value", [2.5, 4.5, True])
    def test_rejects_non_integer_grid_sizes(self, key, value):
        """A fractional or bool training size fails at construction and
        names the grid point; 2.5 epochs used to fail in run 0, after the
        dataset had loaded, and ``True`` trained for one epoch."""
        with pytest.raises(TypeError, match=rf"lgae_grid\[1\]: {key} must be an integer"):
            BenchmarkConfig(lgae_grid=(SMALL_GRID[0], {**SMALL_GRID[0], key: value}))

    def test_numpy_integer_counts_become_ints(self):
        config = BenchmarkConfig(runs=np.int64(3), base_seed=np.uint8(7))
        assert (config.runs, config.base_seed) == (3, 7)
        assert type(config.runs) is int and type(config.base_seed) is int

    def test_scorer_names_parse_as_in_json(self):
        """A scorer name, alias included, parses in Python as it does in
        JSON; an entry that is neither a name nor a ScorerKind is named."""
        config = BenchmarkConfig(scorers=("two_hop", "pa", ScorerKind.KATZ))
        assert config.scorers == (ScorerKind.TWO_HOP, ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.KATZ)
        assert config == config_from_dict({"scorers": ["two_hop", "pa", "katz"]})
        with pytest.raises(TypeError, match=r"scorers\[1\] must be a ScorerKind or a scorer name, got 5"):
            BenchmarkConfig(scorers=("two_hop", 5))

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

    @pytest.mark.parametrize(
        "ratios",
        [(np.nan, 0.05, 0.10), (0.85, np.nan, 0.10), (0.85, 0.05, np.inf), (0.85, 0.05), (0.5, 0.5, 0.5)],
        ids=["nan_train", "nan_val", "inf_test", "two_values", "sum_above_one"],
    )
    def test_bad_ratios_rejected_at_construction(self, ratios):
        """``splits.check_ratios`` runs when the config is built, not in run 0
        after the dataset has loaded; a NaN train ratio used to run to the
        end on the split of 0.85."""
        with pytest.raises(ValueError, match=r"ratios(\[\d\])? must be"):
            BenchmarkConfig(ratios=ratios)
        with pytest.raises(ValueError, match="ratios"):
            config_from_dict({"ratios": list(ratios)})

    def test_empty_grid_fine_when_unused(self):
        config = BenchmarkConfig(scorers=(ScorerKind.COMMON_NEIGHBORS,), lgae_grid=())
        assert config.lgae_grid == ()

    def test_katz_grid_scalars_coerced_mappings_rejected(self):
        """Katz points are damping factors; a mapping used to score as the
        default beta whatever it held, so it is refused at construction.
        Numbers become floats; a string or a bool is not a number and is
        refused too, naming its index (``"0.01"`` used to be parsed and
        ``True`` to become beta 1.0)."""
        config = BenchmarkConfig(scorers=(ScorerKind.KATZ,), katz_grid=[1, np.float32(0.5)])
        assert config.katz_grid == (1.0, 0.5)
        assert all(type(b) is float for b in config.katz_grid)
        assert harness._grid_for(ScorerKind.KATZ, config) == ({"beta": 1.0}, {"beta": 0.5})
        for grid in (({},), ({"beta": 0.005, "gamma": 3},), (0.001, {"beta": 0.01})):
            with pytest.raises(TypeError, match="katz_grid"):
                BenchmarkConfig(katz_grid=grid)
        for grid, index in (([1, "0.01"], 1), ([True], 0), ([0.01, 0.02, False], 2)):
            with pytest.raises(TypeError, match=rf"katz_grid\[{index}\]: beta must be a real number"):
                BenchmarkConfig(katz_grid=grid)

    def test_dataset_mapping_is_a_spec_in_python_and_json(self):
        """A mapping of DatasetSpec fields becomes the same spec in Python
        and in JSON, with the same unknown-key and missing-id errors; an
        entry that is none of a spec, a mapping or an id is named by its
        position."""
        entry = {"id": "x", "source": {"model": "er", "n_left": 3, "n_right": 3, "p": 0.5}}
        config = BenchmarkConfig(datasets=["southern_women", entry])
        assert config.datasets == (DatasetSpec(id="southern_women"), DatasetSpec(**entry))
        assert config_from_dict({"datasets": ["southern_women", entry]}) == config
        for build in (lambda d: BenchmarkConfig(datasets=d), lambda d: config_from_dict({"datasets": d})):
            with pytest.raises(TypeError, match=r"datasets\[0\] must be a DatasetSpec, its fields or a dataset id, got 5"):
                build([5])
            with pytest.raises(ValueError, match=r"unknown dataset keys in datasets\[1\]: \['url'\]"):
                build(["toy", {"id": "x", "url": "http://x"}])
            with pytest.raises(ValueError, match=r"datasets\[1\] has no 'id'"):
                build(["toy", {"source": None}])

    @pytest.mark.parametrize("bad", [5, None, "", b"toy"])
    def test_dataset_id_must_be_a_non_empty_string(self, bad):
        """A spec whose id is not a non-empty str is named by its position;
        ``DatasetSpec(id=5)`` used to run and report the int 5 as the
        dataset."""
        with pytest.raises(TypeError, match=r"datasets\[1\]: id must be a non-empty string"):
            BenchmarkConfig(datasets=["southern_women", DatasetSpec(id=bad)])
        with pytest.raises(TypeError, match=r"datasets\[0\]: id must be a non-empty string"):
            config_from_dict({"datasets": [{"id": bad, "source": None}]})

    @pytest.mark.parametrize("key", ["lgae_grid", "gae_grid"])
    @pytest.mark.parametrize("point", ["ab", 5, [["epochs", 3]], None])
    def test_model_grid_point_must_be_a_mapping(self, key, point):
        """A grid entry that is not a mapping is named by its position, not
        by ``dict()``'s "dictionary update sequence" or "not iterable"."""
        with pytest.raises(TypeError, match=rf"{key}\[1\] must be a mapping"):
            BenchmarkConfig(**{key: (SMALL_GRID[0], point)})
        with pytest.raises(TypeError, match=rf"{key}\[0\] must be a mapping"):
            config_from_dict({key: [point]})

    def test_out_dir_must_be_a_path(self, tmp_path):
        for bad in (5, 1.5, True, ["out"]):
            with pytest.raises(TypeError, match="out_dir must be a path string"):
                BenchmarkConfig(out_dir=bad)
        assert BenchmarkConfig(out_dir=tmp_path).out_dir == tmp_path
        assert BenchmarkConfig(out_dir="reports").out_dir == "reports"

    @pytest.mark.parametrize(
        "scorer, grids, error, match",
        [
            (
                ScorerKind.TWO_HOP, {"lgae_grid": ({"learning_rte": 0.01},)},
                TypeError, r"lgae_grid\[0\]: .*'learning_rte'",
            ),
            (
                ScorerKind.LGAE, {"lgae_grid": (SMALL_GRID[0], {"seed": 3})},
                TypeError, r"lgae_grid\[1\]: .*'seed'",
            ),
            (
                ScorerKind.RECON_TWO_HOP, {"lgae_grid": ({"epochs": 0},)},
                ValueError, r"lgae_grid\[0\]: epochs must be >= 1",
            ),
            (
                ScorerKind.GAE, {"gae_grid": ({"hidden_dim": 0},)},
                ValueError, r"gae_grid\[0\]: hidden_dim must be >= 1",
            ),
            (
                ScorerKind.KATZ, {"katz_grid": (0.01, -0.01)},
                ValueError, r"katz_grid\[1\]: beta must be positive",
            ),
            (
                ScorerKind.KATZ, {"katz_grid": (0.0,)},
                ValueError, r"katz_grid\[0\]: beta must be positive",
            ),
            (ScorerKind.KATZ, {"katz_grid": (np.nan,)}, ValueError, r"katz_grid\[0\]: .* and finite"),
            (ScorerKind.KATZ, {"katz_grid": (0.01, np.inf)}, ValueError, r"katz_grid\[1\]: .* and finite"),
            (ScorerKind.KATZ, {"katz_grid": (-np.inf,)}, ValueError, r"katz_grid\[0\]: .* and finite"),
            *(
                (
                    ScorerKind.LGAE, {"lgae_grid": (dict(SMALL_GRID[0], learning_rate=rate),)},
                    ValueError, r"lgae_grid\[0\]: learning_rate must be positive and finite",
                )
                for rate in (np.nan, np.inf, -np.inf)
            ),
        ],
        ids=[
            "unknown_key", "seed", "zero_epochs", "zero_hidden_dim", "negative_beta", "zero_beta",
            "nan_beta", "inf_beta", "-inf_beta", "nan_learning_rate", "inf_learning_rate", "-inf_learning_rate",
        ],
    )
    def test_bad_grid_point_rejected_at_construction(self, scorer, grids, error, match):
        """Each point used to pass construction and fail only once run 0 had
        loaded and split its dataset; the error keeps the type the failing
        check raises and names the grid and index."""
        with pytest.raises(error, match=match):
            BenchmarkConfig(scorers=(scorer,), **grids)

    def test_bad_point_in_an_unused_model_grid_rejected(self):
        """Every model grid point is checked at construction, whether or not
        a listed scorer reads its grid; an empty unused grid is still fine."""
        with pytest.raises(ValueError, match=r"lgae_grid\[1\]: epochs must be >= 1"):
            BenchmarkConfig(scorers=(ScorerKind.COMMON_NEIGHBORS,), lgae_grid=(SMALL_GRID[0], {"epochs": 0}))
        with pytest.raises(TypeError, match=r"gae_grid\[0\]: .*'learning_rte'"):
            BenchmarkConfig(scorers=(ScorerKind.TWO_HOP,), gae_grid=({"learning_rte": 0.01},))
        assert BenchmarkConfig(scorers=(ScorerKind.KATZ,), lgae_grid=(), gae_grid=()).lgae_grid == ()

    def test_inputs_take_one_form(self):
        """Dataset ids become DatasetSpecs, ratios floats and model grids
        tuples of dicts, once, at construction; replace() keeps that form."""
        spec = DatasetSpec(id="er", source={"model": "er", "n_left": 3, "n_right": 3, "p": 0.5})
        config = BenchmarkConfig(
            datasets=["southern_women", spec],
            ratios=[np.float32(0.5), 0.25, 0.25],
            lgae_grid=[SMALL_GRID[0]],
        )
        assert config.datasets == (DatasetSpec(id="southern_women"), spec)
        assert config.ratios == (0.5, 0.25, 0.25) and all(type(r) is float for r in config.ratios)
        assert config.lgae_grid == SMALL_GRID and type(config.lgae_grid) is tuple
        assert harness._grid_for(ScorerKind.TWO_HOP, config) is config.lgae_grid
        assert dataclasses.replace(config) == config
        assert dataclasses.replace(config, runs=3).datasets == config.datasets


class TestRunExperiment:
    def test_deterministic_reports(self):
        g = southern_women_graph()
        config = small_config(
            scorers=(ScorerKind.TWO_HOP, ScorerKind.LGAE, ScorerKind.PREFERENTIAL_ATTACHMENT)
        )
        first = run_self_tuned(artifacts_for(g, config, 1), config, 1, dataset_id="sw")
        second = run_self_tuned(artifacts_for(g, config, 1), config, 1, dataset_id="sw")
        assert first == second
        assert [r.scorer for r in first] == list(config.scorers)
        assert all(r.run == 1 and r.seed == 1 and r.dataset == "sw" for r in first)

    def test_distinct_runs_use_distinct_seeds(self):
        g = southern_women_graph()
        config = small_config(scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,))
        r0 = run_self_tuned(artifacts_for(g, config, 0), config, 0)[0]
        r5 = run_self_tuned(artifacts_for(g, config, 5), config, 5)[0]
        assert r0.seed == config.base_seed
        assert r5.seed == config.base_seed + 5
        assert r0.run == 0 and r5.run == 5

    def test_metrics_in_range(self):
        g = southern_women_graph()
        config = small_config(scorers=(ScorerKind.TWO_HOP, ScorerKind.ADAMIC_ADAR))
        for report in run_self_tuned(artifacts_for(g, config, 0), config, 0):
            assert 0.0 <= report.auc <= 1.0
            assert 0.0 <= report.ap <= 1.0

    def test_empty_scorer_list_yields_no_reports(self):
        g = southern_women_graph()
        config = BenchmarkConfig(scorers=(), runs=1)
        assert run_self_tuned(artifacts_for(g, config, 0), config, 0) == []

    def test_negative_run_index_rejected(self):
        g = southern_women_graph()
        with pytest.raises(ValueError, match="run_index"):
            run_self_tuned(artifacts_for(g, small_config(), 0), small_config(), -1)

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
            report = run_self_tuned(build_run_artifacts(g, split), config, run_index)[0]
            assert report.auc == expected

    def test_tuned_missing_a_configured_scorer_raises(self):
        """``tuned`` must cover every configured scorer; a missing one is an
        error, not a silent fall back to default hyperparameters."""
        g = southern_women_graph()
        config = small_config(scorers=(ScorerKind.TWO_HOP, ScorerKind.JACCARD))
        artifacts = artifacts_for(g, config, 0)
        with pytest.raises(KeyError):
            run_experiment(artifacts, config, 0, tuned={ScorerKind.JACCARD: {}})
        assert artifacts.models == {}


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

    def test_takes_parameter_dicts_only(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        artifacts = build_run_artifacts(block_graph, split)
        point, _ = grid_search(artifacts, ({"beta": 0.001}, {"beta": 0.01}), ScorerKind.KATZ)
        assert point in ({"beta": 0.001}, {"beta": 0.01})
        with pytest.raises(TypeError):
            grid_search(artifacts, (0.001, 0.01), ScorerKind.KATZ)

    def test_empty_grid_rejected(self, block_graph):
        split = split_edges(block_graph, DEFAULT_RATIOS, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            grid_search(build_run_artifacts(block_graph, split), (), ScorerKind.TWO_HOP)


DENSE_ER = {"model": "er", "n_left": 300, "n_right": 500, "p": 0.1, "seed": 0}


def katz_points(betas):
    """Katz grid points as the parameter dicts ``grid_search`` takes."""
    return tuple({"beta": b} for b in betas)


class TestKatzFeasibility:
    """On this graph 1 / spectral_radius is about 0.03, below the default
    grid's beta = 0.05, which the closed-form Katz resolvent cannot use."""

    @pytest.fixture(scope="class")
    def dense_er(self):
        g = generate_bipartite_er(300, 500, 0.1, seed=0)
        artifacts = build_run_artifacts(g, split_edges(g, DEFAULT_RATIOS, seed=0))
        limit = 1.0 / artifacts.katz.blocks[2]
        return artifacts, limit

    def test_default_grid_skips_infeasible_points(self, dense_er, caplog):
        artifacts, limit = dense_er
        infeasible = [beta for beta in DEFAULT_KATZ_GRID if beta >= limit]
        assert infeasible == [0.05]
        with caplog.at_level(logging.WARNING, logger="bihop.harness"):
            point, val_auc = grid_search(artifacts, katz_points(DEFAULT_KATZ_GRID), ScorerKind.KATZ)
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
            grid_search(artifacts, katz_points((0.5, 0.9)), ScorerKind.KATZ)
        assert "{'beta': 0.5}" in str(exc.value) and "{'beta': 0.9}" in str(exc.value)

    def test_other_errors_propagate(self, dense_er):
        artifacts, _ = dense_er
        with pytest.raises(ValueError, match="beta must be positive"):
            grid_search(artifacts, katz_points((0.001, -0.1)), ScorerKind.KATZ)

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
            test_pos=split.test_pos[::-1],
            val_pos=split.val_pos[::-1],
            test_neg=split.val_neg,
            val_neg=split.test_neg,
        )
        a = build_run_artifacts(block_graph, split)
        b = build_run_artifacts(block_graph, tampered)
        assert np.array_equal(a.norm.matrix.toarray(), b.norm.matrix.toarray())
        assert np.array_equal(a.g_train.edges, b.g_train.edges)
        model_a = a.model(ModelKind.LGAE, SMALL_GRID[0])
        model_b = b.model(ModelKind.LGAE, SMALL_GRID[0])
        assert np.array_equal(model_a.Z, model_b.Z)
        probe = [(u, block_graph.n_left + v) for u in range(0, 30, 4) for v in range(30)]
        for kind in HEURISTIC_KINDS:
            assert np.array_equal(
                heuristic_scores(a.heuristics, kind, probe).scores,
                heuristic_scores(b.heuristics, kind, probe).scores,
            ), kind
        for form in ("closed", "series"):
            with katz_form(form):
                katz_a = scoring.katz_score(a.katz, 0.01, probe).scores
                katz_b = scoring.katz_score(b.katz, 0.01, probe).scores
            assert katz_a.tobytes() == katz_b.tobytes(), form

    @settings(max_examples=50)
    @given(case=graphs_differing_off_train())
    def test_scores_ignore_edges_outside_training(self, case):
        """Two graphs on the same node sets whose edges agree on the split's
        training edges and may differ anywhere else give byte-equal scores
        on every heterogeneous pair, for all ten scorers and both Katz forms."""
        g, other, split, epochs = case
        a = build_run_artifacts(g, split)
        b = build_run_artifacts(other, split)
        probe = np.argwhere(np.ones((g.n_left, g.n_right), dtype=bool)) + (0, g.n_left)
        params = dict.fromkeys(ScorerKind, {"learning_rate": 0.01, "epochs": epochs, "embed_dim": 4})
        params[ScorerKind.GAE] = dict(params[ScorerKind.GAE], hidden_dim=4)
        params[ScorerKind.KATZ] = {"beta": 0.01}
        for kind in ScorerKind:
            for form in ("closed", "series") if kind is ScorerKind.KATZ else ("closed",):
                with katz_form(form):
                    got_a = harness._score_pairs(kind, probe, a, params[kind])
                    got_b = harness._score_pairs(kind, probe, b, params[kind])
                assert got_a.tobytes() == got_b.tobytes(), (kind, form)


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


def run_five_heuristics():
    """One run of the five heuristics on BLOCKS; returns its graph and split."""
    config = BenchmarkConfig(
        datasets=(BLOCKS,), scorers=tuple(k for k in ScorerKind if k in HEURISTIC_KINDS), runs=1
    )
    assert len(run_benchmark(config).rows) == 5
    g = generate_bipartite_sbm([15, 15], [15, 15], p_in=0.5, p_out=0.05, seed=3)
    return g, split_edges(g, config.ratios, config.base_seed)


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

        def recorded(artifacts, config, run_index, dataset_id="dataset", *, tuned):
            seen.append((tuned, real(artifacts, config, run_index, dataset_id, tuned=tuned)))
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
        g, split = run_five_heuristics()
        test = np.concatenate([split.test_pos, split.test_neg])
        test_targets = {g.n_left + v for v in test[:, 1].tolist()}
        assert len(indexes) == 1
        assert sorted(targets) == sorted(test_targets)

    def test_one_intersection_per_test_pair(self, monkeypatch):
        """cn, jc, aa and ra read one memo per index, so each unique test
        pair's N(u) & N2(v) is built once, not once per heuristic."""
        built = []
        real = scoring._common_scores

        def counted(index, lefts, rights):
            built.extend(zip(lefts.tolist(), rights.tolist()))
            return real(index, lefts, rights)

        monkeypatch.setattr(scoring, "_common_scores", counted)
        g, split = run_five_heuristics()
        test = np.concatenate([split.test_pos, split.test_neg])
        test_pairs = {(u, g.n_left + v) for u, v in test.tolist()}
        assert sorted(built) == sorted(test_pairs)

    def test_one_spectral_radius_per_training_graph(self, monkeypatch):
        """The four Katz grid points and run 0's test call score through one
        index per split, which computes the spectral radius once."""
        radii = []
        real = scoring.adjacency_spectral_radius

        def counted(*args):
            radii.append(args)
            return real(*args)

        monkeypatch.setattr(scoring, "adjacency_spectral_radius", counted)
        katz_calls = count_calls(monkeypatch, "katz_score")
        config = BenchmarkConfig(datasets=(BLOCKS,), scorers=(ScorerKind.KATZ,), runs=1)
        assert len(config.katz_grid) == 4
        run_benchmark(config)
        assert len(katz_calls) == 5
        assert len(radii) == 1

    def test_heuristics_only_build_no_training_side(self, monkeypatch):
        """A heuristic-only run reads the heuristic index alone: it never
        normalizes the training adjacency or builds training labels."""
        norms = count_calls(monkeypatch, "normalize")
        labels = count_calls(monkeypatch, "training_labels")
        kept = []
        real = harness.build_run_artifacts

        def recorded(g, split):
            kept.append(real(g, split))
            return kept[-1]

        monkeypatch.setattr(harness, "build_run_artifacts", recorded)
        run_five_heuristics()
        (artifacts,) = kept
        assert "heuristics" in vars(artifacts)
        assert "norm" not in vars(artifacts) and "labels" not in vars(artifacts)
        assert (norms, labels) == ([], [])


def rebuilt(kind):
    """One fresh object of each array-holding kind, southern_women seed 0."""
    g = southern_women_graph()
    artifacts = build_run_artifacts(g, split_edges(g, DEFAULT_RATIOS, seed=0))
    model = artifacts.model(ModelKind.LGAE, SMALL_GRID[0])
    return {
        "graph": g,
        "norm": artifacts.norm,
        "model": model,
        "artifacts": artifacts,
        "scores": scoring.decode_score(model, [(0, 20), (1, 21)]),
    }[kind]


@pytest.mark.parametrize("kind", ["graph", "norm", "model", "artifacts", "scores"])
def test_equality_of_array_holders_is_identity(kind):
    """== on these returns a bool (identity) instead of raising on arrays."""
    x = rebuilt(kind)
    assert (x == x) is True
    assert (x == rebuilt(kind)) is False


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
            r.scorer: r for r in run_self_tuned(artifacts_for(g, config, 0), config, 0, "southern_women")
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

    def test_bad_generator_spec_recorded_as_missing(self):
        """A generator mapping with a typo'd key is one missing dataset, as
        any load error is, and the other datasets still run."""
        bad = {"model": "er", "n_left": 20, "n_right": 20, "p": 0.25, "seed": 1, "p_typo": 3}
        config = small_config(
            datasets=(DatasetSpec(id="typo", source=bad), DatasetSpec(id="southern_women")),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,),
            runs=1,
        )
        summary = run_benchmark(config)
        ((missing_id, reason),) = summary.missing
        assert missing_id == "typo"
        assert reason.startswith("ValueError:") and "p_typo" in reason
        assert [row.dataset for row in summary.rows] == ["southern_women"]

    def test_source_of_another_type_recorded_as_missing(self):
        """``source=5`` used to be read as the path ``5``; now it is one
        missing dataset, named, and the other datasets still run."""
        config = small_config(
            datasets=(DatasetSpec(id="five", source=5), DatasetSpec(id="southern_women")),
            scorers=(ScorerKind.PREFERENTIAL_ATTACHMENT,),
            runs=1,
        )
        summary = run_benchmark(config)
        ((missing_id, reason),) = summary.missing
        assert missing_id == "five"
        assert reason.startswith("TypeError:") and "source must be" in reason
        assert [row.dataset for row in summary.rows] == ["southern_women"]

    def test_string_dataset_entries_coerced(self):
        config = small_config(
            datasets=("southern_women",),
            scorers=(ScorerKind.JACCARD,),
            runs=1,
        )
        summary = run_benchmark(config)
        assert summary.rows[0].dataset == "southern_women"

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

    @settings(max_examples=25)
    @given(config=small_benchmarks())
    def test_whole_run_is_a_function_of_graph_and_config(self, config):
        """Two ``run_benchmark`` calls with one config write byte-equal
        results.csv and results_summary.csv, and every row keeps all
        ``runs`` runs."""
        with tempfile.TemporaryDirectory() as tmp:
            outs = [Path(tmp) / name for name in ("first", "second")]
            summaries = [run_benchmark(dataclasses.replace(config, out_dir=str(out))) for out in outs]
            for name in ("results.csv", "results_summary.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert summaries[0] == summaries[1]
        assert [row.runs for row in summaries[0].rows] == [config.runs] * len(config.scorers)

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

    def test_large_graph_confusion_samples_one_non_edge_per_edge(self, bundle, monkeypatch):
        """Above CONFUSION_PAIR_LIMIT nodes the population is every edge plus
        as many sampled non-edges, not every cross pair."""
        g, _ = bundle
        monkeypatch.setattr(harness, "CONFUSION_PAIR_LIMIT", g.n - 1)
        pairs, labels = harness._confusion_population(g, seed=11)
        m = g.m
        assert pairs.shape == (2 * m, 2)
        assert np.array_equal(pairs[:m], g.edges + (0, g.n_left))
        sampled = pairs[m:] - (0, g.n_left)
        assert ((0 <= sampled) & (sampled < (g.n_left, g.n_right))).all()
        assert len({(u, v) for u, v in sampled.tolist()}) == m
        assert not any(g.has_edge(u, v) for u, v in sampled.tolist())
        assert labels.tolist() == [1] * m + [0] * m
        again, again_labels = harness._confusion_population(g, seed=11)
        assert np.array_equal(again, pairs) and np.array_equal(again_labels, labels)

        config = small_config(datasets=())
        d = diagnose(g, config, dataset_id="blocks", seed=4)
        for cm in (d.recon_confusion, d.norm_confusion):
            assert cm.tp + cm.fp + cm.fn + cm.tn == 2 * m
            assert cm.tp + cm.fn == m
        assert d.norm_confusion.fp == 0
        assert diagnose(g, config, dataset_id="blocks", seed=4) == d

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
        assert config.out_dir == "/tmp/somewhere"

    def test_fractional_runs_rejected(self):
        """JSON ``"runs": 2.7`` is refused rather than truncated to 2 runs."""
        with pytest.raises(TypeError, match="runs must be an integer, got 2.7"):
            config_from_dict({"runs": 2.7})
        with pytest.raises(TypeError, match="base_seed must be an integer"):
            config_from_dict({"base_seed": "11"})

    def test_null_out_dir_stays_none(self):
        config = config_from_dict({"out_dir": None})
        assert config.out_dir is None

    def test_out_dir_is_not_cast_to_a_string(self):
        """JSON ``"out_dir": 5`` used to become the directory "5"."""
        with pytest.raises(TypeError, match="out_dir must be a path string, got 5"):
            config_from_dict({"out_dir": 5})

    @pytest.mark.parametrize("bad", [5, None, ["pa"], {"name": "pa"}])
    def test_scorer_entry_that_is_not_a_name_is_named(self, bad):
        """``{"scorers": [5]}`` used to raise a bare AttributeError from
        ``str.strip``."""
        with pytest.raises(TypeError, match=r"scorers\[1\] must be a ScorerKind"):
            config_from_dict({"scorers": ["pa", bad]})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*typo"):
            config_from_dict({"typo": 1})

    def test_removed_dense_threshold_key_rejected(self):
        """Katz picks its form by graph size alone; the old override key is
        now an unknown key, not silently ignored."""
        with pytest.raises(ValueError, match="unknown config keys.*dense_threshold"):
            config_from_dict({"dense_threshold": 4096})

    def test_removed_time_budget_key_rejected(self):
        """``runs`` is the only bound on the run count; the old wall-clock
        budget key is now an unknown key, null or not."""
        for budget in (60, None):
            with pytest.raises(ValueError, match="unknown config keys.*time_budget_s"):
                config_from_dict({"time_budget_s": budget})
        assert not hasattr(BenchmarkConfig(), "time_budget_s")

    def test_readme_config_schema_is_valid(self):
        """README's "Config schema" block parses with ``config_from_dict`` and
        names every ``BenchmarkConfig`` field, so the documented keys can
        neither drift from the accepted ones nor leave one out."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config schema", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = json.loads(block)
        config_from_dict(raw)
        assert set(raw) == {f.name for f in dataclasses.fields(BenchmarkConfig)}

    def test_keys_are_the_config_fields(self):
        raw = {f.name: getattr(BenchmarkConfig(), f.name) for f in dataclasses.fields(BenchmarkConfig)}
        raw["scorers"] = [k.value for k in raw["scorers"]]
        assert config_from_dict(raw) == BenchmarkConfig()

    def test_unknown_dataset_key_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset keys.*url"):
            config_from_dict({"datasets": [{"id": "x", "url": "http://x"}]})

    def test_dataset_mapping_without_id_rejected(self):
        """A mapping with no id is named by its position, not a bare TypeError."""
        with pytest.raises(ValueError, match=r"datasets\[1\] has no 'id'"):
            config_from_dict({"datasets": ["toy", {"source": None}]})

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

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"datasets": "abc"}, "datasets"),
            ({"scorers": "pa"}, "scorers"),
            ({"ratios": "0.85"}, "ratios"),
            ({"lgae_grid": {"learning_rate": 0.01}}, "lgae_grid"),
            ({"gae_grid": "x"}, "gae_grid"),
            ({"katz_grid": 0.01}, "katz_grid"),
        ],
        ids=["datasets", "scorers", "ratios", "lgae_grid", "gae_grid", "katz_grid"],
    )
    def test_lists_must_be_arrays(self, raw, key):
        """``{"datasets": "abc"}`` used to build datasets a, b and c, and
        ``{"scorers": "pa"}`` failed as ``unknown scorer 'p'``.  The rule is
        BenchmarkConfig's, so it holds for a config built in Python and for
        ``dataclasses.replace`` too."""
        with pytest.raises(TypeError, match=f"{key} must be an array"):
            config_from_dict(raw)
        with pytest.raises(TypeError, match=f"{key} must be an array"):
            BenchmarkConfig(**raw)
        with pytest.raises(TypeError, match=f"{key} must be an array"):
            dataclasses.replace(BenchmarkConfig(), **raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("datasets", "southern_women"),
            ("datasets", 5),
            ("datasets", b"southern_women"),
            ("scorers", ScorerKind.KATZ),
            ("ratios", 0.85),
            ("katz_grid", 0.01),
            ("lgae_grid", {"learning_rate": 0.01}),
            ("gae_grid", None),
        ],
        ids=["datasets_str", "datasets_int", "datasets_bytes", "scorers_kind", "ratios_float",
             "katz_grid_float", "lgae_grid_mapping", "gae_grid_none"],
    )
    def test_config_built_in_python_requires_arrays(self, key, value):
        """``datasets="southern_women"`` used to run 14 one-letter datasets,
        all missing, and ``katz_grid=0.01`` failed as "'float' object is not
        iterable", naming no key."""
        with pytest.raises(TypeError, match=f"{key} must be an array"):
            BenchmarkConfig(**{key: value})

    def test_array_fields_take_any_iterable_as_a_tuple(self):
        config = BenchmarkConfig(
            datasets=["southern_women"],
            scorers=iter([ScorerKind.KATZ]),
            ratios=[0.85, 0.05, 0.10],
            katz_grid=np.array([0.01, 0.05]),
        )
        assert config.datasets == (DatasetSpec(id="southern_women"),)
        assert config.scorers == (ScorerKind.KATZ,)
        assert config.katz_grid == (0.01, 0.05)
        assert dataclasses.replace(config) == config

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"scorers": ["katz"], "katz_grid": [True]}, r"katz_grid\[0\]: beta must be a real number"),
            ({"scorers": ["katz"], "katz_grid": [0.001, "0.01"]}, r"katz_grid\[1\]: beta must be a real number"),
            ({"ratios": ["0.85", "0.05", "0.10"]}, r"ratios\[0\] must be a real number"),
        ],
        ids=["bool_beta", "string_beta", "string_ratios"],
    )
    def test_json_numbers_are_not_coerced(self, raw, match):
        """``[true]`` used to become beta 1.0, and strings were parsed."""
        with pytest.raises(TypeError, match=match):
            config_from_dict(raw)

    def test_string_probability_in_generator_spec_lands_in_missing(self):
        """A spec with ``"p": "0.3"`` used to load and run."""
        source = {"model": "er", "n_left": 10, "n_right": 10, "p": "0.3", "seed": 1}
        config = config_from_dict({"datasets": [{"id": "er", "source": source}], "scorers": ["pa"], "runs": 1})
        summary = run_benchmark(config)
        assert summary.rows == ()
        assert summary.missing == (("er", "TypeError: p must be a real number, got '0.3'"),)


@st.composite
def valid_json_configs(draw):
    """A valid JSON config for one small generated dataset: every scorer
    that reads a grid is listed, so every grid point is checked."""
    source = {
        "model": "er", "n_left": draw(st.integers(6, 9)), "n_right": draw(st.integers(6, 9)),
        "p": draw(st.sampled_from([0.3, 0.4])), "seed": draw(st.integers(-(2**70), 2**70)),
    }
    g = generate_bipartite_er(**{k: v for k, v in source.items() if k != "model"})
    assume(3 <= g.m <= g.n_left * g.n_right // 2)
    return {
        "datasets": [{"id": "er", "source": source, "expected_nodes": g.n, "expected_edges": g.m}],
        "scorers": ["pa", "katz", "lgae", "gae"],
        "runs": draw(st.integers(1, 2)),
        "base_seed": draw(st.integers(-(2**70), 2**70)),
        "ratios": list(SMALL_RATIOS),
        "lgae_grid": [{"learning_rate": 0.01, "epochs": 2, "embed_dim": 2}],
        "gae_grid": [{"learning_rate": 0.01, "epochs": 2, "embed_dim": 2, "hidden_dim": 4}],
        "katz_grid": [0.001, 0.01],
    }


# What a valid value of each numeric leaf may be.
COUNT, SEED, TALLY, RATE, PROBABILITY = "count >= 1", "seed", "count >= 0", "rate", "probability"
UNKNOWN_KEY = "bogus_key"


def numeric_leaves(raw: dict) -> list:
    """(path, kind) of every numeric leaf of ``raw``."""
    source = ("datasets", 0, "source")
    leaves = [
        (("runs",), COUNT), (("base_seed",), SEED),
        (("datasets", 0, "expected_nodes"), TALLY), (("datasets", 0, "expected_edges"), TALLY),
        (source + ("n_left",), COUNT), (source + ("n_right",), COUNT),
        (source + ("p",), PROBABILITY), (source + ("seed",), SEED),
    ]
    leaves += [(("ratios", i), RATE) for i in range(3)]
    leaves += [(("katz_grid", i), RATE) for i in range(len(raw["katz_grid"]))]
    for grid in ("lgae_grid", "gae_grid"):
        leaves += [((grid, 0, key), RATE if key == "learning_rate" else COUNT) for key in raw[grid][0]]
    return leaves


def broken_values(value, kind: str) -> list:
    """Values that break a leaf of ``kind`` whose valid value is ``value``."""
    broken = [True, False, math.nan, math.inf, -math.inf, str(value)]
    if kind in (COUNT, SEED, TALLY):
        broken += [float(value), value + 0.5]
    if kind != SEED:  # any integer is a seed
        broken.append(-abs(value) - 1)
    return broken


class TestInputBoundary:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_a_broken_leaf_is_named_before_any_run(self, data):
        """Break one numeric leaf of a valid JSON config (or add an unknown
        key beside it): ``config_from_dict`` raises naming it, or, for a
        dataset-spec leaf, the dataset lands in ``Summary.missing`` naming it
        and the benchmark finishes.  Nothing is truncated or coerced."""
        raw = data.draw(valid_json_configs())
        path, kind = data.draw(st.sampled_from(numeric_leaves(raw)))
        parent = raw
        for step in path[:-1]:
            parent = parent[step]
        choices = broken_values(parent[path[-1]], kind) + ([UNKNOWN_KEY] if isinstance(parent, dict) else [])
        value = data.draw(st.sampled_from(choices))
        if value == UNKNOWN_KEY:
            parent[UNKNOWN_KEY], name = 1, UNKNOWN_KEY
        else:
            parent[path[-1]] = value
            name = path[-1] if isinstance(path[-1], str) else f"{path[-2]}[{path[-1]}]"
        raw = json.loads(json.dumps(raw))  # NaN and Infinity round-trip as in a config file
        in_spec = path[0] == "datasets" and (name != UNKNOWN_KEY or path[2] == "source")
        if not in_spec:
            with pytest.raises((TypeError, ValueError)) as exc:
                config_from_dict(raw)
            assert name in str(exc.value)
            if path[0].endswith("_grid") and len(path) == 3:
                assert f"{path[0]}[0]" in str(exc.value)
            return
        summary = run_benchmark(config_from_dict(raw))
        assert summary.rows == ()
        ((dataset_id, reason),) = summary.missing
        assert dataset_id == "er"
        assert (UNKNOWN_KEY if name == UNKNOWN_KEY else f"{name} must be") in reason

    @settings(max_examples=20)
    @given(raw=valid_json_configs())
    def test_valid_config_runs_with_seed_base_plus_r(self, raw):
        """Every run of a valid config finishes, and run r's reports record
        seed base_seed + r as given, whatever its sign or size."""
        with tempfile.TemporaryDirectory() as tmp:
            summary = run_benchmark(config_from_dict(dict(raw, out_dir=tmp)))
            reports = read_report(Path(tmp) / "results.csv")
        assert summary.missing == () and len(reports) == 4 * raw["runs"]
        assert all(report.seed == raw["base_seed"] + report.run for report in reports)
        assert sorted({report.run for report in reports}) == list(range(raw["runs"]))
