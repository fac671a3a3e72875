"""End-to-end tests of the command-line interface via main(argv)."""

import json

import pytest

from bihop.cli import main
from bihop.data import (
    generate_bipartite_er,
    generate_bipartite_sbm,
    load_edge_list,
    southern_women_graph,
)
from bihop.splits import load_split, split_edges

from conftest import assert_same_split, edge_list_ids, pairs_of, read_results


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_record(err: str) -> dict:
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestGenerate:
    def test_er_round_trip(self, tmp_path, capsys):
        out = tmp_path / "er.edges"
        code, stdout, stderr = run_cli(
            capsys, "generate", "--model", "er", "--out", str(out),
            "--n-left", "12", "--n-right", "9", "--p", "0.3", "--seed", "5",
        )
        assert code == 0
        assert stderr == ""
        expected = generate_bipartite_er(12, 9, 0.3, 5)
        assert f"wrote {expected.m} edges (12+9 nodes)" in stdout
        loaded = load_edge_list(out)
        assert loaded.n_left == 12
        assert loaded.n_right == 9
        assert loaded.m == expected.m
        left_ids, right_ids = edge_list_ids(out)
        by_id = {(int(left_ids[u][1:]), int(right_ids[v][1:])) for u, v in loaded.edges}
        assert by_id == set(pairs_of(expected.edges))

    def test_sbm_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sbm.edges"
        code, stdout, _ = run_cli(
            capsys, "generate", "--model", "sbm", "--out", str(out),
            "--left-sizes", "8,8", "--right-sizes", "8,8",
            "--p-in", "0.6", "--p-out", "0.05", "--seed", "2",
        )
        assert code == 0
        expected = generate_bipartite_sbm((8, 8), (8, 8), 0.6, 0.05, 2)
        assert f"wrote {expected.m} edges" in stdout
        assert load_edge_list(out).m == expected.m

    def test_negative_seed_accepted(self, tmp_path, capsys):
        """Seeds are taken modulo 2**64, as for splits and training."""
        out = tmp_path / "er.edges"
        code, stdout, stderr = run_cli(
            capsys, "generate", "--model", "er", "--out", str(out),
            "--n-left", "12", "--n-right", "9", "--p", "0.3", "--seed", "-1",
        )
        assert code == 0, stderr
        assert stderr == ""
        expected = generate_bipartite_er(12, 9, 0.3, 2**64 - 1)
        assert f"wrote {expected.m} edges (12+9 nodes)" in stdout

    def test_er_missing_flag_is_json_error(self, capsys, tmp_path):
        code, stdout, stderr = run_cli(
            capsys, "generate", "--model", "er", "--out",
            str(tmp_path / "x.edges"), "--n-left", "5",
        )
        assert code == 1
        assert stdout == ""
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "--n-right" in record["message"]

    def test_sbm_missing_flag_is_json_error(self, capsys, tmp_path):
        code, stdout, stderr = run_cli(
            capsys, "generate", "--model", "sbm", "--out", str(tmp_path / "x.edges"),
            "--left-sizes", "8,8", "--right-sizes", "8,8", "--p-in", "0.5",
        )
        assert code == 1
        assert stdout == ""
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "--p-out" in record["message"]

    def test_sbm_bad_sizes_is_json_error(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "generate", "--model", "sbm", "--out",
            str(tmp_path / "x.edges"), "--left-sizes", "8,oops",
            "--right-sizes", "8,8", "--p-in", "0.5", "--p-out", "0.1",
        )
        assert code == 1
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "--left-sizes" in record["message"]

    def test_isolated_node_is_json_error(self, capsys, tmp_path):
        """p = 0 leaves every node without an edge, which an edge list
        cannot hold: nothing is written, where a file that loads back as a
        smaller graph was written before."""
        out = tmp_path / "empty.edges"
        code, stdout, stderr = run_cli(
            capsys, "generate", "--model", "er", "--out", str(out),
            "--n-left", "4", "--n-right", "3", "--p", "0", "--seed", "1",
        )
        assert code == 1 and stdout == ""
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "left node 0 has no edge" in record["message"]
        assert not out.exists()

    def test_unknown_model_rejected_by_argparse(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--model", "triangle", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2


class TestBenchmark:
    def test_with_config_file(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        config = {
            "datasets": ["southern_women"],
            "scorers": ["pa", "cn"],
            "runs": 2,
            "out_dir": str(out_dir),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, stdout, stderr = run_cli(
            capsys, "benchmark", "--config", str(config_path),
        )
        assert code == 0
        assert stderr == ""
        assert "southern_women" in stdout
        assert "pref_attach" in stdout and "common_neighbors" in stdout
        records = read_results(out_dir / "results.csv")
        assert len(records) == 4
        assert (out_dir / "results_summary.csv").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "benchmark", "--dataset", "southern_women",
            "--method", "jc", "--runs", "1", "--seed", "3",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 0
        assert "jaccard" in stdout
        records = read_results(tmp_path / "r" / "results.csv")
        assert len(records) == 1
        assert records[0].seed == 3

    def test_no_datasets_is_json_error(self, capsys):
        code, stdout, stderr = run_cli(capsys, "benchmark", "--runs", "1")
        assert code == 1
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "--dataset" in record["message"]

    def test_unknown_method_is_json_error(self, capsys):
        code, _, stderr = run_cli(
            capsys, "benchmark", "--dataset", "southern_women",
            "--method", "psychic",
        )
        assert code == 1
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert record["message"].startswith("scorers[0]: unknown scorer 'psychic'")

    def test_repeated_dataset_is_json_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "benchmark", "--dataset", "southern_women", "--dataset", "southern_women",
            "--method", "pa", "--runs", "1",
        )
        assert code == 1
        assert stdout == ""
        record = stderr_record(stderr)
        assert record["error"] == "ValueError"
        assert "datasets[1]: id 'southern_women' is listed twice" in record["message"]

    @pytest.mark.parametrize("text, kind", [("[]", "list"), ('"abc"', "str"), ("5", "int"), ("null", "NoneType")])
    def test_config_that_is_not_an_object_is_json_error(self, tmp_path, capsys, text, kind):
        config_path = tmp_path / "config.json"
        config_path.write_text(text, encoding="utf-8")
        code, _, stderr = run_cli(capsys, "benchmark", "--config", str(config_path))
        assert code == 1
        record = stderr_record(stderr)
        assert record["error"] == "TypeError"
        assert record["message"].startswith(f"a config must be a JSON object, got {kind}")

    def test_missing_dataset_listed_not_fatal(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "benchmark", "--dataset", "no_such_thing",
            "--method", "pa", "--runs", "1",
        )
        assert code == 0
        assert "no_such_thing" in stdout
        assert "MISSING" in stdout

    def test_data_dir_resolves_edge_files(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "generate", "--model", "er", "--out",
            str(tmp_path / "toy.edges"), "--n-left", "20", "--n-right", "20",
            "--p", "0.25", "--seed", "1",
        )
        assert code == 0
        code, stdout, stderr = run_cli(
            capsys, "benchmark", "--dataset", "toy", "--method", "pa",
            "--runs", "1", "--data-dir", str(tmp_path),
        )
        assert code == 0, stderr
        assert "toy" in stdout
        assert "MISSING" not in stdout

    @pytest.mark.parametrize(
        "katz_grid, error",
        [([0.5], "KatzDivergenceError"), ([0.5, 0.9], "ValueError")],
    )
    def test_error_record_carries_notes(self, tmp_path, capsys, katz_grid, error):
        # One point fails inside the run, two fail run 0's grid search.
        config = {
            "datasets": [{"id": "er", "source": {
                "model": "er", "n_left": 20, "n_right": 20, "p": 0.25, "seed": 1,
            }}],
            "katz_grid": katz_grid,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "benchmark", "--config", str(config_path),
            "--method", "katz", "--runs", "1",
        )
        assert code == 1
        record = stderr_record(stderr)
        assert record["error"] == error
        assert "spectral_radius" in record["message"]
        assert record["notes"] == ["while running 'er' run 0 (seed 0)"]


class TestSplit:
    def test_split_file_matches_library_split(self, tmp_path, capsys):
        out = tmp_path / "sw.split"
        code, stdout, _ = run_cli(
            capsys, "split", "--dataset", "southern_women",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert "train=76" in stdout and "val=4" in stdout and "test=9" in stdout
        loaded = load_split(out, southern_women_graph())
        expected = split_edges(southern_women_graph(), (0.85, 0.05, 0.10), 7)
        assert_same_split(loaded, expected)

    def test_config_dataset_source_respected(self, tmp_path, capsys):
        """``split --dataset ID`` used to replace the config's datasets with
        one id per character of ID, so a source given in the config was
        never found; ``diagnose`` shared the fault."""
        source = {"model": "er", "n_left": 40, "n_right": 30, "p": 0.2, "seed": 3}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"datasets": [{"id": "er_gen", "source": source}]}))
        out = tmp_path / "er.split"
        for argv in (["split", "--seed", "0", "--out", str(out)], ["diagnose"]):
            code, _, stderr = run_cli(capsys, *argv, "--dataset", "er_gen", "--config", str(config_path))
            assert code == 0, stderr
        g = generate_bipartite_er(40, 30, 0.2, 3)
        assert_same_split(load_split(out, g), split_edges(g, (0.85, 0.05, 0.10), 0))

    def test_config_ratios_respected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ratios": [0.5, 0.25, 0.25]}))
        out = tmp_path / "sw.split"
        code, _, _ = run_cli(
            capsys, "split", "--dataset", "southern_women", "--seed", "0",
            "--out", str(out), "--config", str(config_path),
        )
        assert code == 0
        loaded = load_split(out, southern_women_graph())
        assert len(loaded.test_pos) == 22
        assert len(loaded.val_pos) == 22
        assert len(loaded.train_edges) == 45

    def test_unknown_dataset_is_json_error(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "split", "--dataset", "ghost", "--seed", "0",
            "--out", str(tmp_path / "x.split"),
        )
        assert code == 1
        assert stderr_record(stderr)["error"] == "FileNotFoundError"


class TestDiagnose:
    def test_southern_women_report(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "lgae_grid": [{"learning_rate": 0.01, "epochs": 30, "embed_dim": 8}],
        }))
        code, stdout, stderr = run_cli(
            capsys, "diagnose", "--dataset", "southern_women",
            "--config", str(config_path), "--seed", "1",
        )
        assert code == 0, stderr
        assert "diagnostics for southern_women (seed 1)" in stdout
        assert "norm_adj" in stdout
        assert "best-F1 threshold" in stdout

    def test_unknown_dataset_is_json_error(self, capsys):
        code, _, stderr = run_cli(capsys, "diagnose", "--dataset", "ghost")
        assert code == 1
        assert stderr_record(stderr)["error"] == "FileNotFoundError"


class TestParser:
    def test_no_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
