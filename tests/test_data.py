"""Dataset IO, generators, the bundled registry, and report files.

The built-in women-by-events network is cross-checked against the networkx
copy of the same classic dataset, name by name.  Generator moment checks use
a four-sigma band so they are deterministic for the pinned seeds yet still
meaningful.
"""

import re

import numpy as np
import pytest

from bihop.data import (
    SOUTHERN_WOMEN_EVENTS,
    SOUTHERN_WOMEN_NAMES,
    DatasetSpec,
    dataset_registry,
    generate_bipartite_er,
    generate_bipartite_sbm,
    load_dataset,
    load_edge_list_detailed,
    read_report,
    southern_women_graph,
    validate_against_registry,
    write_edge_list,
    write_report,
)
from bihop.graph import GraphInputError, build_graph
from bihop.metrics import MetricReport, summarize
from bihop.scoring import ScorerKind

from conftest import pairs_of, random_bipartite


class TestEdgeListParsing:
    def test_two_lines_two_left_one_right(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("u1 v1\nu2 v1\n")
        res = load_edge_list_detailed(path)
        assert res.graph.n_left == 2
        assert res.graph.n_right == 1
        assert res.graph.m == 2
        assert res.left_ids == ("u1", "u2")
        assert res.right_ids == ("v1",)
        assert res.duplicate_count == 0

    def test_duplicate_lines_collapse(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\na x\nb x\na x\n")
        res = load_edge_list_detailed(path)
        assert res.graph.m == 2
        assert res.duplicate_count == 2

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\na x  # trailing comment\nb y\n")
        g = load_edge_list_detailed(path).graph
        assert g.m == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\nbad\n")
        with pytest.raises(GraphInputError, match="line 2"):
            load_edge_list_detailed(path)

    def test_three_tokens_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x 1.0\n")
        with pytest.raises(GraphInputError, match="expected 2 tokens"):
            load_edge_list_detailed(path)

    def test_id_cannot_appear_in_both_columns(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\nx b\n")
        with pytest.raises(GraphInputError, match="already used"):
            load_edge_list_detailed(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nothing\n")
        with pytest.raises(GraphInputError, match="no edges"):
            load_edge_list_detailed(path)

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(80)
        for _ in range(5):
            g = random_bipartite(rng, max_side=7)
            path = tmp_path / "round.edges"
            write_edge_list(g, path)
            res = load_edge_list_detailed(path)
            # ids are written in edge order, so indices may permute; compare
            # through the id mapping
            back = {
                (int(res.left_ids[u][1:]), int(res.right_ids[v][1:]))
                for u, v in res.graph.edges
            }
            assert back == set(pairs_of(g.edges))

    def test_write_custom_ids(self, tmp_path):
        g = build_graph(2, 1, [(0, 0), (1, 0)])
        path = tmp_path / "named.edges"
        write_edge_list(g, path, left_ids=("ann", "bob"), right_ids=("club",))
        assert path.read_text() == "ann club\nbob club\n"

    def test_write_rejects_wrong_id_count(self, tmp_path):
        g = build_graph(2, 1, [(0, 0)])
        with pytest.raises(ValueError):
            write_edge_list(g, tmp_path / "x.edges", left_ids=("only",))


class TestGenerators:
    def test_er_extremes(self):
        empty = generate_bipartite_er(5, 7, 0.0, seed=1)
        assert empty.m == 0
        full = generate_bipartite_er(5, 7, 1.0, seed=1)
        assert full.m == 35

    def test_er_deterministic(self):
        a = generate_bipartite_er(30, 30, 0.1, seed=9)
        b = generate_bipartite_er(30, 30, 0.1, seed=9)
        assert np.array_equal(a.edges, b.edges)
        c = generate_bipartite_er(30, 30, 0.1, seed=10)
        assert not np.array_equal(a.edges, c.edges)

    def test_er_edge_count_within_four_sigma(self):
        n_left, n_right, p = 100, 100, 0.05
        g = generate_bipartite_er(n_left, n_right, p, seed=7)
        mean = n_left * n_right * p
        sigma = np.sqrt(n_left * n_right * p * (1 - p))
        assert abs(g.m - mean) < 4 * sigma

    def test_er_validation(self):
        with pytest.raises(ValueError):
            generate_bipartite_er(5, 5, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_bipartite_er(0, 5, 0.5, seed=0)

    def test_sbm_biclique_extreme(self):
        """p_in=1, p_out=0 yields two exact bicliques."""
        g = generate_bipartite_sbm([2, 3], [4, 2], 1.0, 0.0, seed=3)
        assert g.m == 2 * 4 + 3 * 2
        for u in range(2):
            for v in range(4):
                assert g.has_edge(u, v)
        for u in range(2, 5):
            for v in range(4, 6):
                assert g.has_edge(u, v)
        assert not g.has_edge(0, 4)
        assert not g.has_edge(2, 0)

    def test_sbm_single_block_is_er_like(self):
        g = generate_bipartite_sbm([50], [50], 0.1, 0.0, seed=4)
        mean = 2500 * 0.1
        sigma = np.sqrt(2500 * 0.1 * 0.9)
        assert abs(g.m - mean) < 4 * sigma

    def test_sbm_mixed_edge_count_within_four_sigma(self):
        sizes = [25] * 4
        g = generate_bipartite_sbm(sizes, sizes, 0.2, 0.01, seed=11)
        cells_in = 4 * 25 * 25
        cells_out = 12 * 25 * 25
        mean = cells_in * 0.2 + cells_out * 0.01
        var = cells_in * 0.2 * 0.8 + cells_out * 0.01 * 0.99
        assert abs(g.m - mean) < 4 * np.sqrt(var)

    def test_sbm_deterministic(self):
        a = generate_bipartite_sbm([10, 10], [10, 10], 0.3, 0.02, seed=5)
        b = generate_bipartite_sbm([10, 10], [10, 10], 0.3, 0.02, seed=5)
        assert np.array_equal(a.edges, b.edges)

    def test_seeds_taken_modulo_2_64(self):
        """Generators accept every seed a split accepts: -1 names the same
        stream as 2**64 - 1 instead of raising OverflowError."""
        assert np.array_equal(
            generate_bipartite_er(9, 11, 0.3, seed=-1).edges,
            generate_bipartite_er(9, 11, 0.3, seed=2**64 - 1).edges,
        )
        assert np.array_equal(
            generate_bipartite_sbm([4, 5], [6, 3], 0.6, 0.1, seed=-1).edges,
            generate_bipartite_sbm([4, 5], [6, 3], 0.6, 0.1, seed=2**64 - 1).edges,
        )

    def test_sbm_validation(self):
        with pytest.raises(ValueError, match="exceed"):
            generate_bipartite_sbm([5], [5], 0.1, 0.1, seed=0)
        with pytest.raises(ValueError, match="per block"):
            generate_bipartite_sbm([5, 5], [5], 0.2, 0.1, seed=0)
        with pytest.raises(ValueError, match="positive"):
            generate_bipartite_sbm([5, 0], [5, 5], 0.2, 0.1, seed=0)
        with pytest.raises(ValueError, match="p_in"):
            generate_bipartite_sbm([5], [5], 1.2, 0.1, seed=0)


class TestSouthernWomen:
    def test_shape(self):
        g = southern_women_graph()
        assert g.n_left == 18
        assert g.n_right == 14
        assert g.n == 32
        assert g.m == 89

    def test_name_tables(self):
        assert len(SOUTHERN_WOMEN_NAMES) == 18
        assert len(SOUTHERN_WOMEN_EVENTS) == 14
        assert SOUTHERN_WOMEN_NAMES[0] == "Evelyn Jefferson"
        assert SOUTHERN_WOMEN_EVENTS[0] == "E1"

    def test_matches_networkx_copy(self):
        nx = pytest.importorskip("networkx")
        ref = nx.davis_southern_women_graph()
        g = southern_women_graph()
        ours = {
            (SOUTHERN_WOMEN_NAMES[u], SOUTHERN_WOMEN_EVENTS[v]) for u, v in g.edges
        }
        theirs = set()
        for a, b in ref.edges():
            woman, event = (a, b) if a in set(SOUTHERN_WOMEN_NAMES) else (b, a)
            theirs.add((woman, event))
        assert ours == theirs


class TestRegistry:
    def test_known_ids_present(self):
        reg = dataset_registry()
        expected = {
            "gpcr": (318, 635),
            "enzyme": (1109, 2926),
            "ion_channel": (414, 1476),
            "southern_women": (32, 89),
            "drug": (350, 454),
            "ml100k": (2625, 100000),
        }
        for key, (nodes, edges) in expected.items():
            assert reg[key]["nodes"] == nodes
            assert reg[key]["edges"] == edges
        assert len(reg) == 12

    def test_every_entry_has_provenance_fields(self):
        for entry in dataset_registry().values():
            assert set(entry) >= {"nodes", "edges", "source", "notes"}

    def test_validate_passes_builtin(self):
        validate_against_registry(southern_women_graph(), "southern_women")

    def test_validate_rejects_mismatch(self):
        g = build_graph(2, 2, [(0, 0)])
        with pytest.raises(GraphInputError, match="registry expects"):
            validate_against_registry(g, "southern_women")

    def test_unknown_id_is_no_op(self):
        validate_against_registry(build_graph(1, 1, [(0, 0)]), "not_a_dataset")


class TestLoadDataset:
    def test_builtin(self):
        g = load_dataset(DatasetSpec(id="southern_women"))
        assert (g.n, g.m) == (32, 89)

    def test_generator_spec(self):
        spec = DatasetSpec(
            id="toy_er",
            source={"model": "er", "n_left": 10, "n_right": 10, "p": 0.3, "seed": 2},
        )
        g = load_dataset(spec)
        assert g.n == 20
        assert np.array_equal(g.edges, generate_bipartite_er(10, 10, 0.3, seed=2).edges)

    def test_from_file_with_data_dir(self, tmp_path):
        path = tmp_path / "mini.edges"
        path.write_text("a x\nb x\nb y\n")
        g = load_dataset(DatasetSpec(id="mini", source="mini.edges"), data_dir=tmp_path)
        assert g.m == 3

    def test_sourceless_id_resolves_in_data_dir(self, tmp_path):
        (tmp_path / "mini.edges").write_text("a x\n")
        g = load_dataset(DatasetSpec(id="mini"), data_dir=tmp_path)
        assert g.m == 1

    def test_missing_file(self, tmp_path):
        want = f"dataset 'absent' has no source and no file at {tmp_path / 'absent.edges'}"
        with pytest.raises(FileNotFoundError, match=re.escape(want)):
            load_dataset(DatasetSpec(id="absent"), data_dir=tmp_path)

    def test_expected_shape_enforced(self, tmp_path):
        path = tmp_path / "mini.edges"
        path.write_text("a x\n")
        spec = DatasetSpec(id="mini", source=str(path), expected_nodes=5)
        with pytest.raises(GraphInputError, match="expected 5 nodes"):
            load_dataset(spec)
        spec = DatasetSpec(id="mini", source=str(path), expected_edges=9)
        with pytest.raises(GraphInputError, match="expected 9 edges"):
            load_dataset(spec)

    def test_unknown_generator_model(self):
        with pytest.raises(ValueError, match="unknown generator"):
            load_dataset(DatasetSpec(id="x", source={"model": "tree"}))


def make_report(dataset, scorer, run, auc, ap):
    return MetricReport(
        dataset=dataset, scorer=scorer, run=run, seed=run, auc=auc, ap=ap
    )


class TestReports:
    def test_round_trip_and_exact_floats(self, tmp_path):
        records = [
            make_report("a", ScorerKind.TWO_HOP, 0, 0.9123456789012345, 0.85),
            make_report("a", ScorerKind.TWO_HOP, 1, 0.8, 0.75),
            make_report("b", ScorerKind.KATZ, 0, 0.5, 0.5),
        ]
        path = tmp_path / "results.csv"
        write_report(records, path)
        back = read_report(path)
        assert back == records

    def test_headers(self, tmp_path):
        path = tmp_path / "results.csv"
        _, summary = write_report([], path)
        assert path.read_text().splitlines() == ["dataset,method,run,seed,auc,ap"]
        assert summary.read_text().splitlines() == [
            "dataset,method,auc_mean,auc_std,ap_mean,ap_std"
        ]

    def test_default_summary_path(self, tmp_path):
        path = tmp_path / "results.csv"
        _, summary = write_report([], path)
        assert summary == tmp_path / "results_summary.csv"

    def test_single_record_summary(self, tmp_path):
        records = [make_report("a", ScorerKind.LGAE, 0, 0.75, 0.5)]
        path = tmp_path / "one.csv"
        _, summary = write_report(records, path)
        lines = summary.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "a,lgae,0.75,0.0,0.5,0.0"

    def test_summary_statistics_match_population_formulas(self, tmp_path):
        rng = np.random.default_rng(81)
        aucs = rng.uniform(0.5, 1.0, size=50)
        aps = rng.uniform(0.4, 1.0, size=50)
        records = [
            make_report("d", ScorerKind.TWO_HOP, k, float(aucs[k]), float(aps[k]))
            for k in range(50)
        ]
        path = tmp_path / "many.csv"
        _, summary = write_report(records, path)
        row = summary.read_text().splitlines()[1].split(",")
        mean = sum(aucs) / 50.0
        var = sum((x - mean) ** 2 for x in aucs) / 50.0
        assert float(row[2]) == pytest.approx(mean, abs=1e-12)
        assert float(row[3]) == pytest.approx(np.sqrt(var), abs=1e-12)

    def test_summary_is_the_shared_aggregation(self, tmp_path):
        """The summary CSV reduces sorted values, as Summary does: for AUCs
        0.3, 0.2, 0.1 in run order both give 0.20000000000000004, where an
        unsorted sum gives 0.19999999999999998."""
        records = [
            make_report("d", ScorerKind.LGAE, k, auc, 0.5)
            for k, auc in enumerate([0.3, 0.2, 0.1])
        ]
        _, summary = write_report(records, tmp_path / "r.csv")
        (row,) = summarize(records)
        auc_mean = summary.read_text().splitlines()[1].split(",")[2]
        assert auc_mean == repr(row.auc_mean) == "0.20000000000000004"
