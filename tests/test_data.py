"""Dataset IO, generators, the bundled registry, and report files.

The built-in women-by-events network is cross-checked against the networkx
copy of the same classic dataset, name by name.  Generator moment checks use
a four-sigma band so they are deterministic for the pinned seeds yet still
meaningful.
"""

import logging
import re
import tracemalloc

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
    load_edge_list,
    southern_women_graph,
    write_edge_list,
    write_report,
)
from bihop.graph import GraphInputError, build_graph
from bihop.metrics import MetricReport, summarize
from bihop.scoring import ScorerKind

from conftest import edge_list_ids, pairs_of, random_bipartite, read_results


class TestEdgeListParsing:
    def test_two_lines_two_left_one_right(self, tmp_path, caplog):
        path = tmp_path / "g.edges"
        path.write_text("u1 v1\nu2 v1\n")
        with caplog.at_level(logging.WARNING, logger="bihop.data"):
            g = load_edge_list(path)
        assert (g.n_left, g.n_right, g.m) == (2, 1, 2)
        assert pairs_of(g.edges) == ((0, 0), (1, 0))
        assert caplog.messages == []

    def test_duplicate_lines_collapse(self, tmp_path, caplog):
        """Repeated lines are dropped, and their count is logged as a warning."""
        path = tmp_path / "g.edges"
        path.write_text("a x\na x\nb x\na x\n")
        with caplog.at_level(logging.WARNING, logger="bihop.data"):
            g = load_edge_list(path)
        assert g.m == 2
        assert caplog.messages == [f"{path}: 2 duplicate edge lines ignored"]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\na x  # trailing comment\nb y\n")
        g = load_edge_list(path)
        assert g.m == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\nbad\n")
        with pytest.raises(GraphInputError, match="line 2"):
            load_edge_list(path)

    def test_three_tokens_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x 1.0\n")
        with pytest.raises(GraphInputError, match="expected 2 tokens"):
            load_edge_list(path)

    def test_id_cannot_appear_in_both_columns(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\nx b\n")
        with pytest.raises(GraphInputError, match="already used"):
            load_edge_list(path)

    def test_right_id_already_a_left_id_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a x\nb a\n")
        with pytest.raises(GraphInputError, match="line 2: id 'a' already used as a left node"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nothing\n")
        with pytest.raises(GraphInputError, match="no edges"):
            load_edge_list(path)

    def test_write_then_load_round_trip(self, tmp_path):
        """A graph with an isolated node is refused (two of these five); every
        other one reads back as the same edges through the id mapping."""
        rng = np.random.default_rng(80)
        refused = 0
        for _ in range(5):
            g = random_bipartite(rng, max_side=7)
            path = tmp_path / "round.edges"
            if np.any(g.degrees() == 0):
                with pytest.raises(ValueError, match="has no edge"):
                    write_edge_list(g, path)
                refused += 1
                continue
            write_edge_list(g, path)
            loaded = load_edge_list(path)
            assert (loaded.n_left, loaded.n_right) == (g.n_left, g.n_right)
            # ids are written in edge order, so indices may permute; compare
            # through the ids the file lists
            left_ids, right_ids = edge_list_ids(path)
            back = {(int(left_ids[u][1:]), int(right_ids[v][1:])) for u, v in loaded.edges}
            assert back == set(pairs_of(g.edges))
        assert refused == 2

    @pytest.mark.parametrize(
        "n_left, n_right, edges, match",
        [
            (3, 3, [(0, 0), (1, 1)], "left node 2 has no edge"),
            (2, 3, [(0, 0), (1, 2)], "right node 1 has no edge"),
            (2, 2, [], "left node 0 has no edge"),
        ],
    )
    def test_write_rejects_isolated_node(self, tmp_path, n_left, n_right, edges, match):
        """An edge list cannot hold a node with no edge: ``build_graph(3, 3,
        [(0, 0), (1, 1)])`` (n = 6) used to be written and read back with
        n = 4.  The first isolated node is named before the file is opened."""
        path = tmp_path / "iso.edges"
        with pytest.raises(ValueError, match=match):
            write_edge_list(build_graph(n_left, n_right, edges), path)
        assert not path.exists()

    def test_write_lines(self, tmp_path):
        """One ``l<i> r<j>`` line per edge, in edge order.  The loader
        numbers ids in order of first appearance, so this file reads back
        with its right side permuted."""
        g = build_graph(2, 2, [(1, 0), (0, 1)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert path.read_text() == "l0 r1\nl1 r0\n"
        assert edge_list_ids(path)[1] == ("r1", "r0")
        assert pairs_of(load_edge_list(path).edges) == ((0, 0), (1, 1))

    def test_write_named_ids_round_trip(self, tmp_path):
        """Any ids without whitespace or ``#`` load; the file's ids give
        back the edges as written, and no line is a duplicate."""
        g = southern_women_graph()
        names = tuple(name.replace(" ", "_") for name in SOUTHERN_WOMEN_NAMES)
        path = tmp_path / "sw.edges"
        path.write_text("".join(f"{names[u]} {SOUTHERN_WOMEN_EVENTS[v]}\n" for u, v in g.edges))
        loaded = load_edge_list(path)
        left_ids, right_ids = edge_list_ids(path)
        back = {
            (names.index(left_ids[u]), SOUTHERN_WOMEN_EVENTS.index(right_ids[v]))
            for u, v in loaded.edges
        }
        assert back == set(pairs_of(g.edges))
        assert loaded.m == len(g.edges)


class TestGenerators:
    def test_er_extremes(self):
        empty = generate_bipartite_er(5, 7, 0.0, seed=1)
        assert empty.m == 0
        full = generate_bipartite_er(5, 7, 1.0, seed=1)
        assert full.m == 35

    def test_sbm_block_drawn_in_bounded_chunks(self):
        """A 4096 x 2048 block is drawn 2**22 cells at a time, as ER draws:
        it peaks under 48 MiB (one chunk's floats are 32 MiB), where a
        whole-block draw peaked at 72 MiB, and a one-block SBM makes ER's
        draws in ER's order, so both give the same edges."""
        tracemalloc.start()
        try:
            g = generate_bipartite_sbm([4096], [2048], 0.001, 0.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert np.array_equal(g.edges, generate_bipartite_er(4096, 2048, 0.001, seed=1).edges)

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

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ((10, 10, 0.3, 1.7), TypeError, "seed must be an integer"),
            ((10, 10, True, 0), TypeError, "p must be a real number"),
            ((10, 10, "0.3", 0), TypeError, "p must be a real number"),
            ((10, 10, float("nan"), 0), ValueError, r"p must be in \[0, 1\]"),
            ((10.0, 10, 0.3, 0), TypeError, "n_left must be an integer"),
            ((10, -2, 0.3, 0), ValueError, "n_right must be >= 1"),
        ],
        ids=["float_seed", "bool_p", "string_p", "nan_p", "float_size", "negative_size"],
    )
    def test_er_rejects_what_it_used_to_truncate(self, args, error, match):
        """Seed 1.7 used to draw seed 1's graph and ``p=True`` the complete
        graph."""
        with pytest.raises(error, match=match):
            generate_bipartite_er(*args)

    @pytest.mark.parametrize(
        "args, error, match",
        [
            (([5.9, 5], [5, 5], 0.5, 0.1, 0), TypeError, r"left_sizes\[0\] must be an integer"),
            (([5, 5], [5, True], 0.5, 0.1, 0), TypeError, r"right_sizes\[1\] must be an integer"),
            (([5, 5], [5, 5], 0.5, False, 0), TypeError, "p_out must be a real number"),
            (([5, 5], [5, 5], 0.5, 0.1, 2.0), TypeError, "seed must be an integer"),
        ],
        ids=["float_size", "bool_size", "bool_p_out", "float_seed"],
    )
    def test_sbm_rejects_what_it_used_to_truncate(self, args, error, match):
        """``left_sizes=[5.9, 5]`` used to build the [5, 5] graph."""
        with pytest.raises(error, match=match):
            generate_bipartite_sbm(*args)

    def test_numpy_scalars_accepted(self):
        """numpy integers and floats are numbers like any other."""
        got = generate_bipartite_er(np.int64(12), np.uint16(9), np.float64(0.25), np.int32(3))
        assert np.array_equal(got.edges, generate_bipartite_er(12, 9, 0.25, 3).edges)
        got = generate_bipartite_sbm(np.array([4, 5]), [6, 3], 0.6, np.float32(0.125), seed=1)
        assert np.array_equal(got.edges, generate_bipartite_sbm([4, 5], [6, 3], 0.6, 0.125, seed=1).edges)

    def test_sbm_biclique_extreme(self):
        """p_in=1, p_out=0 yields two exact bicliques."""
        g = generate_bipartite_sbm([2, 3], [4, 2], 1.0, 0.0, seed=3)
        assert g.m == 2 * 4 + 3 * 2
        biadjacency = g.adj[: g.n_left, g.n_left :].toarray()
        assert biadjacency[:2, :4].all() and biadjacency[2:, 4:].all()
        assert not biadjacency[0, 4] and not biadjacency[2, 0]

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
        with pytest.raises(ValueError, match=r"left_sizes\[1\] must be >= 1"):
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

    def test_validate_passes_builtin(self, tmp_path):
        """A file-backed spec with a registry id loads when its shape matches."""
        path = tmp_path / "sw.edges"
        write_edge_list(southern_women_graph(), path)
        g = load_dataset(DatasetSpec(id="southern_women", source=str(path)))
        assert (g.n, g.m) == (32, 89)

    def test_validate_rejects_mismatch(self, tmp_path):
        path = tmp_path / "small.edges"
        write_edge_list(build_graph(1, 1, [(0, 0)]), path)
        with pytest.raises(GraphInputError, match="registry expects 32 nodes, got 2"):
            load_dataset(DatasetSpec(id="southern_women", source=str(path)))

    def test_unknown_id_is_no_op(self, tmp_path):
        path = tmp_path / "one.edges"
        write_edge_list(build_graph(1, 1, [(0, 0)]), path)
        g = load_dataset(DatasetSpec(id="not_a_dataset", source=str(path)))
        assert (g.n, g.m) == (2, 1)


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

    @pytest.mark.parametrize("source", [5, ["a"], b"mini.edges", 2.5], ids=["int", "list", "bytes", "float"])
    def test_source_of_another_type_rejected(self, tmp_path, source):
        """``source=5`` used to look for a file named ``5``, and ``["a"]``
        for one named ``['a']``."""
        (tmp_path / str(source)).write_text("a x\n")
        with pytest.raises(TypeError, match="source must be a path or a generator mapping"):
            load_dataset(DatasetSpec(id="mini", source=source), data_dir=tmp_path)

    def test_path_like_source_and_generator_mapping(self, tmp_path):
        from types import MappingProxyType

        path = tmp_path / "mini.edges"
        path.write_text("a x\nb x\n")
        assert load_dataset(DatasetSpec(id="mini", source=path)).m == 2
        params = {"model": "er", "n_left": 10, "n_right": 10, "p": 0.3, "seed": 2}
        g = load_dataset(DatasetSpec(id="toy_er", source=MappingProxyType(params)))
        assert np.array_equal(g.edges, load_dataset(DatasetSpec(id="toy_er", source=params)).edges)

    def test_unknown_generator_model(self):
        with pytest.raises(ValueError, match="unknown generator"):
            load_dataset(DatasetSpec(id="x", source={"model": "tree"}))

    @pytest.mark.parametrize(
        "source, key",
        [
            ({"model": "er", "n_left": 20, "n_right": 20, "p": 0.25, "p_typo": 3}, "p_typo"),
            ({"model": "sbm", "left_sizes": [5, 5], "right_sizes": [5, 5], "p_in": 0.5,
              "p_out": 0.1, "n_left": 10}, "n_left"),
        ],
        ids=["er", "sbm"],
    )
    def test_generator_rejects_unknown_keys(self, source, key):
        """A key the model does not take raises, naming it, instead of being
        ignored."""
        with pytest.raises(ValueError, match=f"unknown.*{key}"):
            load_dataset(DatasetSpec(id="x", source=source))

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"n_left": 20.9}, "n_left"),
            ({"n_right": 20.0}, "n_right"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"model": "sbm", "left_sizes": [5, 5.5], "right_sizes": [5, 5], "p_in": 0.5,
              "p_out": 0.1}, r"left_sizes\[1\]"),
            ({"model": "sbm", "left_sizes": [5, 5], "right_sizes": [False, 5], "p_in": 0.5,
              "p_out": 0.1}, r"right_sizes\[0\]"),
        ],
        ids=["n_left", "n_right", "seed_float", "seed_bool", "left_sizes", "right_sizes"],
    )
    def test_generator_rejects_non_integer_sizes_and_seeds(self, change, key):
        """20.9 left nodes used to load as 20, and seed 1.7 as seed 1."""
        source = {"model": "er", "n_left": 20, "n_right": 20, "p": 0.25, "seed": 1}
        if change.get("model") == "sbm":
            source = {"seed": 1}
        source.update(change)
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            load_dataset(DatasetSpec(id="x", source=source))

    @pytest.mark.parametrize("key", ["expected_nodes", "expected_edges"])
    @pytest.mark.parametrize("value", ["32", True, 32.0, -1])
    def test_expected_counts_must_be_non_negative_integers(self, key, value):
        """``expected_nodes="32"`` used to fail as "expected 32 nodes, got
        32", ``True`` as "expected True nodes", and 32.0 passed."""
        with pytest.raises((TypeError, ValueError), match=f"{key} must be"):
            load_dataset(DatasetSpec(id="southern_women", **{key: value}))

    def test_generator_seed_defaults_to_zero(self):
        source = {"model": "sbm", "left_sizes": [4, 5], "right_sizes": [6, 3], "p_in": 0.6, "p_out": 0.1}
        got = load_dataset(DatasetSpec(id="x", source=source))
        assert np.array_equal(got.edges, generate_bipartite_sbm([4, 5], [6, 3], 0.6, 0.1, seed=0).edges)

    def test_generator_numpy_integers_accepted(self):
        source = {"model": "er", "n_left": np.int64(10), "n_right": 10, "p": 0.3, "seed": np.uint8(2)}
        g = load_dataset(DatasetSpec(id="x", source=source))
        assert np.array_equal(g.edges, generate_bipartite_er(10, 10, 0.3, seed=2).edges)


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
        back = read_results(path)
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
