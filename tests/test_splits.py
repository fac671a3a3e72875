"""Edge splitting and negative sampling.

The split protocol under test: |test| = round_half_up(0.10 m),
|val| = round_half_up(0.05 m), train gets the rest; negative pairs are
heterogeneous non-edges, equal in count to the positives, with val and test
negatives disjoint.  Everything must be reproducible from (graph, ratios,
seed) alone.
"""

import dataclasses
import re

import numpy as np
import pytest

from bihop.data import generate_bipartite_er
from bihop.graph import build_graph
from bihop.splits import (
    ENUMERATION_DENSITY,
    EdgeSplit,
    _round_half_up,
    child_keys,
    load_split,
    philox,
    sample_negatives,
    save_split,
    split_edges,
    train_graph,
)

from conftest import SPLIT_FIELDS, assert_same_split, pairs_of, random_bipartite

DEFAULT = (0.85, 0.05, 0.10)


def medium_graph(seed=0):
    return generate_bipartite_er(30, 40, 0.12, seed=seed)


def dense_graph():
    """30 x 30 with 860 edges: 4.4% free cells, so negatives are enumerated,
    and 40 of them serve the 17 + 17 held-out pairs of ``DENSE_RATIOS``."""
    cells = [(u, v) for u in range(30) for v in range(30)]
    keep = np.random.default_rng(0).permutation(len(cells))[:860]
    return build_graph(30, 30, [cells[i] for i in keep])


DENSE_RATIOS = (0.96, 0.02, 0.02)


def sample_negatives_copy(g, count, exclude, seed):
    """The sampler as it was when it copied the edge set into one forbidden
    set per call: the oracle for the draws and accept/reject order."""
    total_cells = g.n_left * g.n_right
    forbidden = set(pairs_of(g.edges))
    forbidden.update((int(u), int(v)) for u, v in exclude)
    if count > total_cells - len(forbidden):
        raise ValueError("too few free cells")
    rng = philox(seed)
    if (total_cells - g.m) / total_cells < ENUMERATION_DENSITY:
        free = [(u, v) for u in range(g.n_left) for v in range(g.n_right) if (u, v) not in forbidden]
        order = rng.permutation(len(free))
        return tuple(free[i] for i in order[:count])
    picked, picked_set = [], set()
    while len(picked) < count:
        batch = max(64, 2 * (count - len(picked)))
        us = rng.integers(0, g.n_left, size=batch)
        vs = rng.integers(0, g.n_right, size=batch)
        for pair in zip(us.tolist(), vs.tolist()):
            if len(picked) < count and pair not in forbidden and pair not in picked_set:
                picked.append(pair)
                picked_set.add(pair)
    return tuple(picked)


def split_edges_tuples(g, ratios, seed) -> tuple:
    """The five pair parts of split_edges as it was when pairs were tuples:
    one edge tuple at a time, a sorted training tuple, and the tuple
    sampler above."""
    m = g.m
    n_test = _round_half_up(ratios[2] * m)
    n_val = _round_half_up(ratios[1] * m)
    shuffle_key, val_key, test_key = child_keys(seed, 3)
    order = philox(shuffle_key).permutation(m)
    edges = pairs_of(g.edges)
    test_pos = tuple(edges[i] for i in order[:n_test])
    val_pos = tuple(edges[i] for i in order[n_test : n_test + n_val])
    train_edges = tuple(sorted(edges[i] for i in order[n_test + n_val :]))
    val_neg = sample_negatives_copy(g, n_val, (), val_key)
    test_neg = sample_negatives_copy(g, n_test, val_neg, test_key)
    return train_edges, val_pos, test_pos, val_neg, test_neg


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32, 2**63, 2**64 - 1])
    def test_philox_is_the_uint64_keyed_stream(self, seed):
        """philox(s) draws what Philox(key=np.uint64(s)) draws, the stream
        the graph generators used before they shared this helper."""
        want = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        got = philox(seed)
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.integers(0, 1000, 8), want.integers(0, 1000, 8))

    def test_seeds_taken_modulo_2_64(self):
        assert np.array_equal(philox(-1).random(4), philox(2**64 - 1).random(4))
        assert np.array_equal(philox(2**64 + 5).random(4), philox(5).random(4))
        assert child_keys(-1, 3) == child_keys(2**64 - 1, 3)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", np.float64(2.0)])
    def test_non_integer_seed_rejected(self, seed):
        """``philox(1.5)`` and ``child_keys(1.5, 2)`` used to run as seed 1."""
        with pytest.raises(TypeError, match="seed must be an integer"):
            philox(seed)
        with pytest.raises(TypeError, match="seed must be an integer"):
            child_keys(seed, 2)

    def test_child_key_count_checked(self):
        with pytest.raises(TypeError, match="n must be an integer"):
            child_keys(0, 2.0)
        with pytest.raises(ValueError, match="n must be >= 0"):
            child_keys(0, -1)
        assert child_keys(np.int64(3), np.uint8(2)) == child_keys(3, 2)


class TestRounding:
    def test_round_half_up(self):
        assert _round_half_up(31.75) == 32
        assert _round_half_up(63.5) == 64
        assert _round_half_up(63.49) == 63
        assert _round_half_up(0.5) == 1
        assert _round_half_up(0.0) == 0

    def test_sizes_for_635_edges(self):
        """m=635 under (0.85, 0.05, 0.10) gives 539/32/64."""
        g = generate_bipartite_er(40, 40, 0.5, seed=3)
        # force exactly 635 edges by trimming a denser sample
        edges = list(g.edges)[:635]
        g = build_graph(40, 40, edges)
        assert g.m == 635
        split = split_edges(g, DEFAULT, seed=0)
        assert len(split.test_pos) == 64
        assert len(split.val_pos) == 32
        assert len(split.train_edges) == 539

    def test_sizes_for_89_edges(self):
        g = generate_bipartite_er(18, 14, 0.5, seed=5)
        edges = list(g.edges)[:89]
        g = build_graph(18, 14, edges)
        split = split_edges(g, DEFAULT, seed=1)
        # 0.10*89 = 8.9 -> 9, 0.05*89 = 4.45 -> 4
        assert len(split.test_pos) == 9
        assert len(split.val_pos) == 4
        assert len(split.train_edges) == 76


class TestSplitEdges:
    def test_partition_of_edge_set(self):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=7)
        train = set(pairs_of(split.train_edges))
        val = set(pairs_of(split.val_pos))
        test = set(pairs_of(split.test_pos))
        assert train | val | test == set(pairs_of(g.edges))
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(train) + len(val) + len(test) == g.m

    def test_negative_counts_match_positive_counts(self):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=7)
        assert len(split.val_neg) == len(split.val_pos)
        assert len(split.test_neg) == len(split.test_pos)

    def test_negatives_are_nonedges_and_disjoint(self):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=7)
        for u, v in np.concatenate([split.val_neg, split.test_neg]):
            assert not g.adj[u, g.n_left + v]
            assert 0 <= u < g.n_left and 0 <= v < g.n_right
        assert not (set(pairs_of(split.val_neg)) & set(pairs_of(split.test_neg)))
        assert len(set(pairs_of(split.val_neg))) == len(split.val_neg)
        assert len(set(pairs_of(split.test_neg))) == len(split.test_neg)

    def test_deterministic_in_seed(self):
        g = medium_graph()
        assert_same_split(split_edges(g, DEFAULT, seed=42), split_edges(g, DEFAULT, seed=42))

    def test_different_seeds_differ(self):
        g = medium_graph()
        a = split_edges(g, DEFAULT, seed=1)
        b = split_edges(g, DEFAULT, seed=2)
        assert not np.array_equal(a.test_pos, b.test_pos) or not np.array_equal(a.val_pos, b.val_pos)

    def test_ratio_validation(self):
        """A NaN train ratio used to pass both checks (NaN compares false)
        and split as 0.85 would, since the train ratio is never read; a NaN
        val or test ratio failed as a bare float-to-int conversion."""
        g = medium_graph()
        for ratios in (
            (0.9, 0.05, 0.10), (1.0, 0.0, 0.0), (0.9, -0.1, 0.2),
            (np.nan, 0.05, 0.10), (0.85, np.nan, 0.10), (0.85, 0.05, np.nan), (np.inf, 0.05, 0.10),
            (0.85, 0.05), (0.5, 0.25, 0.15, 0.10),
        ):
            with pytest.raises(ValueError, match=r"ratios(\[\d\])? must be"):
                split_edges(g, ratios, seed=0)

    def test_too_few_edges(self):
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            split_edges(g, (1 / 3, 1 / 3, 1 / 3), seed=0)

    def test_tiny_test_part_rejected(self):
        # m=3 under the default ratios rounds the test part to 0
        g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
        with pytest.raises(ValueError, match="at least one"):
            split_edges(g, DEFAULT, seed=0)

    def test_insufficient_nonedges_rejected(self):
        # complete 3x3 minus one edge: a single non-edge cannot serve
        # disjoint val and test negatives
        pairs = [(u, v) for u in range(3) for v in range(3)][:-1]
        g = build_graph(3, 3, pairs)
        with pytest.raises(ValueError, match="negatives"):
            split_edges(g, (1 / 2, 1 / 4, 1 / 4), seed=0)

    @pytest.mark.parametrize("seed", [1.7, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        """``split_edges(g, r, 1.7)`` and ``split_edges(g, r, True)`` used to
        split as seed 1 and record seed 1."""
        with pytest.raises(TypeError, match="seed must be an integer"):
            split_edges(medium_graph(), DEFAULT, seed)

    def test_numpy_integer_seed_recorded_as_int(self):
        split = split_edges(medium_graph(), DEFAULT, np.int64(5))
        assert type(split.seed) is int
        assert_same_split(split, split_edges(medium_graph(), DEFAULT, 5))

    @pytest.mark.parametrize(
        "ratios, error, match",
        [
            (("0.85", "0.05", "0.10"), TypeError, r"ratios\[0\] must be a real number"),
            ((0.85, True, 0.10), TypeError, r"ratios\[1\] must be a real number"),
            ((0.85, 0.05, -0.1), ValueError, r"ratios\[2\] must be positive and finite"),
        ],
        ids=["strings", "bool", "negative"],
    )
    def test_ratio_entries_checked_one_by_one(self, ratios, error, match):
        """String ratios used to be parsed as floats; each entry is named."""
        with pytest.raises(error, match=match):
            split_edges(medium_graph(), ratios, seed=0)

    def test_seed_recorded(self):
        g = medium_graph()
        assert split_edges(g, DEFAULT, seed=17).seed == 17

    @pytest.mark.parametrize("branch", ["rejection", "enumeration"])
    def test_parts_are_read_only_arrays_equal_to_the_tuple_split(self, branch):
        """Each of the five parts is a read-only (k, 2) int64 array equal,
        row for row, to the split built from tuples, on both sides of
        ENUMERATION_DENSITY."""
        g, ratios = (medium_graph(), DEFAULT) if branch == "rejection" else (dense_graph(), DENSE_RATIOS)
        free = (g.n_left * g.n_right - g.m) / (g.n_left * g.n_right)
        assert (free < ENUMERATION_DENSITY) == (branch == "enumeration")
        for seed in range(16):
            split = split_edges(g, ratios, seed)
            for name, want in zip(SPLIT_FIELDS, split_edges_tuples(g, ratios, seed)):
                got = getattr(split, name)
                assert got.dtype == np.int64 and got.shape == (len(want), 2)
                assert not got.flags.writeable
                assert np.array_equal(got, want), (seed, name)


class TestSampleNegatives:
    def test_basic_contract(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_bipartite(rng, max_side=10)
            free = g.n_left * g.n_right - g.m
            if free < 3:
                continue
            got = sample_negatives(g, 3, exclude=(), seed=5)
            assert len(got) == 3
            assert len(set(pairs_of(got))) == 3
            for u, v in got:
                assert not g.adj[u, g.n_left + v]

    def test_exclusion_respected(self):
        g = build_graph(4, 4, [(0, 0)])
        exclude = [(1, 1), (2, 2)]
        got = sample_negatives(g, 13, exclude=exclude, seed=9)
        assert len(got) == 13
        assert not (set(pairs_of(got)) & set(exclude))

    def test_exhausts_dense_graph_by_enumeration(self):
        """25 cells, 23 edges: non-edge density 8% < ... make it truly dense."""
        pairs = [(u, v) for u in range(5) for v in range(5)]
        g = build_graph(5, 5, pairs[:-1])  # single free cell, density 4%
        got = sample_negatives(g, 1, exclude=(), seed=0)
        assert np.array_equal(got, [pairs[-1]])

    def test_count_larger_than_free_cells(self):
        pairs = [(u, v) for u in range(3) for v in range(3)]
        g = build_graph(3, 3, pairs[:-2])
        with pytest.raises(ValueError, match="only 2"):
            sample_negatives(g, 3, exclude=(), seed=0)

    @pytest.mark.parametrize("bad", [(5, 5), (0, 2), (2, 0), (-1, 0), (0, 1.5)])
    def test_exclude_outside_the_partitions_rejected(self, bad):
        """(0, 2) would key as the cell (1, 0), so it is rejected by name
        instead of being counted as an excluded non-edge."""
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        assert len(sample_negatives(g, 2, exclude=[], seed=0)) == 2
        with pytest.raises(ValueError, match=rf"exclude pair {re.escape(str(bad))} .*at position 1"):
            sample_negatives(g, 2, exclude=[(0, 1), bad], seed=0)

    def test_zero_count(self):
        g = build_graph(2, 2, [(0, 0)])
        got = sample_negatives(g, 0, exclude=(), seed=0)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_negative_count_rejected(self):
        g = build_graph(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            sample_negatives(g, -1, exclude=(), seed=0)

    @pytest.mark.parametrize("key, value", [("seed", 2.9), ("seed", "2"), ("count", True), ("count", 1.0)])
    def test_non_integer_count_or_seed_rejected(self, key, value):
        """``seed=2.9`` used to draw what seed 2 draws, and ``count=True``
        drew one pair."""
        g = build_graph(3, 3, [(0, 0)])
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            sample_negatives(g, exclude=(), **{"count": 2, "seed": 0, key: value})

    def test_deterministic(self):
        g = medium_graph()
        a = sample_negatives(g, 20, exclude=(), seed=3)
        b = sample_negatives(g, 20, exclude=(), seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("branch", ["enumeration", "rejection"])
    def test_exclude_with_an_edge_and_a_repeat_matches_the_copying_sampler(self, branch):
        """An excluded edge does not shrink the free cells twice and a
        repeated pair counts once: ``count == available`` succeeds,
        ``available + 1`` raises, and every draw equals the sampler that
        copied the edge set."""
        if branch == "enumeration":
            cells = [(u, v) for u in range(10) for v in range(10)]
            g = build_graph(10, 10, cells[:96])  # 4 free cells: density 4%
        else:
            g = medium_graph(seed=4)
        edges = set(pairs_of(g.edges))
        free = sorted(set(np.ndindex(g.n_left, g.n_right)) - edges)
        exclude = [free[1], pairs_of(g.edges)[0], free[1], free[-1]]
        available = g.n_left * g.n_right - g.m - 2
        for seed in range(16):
            for count in (1, available // 2, available):
                got = sample_negatives(g, count, exclude=exclude, seed=seed)
                want = sample_negatives_copy(g, count, exclude, seed)
                assert np.array_equal(got, want)
                assert len(set(pairs_of(got))) == count and not set(pairs_of(got)) & (edges | set(exclude))
        with pytest.raises(ValueError, match=f"only {available} non-edge"):
            sample_negatives(g, available + 1, exclude=exclude, seed=0)


class TestTrainGraph:
    def test_node_set_preserved_edges_restricted(self):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=2)
        gt = train_graph(g, split)
        assert gt.n_left == g.n_left and gt.n_right == g.n_right
        assert set(pairs_of(gt.edges)) == set(pairs_of(split.train_edges))
        for pair in np.concatenate([split.val_pos, split.test_pos]):
            assert not gt.adj[pair[0], gt.n_left + pair[1]]


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        path = tmp_path / "split.txt"
        save_split(split, path)
        assert_same_split(load_split(path, g), split)

    def test_rejects_unknown_section(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#seed\n1\n#bogus\n0 0\n")
        with pytest.raises(ValueError, match="bogus"):
            load_split(path, medium_graph())

    def test_rejects_malformed_pair(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#seed\n1\n#train\n0 0 0\n")
        with pytest.raises(ValueError, match="expected"):
            load_split(path, medium_graph())

    @pytest.mark.parametrize(
        "text, match",
        [
            ("#seed\n1\n#train\n0 0\n1.5 2\n", r"bad.txt:5: '1.5' is not an integer"),
            ("#seed\n0.5\n#train\n0 0\n", r"bad.txt:2: '0.5' is not an integer"),
        ],
        ids=["pair", "seed"],
    )
    def test_non_integer_token_names_file_and_line(self, tmp_path, text, match):
        """A token that is not an integer used to raise int()'s bare
        "invalid literal" message, naming neither the file nor the line."""
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_split(path, medium_graph())

    def test_blank_lines_skipped(self, tmp_path):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        path = tmp_path / "split.txt"
        save_split(split, path)
        path.write_text("\n" + path.read_text().replace("\n#", "\n\n  \n#"))
        assert_same_split(load_split(path, g), split)

    def test_rejects_data_before_any_section(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n#seed\n1\n")
        with pytest.raises(ValueError, match="bad.txt:1: data before any section header"):
            load_split(path, medium_graph())

    def test_rejects_index_past_int64(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"#seed\n1\n#train\n0 {2**63}\n")
        with pytest.raises(ValueError, match="bad.txt: a pair index does not fit in int64"):
            load_split(path, medium_graph())

    def test_rejects_missing_seed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#train\n0 0\n")
        with pytest.raises(ValueError, match="seed"):
            load_split(path, medium_graph())

    @staticmethod
    def _saved(tmp_path, split, **changes):
        """Path of ``split`` saved with ``changes`` applied."""
        path = tmp_path / "split.txt"
        save_split(dataclasses.replace(split, **changes), path)
        return path

    def test_rejects_positives_that_do_not_partition_the_edges(self, tmp_path):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        dropped = split.test_pos[-1]
        path = self._saved(tmp_path, split, test_pos=split.test_pos[:-1])
        with pytest.raises(ValueError, match=rf"edge \({dropped[0]}, {dropped[1]}\) .* no positive"):
            load_split(path, g)
        twice = split.train_edges[0]
        path = self._saved(tmp_path, split, val_pos=np.vstack([split.val_pos, twice]))
        with pytest.raises(ValueError, match=rf"#val_pos pair \({twice[0]}, {twice[1]}\) is listed twice"):
            load_split(path, g)
        non_edge = split.val_neg[0]
        path = self._saved(tmp_path, split, test_pos=np.vstack([split.test_pos, non_edge]))
        with pytest.raises(ValueError, match=r"#test_pos pair .* not an edge"):
            load_split(path, g)

    def test_rejects_negative_that_is_edge_or_out_of_range(self, tmp_path):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        edge = split.train_edges[0]
        path = self._saved(tmp_path, split, val_neg=np.vstack([edge, split.val_neg[1:]]))
        with pytest.raises(ValueError, match=rf"#val_neg pair \({edge[0]}, {edge[1]}\) is an edge"):
            load_split(path, g)
        outside = (0, g.n_right)
        path = self._saved(tmp_path, split, test_neg=np.vstack([split.test_neg, outside]))
        with pytest.raises(ValueError, match=rf"#test_neg pair \(0, {g.n_right}\) is out of range"):
            load_split(path, g)

    def test_rejects_positive_whose_cell_key_aliases_an_edge(self, tmp_path):
        """(u - 1, v + n_right) keys as the edge (u, v); the file must not
        pass for the split that lists (u, v) there."""
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        k = int(np.argmax(split.train_edges[:, 0] > 0))
        u, v = split.train_edges[k]
        aliased = split.train_edges.copy()
        aliased[k] = (u - 1, v + g.n_right)
        path = self._saved(tmp_path, split, train_edges=aliased)
        with pytest.raises(ValueError, match=rf"#train pair \({u - 1}, {v + g.n_right}\) is not an edge"):
            load_split(path, g)

    @pytest.mark.parametrize("name", ["val_neg", "test_neg"])
    def test_rejects_negative_listed_twice(self, tmp_path, name):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=7)
        negatives = getattr(split, name)
        twice = negatives[0]
        path = self._saved(tmp_path, split, **{name: np.vstack([negatives, twice])})
        with pytest.raises(ValueError, match=rf"#{name} pair \({twice[0]}, {twice[1]}\) is listed twice"):
            load_split(path, g)

    def test_rejects_shared_validation_and_test_negative(self, tmp_path):
        g = medium_graph()
        split = split_edges(g, DEFAULT, seed=11)
        shared = split.val_neg[0]
        path = self._saved(tmp_path, split, test_neg=np.vstack([split.test_neg, shared]))
        with pytest.raises(ValueError, match=rf"#test_neg pair \({shared[0]}, {shared[1]}\) is also in #val_neg"):
            load_split(path, g)
