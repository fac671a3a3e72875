"""Graph construction and symmetric normalization.

Checks, among other things:
  * duplicate edges collapse to one, out-of-range or non-integer pairs raise
    with position
  * edges, edge_keys, the adjacency's rows and degrees match a pure-Python
    oracle
  * adjacency(g) is the graph's own read-only matrix
  * adjacency is symmetric 0/1 with zero diagonal and block structure
  * normalization matches the dense formula D~^{-1/2}(A+I)D~^{-1/2}
  * the 2-node single-edge graph normalizes to all entries exactly 0.5
"""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihop.autoencoder import EmbeddingModel, ModelKind
from bihop.graph import (
    GraphInputError,
    adjacency,
    build_graph,
    normalize,
)
from bihop.scoring import ScorerKind, decode_score, heuristic_index, heuristic_scores
from bihop.splits import sample_negatives

from conftest import random_bipartite


def dense_normalized(a: np.ndarray) -> np.ndarray:
    at = a + np.eye(a.shape[0])
    d = at.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * at * inv[None, :]


class TestBuildGraph:
    def test_counts_and_properties(self):
        g = build_graph(2, 3, [(0, 0), (1, 2), (0, 1)])
        assert g.n_left == 2 and g.n_right == 3
        assert g.n == 5
        assert g.m == 3
        assert np.array_equal(g.edges, [(0, 0), (0, 1), (1, 2)])

    def test_duplicates_dropped(self):
        g = build_graph(2, 2, [(0, 0), (0, 0), (1, 1), (0, 0)])
        assert g.m == 2

    def test_duplicate_count_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bihop.graph"):
            build_graph(2, 3, [(1, 2), (0, 0), (1, 2), (0, 1), (1, 2)])
            build_graph(2, 3, [])
        assert caplog.messages == ["dropped 2 duplicate edge pair(s)"]

    def test_out_of_range_raises_with_position(self):
        with pytest.raises(GraphInputError) as exc:
            build_graph(2, 2, [(0, 0), (2, 1)])
        assert exc.value.pair == (2, 1)
        assert exc.value.position == 1

    def test_out_of_range_array_row_raises_with_position(self):
        with pytest.raises(GraphInputError) as exc:
            build_graph(2, 2, np.array([[0, 0], [1, 1], [0, 2]]))
        assert exc.value.pair == (0, 2)
        assert exc.value.position == 2

    def test_negative_index_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(2, 2, [(-1, 0)])

    def test_negative_partition_size_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(-1, 2, [])

    @pytest.mark.parametrize("sizes", [(2.0, 2), (2, True), ("2", 2)])
    def test_non_integer_partition_size_rejected(self, sizes):
        with pytest.raises(TypeError, match="must be an integer"):
            build_graph(*sizes, [(0, 0)])

    def test_degrees(self, toy_graph):
        assert list(toy_graph.degrees()) == [2, 1, 1, 1, 2, 1]

    def test_empty_graph(self):
        g = build_graph(3, 2, [])
        assert g.m == 0
        assert g.degrees().sum() == 0

    @pytest.mark.parametrize("bad", [(0.5, 1), ("1", 0), (0, 1, 2), 3, None])
    def test_non_integer_pair_raises_with_position(self, bad):
        with pytest.raises(GraphInputError) as exc:
            build_graph(2, 2, [(0, 0), bad, (1, 1)])
        assert exc.value.pair == bad
        assert exc.value.position == 1

    def test_float_array_rejected(self):
        """Integral floats are rejected too: no silent truncation."""
        with pytest.raises(GraphInputError) as exc:
            build_graph(2, 2, np.array([[0.0, 1.0]]))
        assert exc.value.position == 0

    def test_bool_pairs_rejected(self):
        """A bool is not an integer, as in ``check_int``: ``[(True, True)]``
        used to build edge (1, 1), and a bool among integers turned into one
        too.  The error names the entry and its position, whether the pairs
        come as a list, an array, scorer pairs or ``exclude`` pairs."""
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        cases = (
            (lambda p: build_graph(2, 2, p), [(True, True)], 0),
            (lambda p: build_graph(2, 2, p), [(0, 0), (1, True)], 1),
            (lambda p: build_graph(2, 2, p), np.array([[False, True]]), 0),
            (lambda p: heuristic_scores(heuristic_index(g), ScorerKind.COMMON_NEIGHBORS, p), [(0, 2), (True, 3)], 1),
            (lambda p: decode_score(EmbeddingModel(np.ones((4, 1)), ModelKind.LGAE, (), np.zeros(1)), p),
             np.array([[False, True]]), 0),
            (lambda p: sample_negatives(g, 1, exclude=p, seed=0), [(False, True)], 0),
        )
        for call, pairs, pos in cases:
            with pytest.raises(GraphInputError, match=f"at position {pos} is not a pair of integers") as exc:
                call(pairs)
            assert exc.value.position == pos
            assert exc.value.pair is pairs[pos] or np.array_equal(exc.value.pair, pairs[pos])



def oracle_graph(n_left, n_right, pairs):
    """Sorted edges and per-node sorted global neighbour lists, by loops."""
    edges = tuple(sorted(set(pairs)))
    nbrs = [[] for _ in range(n_left + n_right)]
    for u, v in edges:
        nbrs[u].append(n_left + v)
        nbrs[n_left + v].append(u)
    return edges, [sorted(nb) for nb in nbrs]


@st.composite
def shuffled_pairs_with_duplicates(draw):
    n_left = draw(st.integers(1, 8))
    n_right = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)), max_size=30))
    pairs = pairs + pairs[: draw(st.integers(0, len(pairs)))]
    return n_left, n_right, draw(st.permutations(pairs)), draw(st.booleans())


class TestSingleStore:
    @given(shuffled_pairs_with_duplicates())
    def test_views_match_oracle(self, case):
        n_left, n_right, pairs, as_array = case
        g = build_graph(n_left, n_right, np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs)
        edges, nbrs = oracle_graph(n_left, n_right, pairs)
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        assert np.array_equal(g.edges, np.reshape(edges, (-1, 2)))
        assert g.edge_keys.tolist() == [u * n_right + v for u, v in edges]
        for u in range(n_left):
            for v in range(n_right):
                assert (g.adj[u, n_left + v] == 1) == ((u, v) in edges)
        assert g.m == len(edges)
        assert [g.adj[x].indices.tolist() for x in range(g.n)] == nbrs
        assert g.degrees().tolist() == [len(nb) for nb in nbrs]
        a = adjacency(g)
        assert a.has_canonical_format
        dense = a.toarray()
        assert np.array_equal(dense, dense.T)
        assert not np.diag(dense).any()
        want = np.zeros((g.n, g.n))
        for u, v in edges:
            want[u, n_left + v] = want[n_left + v, u] = 1.0
        assert np.array_equal(dense, want)

    def test_adjacency_is_the_stored_matrix(self, toy_graph):
        assert adjacency(toy_graph) is adjacency(toy_graph) is toy_graph.adj

    @pytest.mark.parametrize("field", ["data", "indices", "indptr"])
    def test_adjacency_is_read_only(self, toy_graph, field):
        with pytest.raises(ValueError):
            getattr(adjacency(toy_graph), field)[0] = 7


class TestAdjacency:
    def test_symmetric_binary_zero_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_bipartite(rng)
            a = adjacency(g).toarray()
            assert np.array_equal(a, a.T)
            assert set(np.unique(a)) <= {0.0, 1.0}
            assert np.all(np.diag(a) == 0)

    def test_block_structure(self):
        """Within-partition blocks are identically zero."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_bipartite(rng)
            a = adjacency(g).toarray()
            assert not a[: g.n_left, : g.n_left].any()
            assert not a[g.n_left :, g.n_left :].any()

    def test_row_sums_are_degrees(self):
        rng = np.random.default_rng(9)
        g = random_bipartite(rng)
        a = adjacency(g)
        assert np.array_equal(np.asarray(a.sum(axis=1)).ravel(), g.degrees())

    def test_entries_match_edge_set(self, toy_graph):
        a = adjacency(toy_graph).toarray()
        for u in range(toy_graph.n_left):
            for v in range(toy_graph.n_right):
                expected = 1.0 if (u, v) in {(0, 0), (0, 1), (1, 1), (2, 2)} else 0.0
                assert a[u, toy_graph.n_left + v] == expected

    def test_empty_graph_adjacency(self):
        a = adjacency(build_graph(2, 2, []))
        assert a.nnz == 0
        assert a.shape == (4, 4)


class TestNormalize:
    def test_single_edge_all_entries_half(self, single_edge_graph):
        """n=2, one edge: every node has degree 2 after the self-loop,
        so every entry of the normalized matrix is 1/sqrt(2*2) = 0.5."""
        norm = normalize(single_edge_graph.adj)
        assert np.array_equal(norm.matrix.toarray(), np.full((2, 2), 0.5))

    def test_path_graph_entries(self, path_graph):
        # center node has tilde degree 3, each leaf 2
        mat = normalize(path_graph.adj).matrix.toarray()
        assert mat[0, 1] == pytest.approx(1.0 / np.sqrt(6), abs=1e-15)
        assert mat[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert mat[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert mat[1, 2] == 0.0

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            g = random_bipartite(rng)
            got = normalize(g.adj).matrix.toarray()
            want = dense_normalized(adjacency(g).toarray())
            assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_isolated_node_diagonal_is_one(self):
        g = build_graph(2, 1, [(0, 0)])  # left node 1 is isolated
        mat = normalize(g.adj).matrix.toarray()
        assert mat[1, 1] == 1.0
        assert mat[1, 0] == 0.0

    def test_symmetric_and_positive_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_bipartite(rng)
            mat = normalize(g.adj).matrix.toarray()
            assert np.allclose(mat, mat.T, rtol=0, atol=0)
            assert np.all(np.diag(mat) > 0)
            assert mat.max() <= 1.0 + 1e-15

    def test_spectral_radius_is_one(self):
        """The renormalized operator always has largest eigenvalue 1."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_bipartite(rng)
            mat = normalize(g.adj).matrix.toarray()
            top = np.linalg.eigvalsh(mat).max()
            assert top == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_square(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            normalize(sp.csr_matrix(np.ones((2, 3))))

