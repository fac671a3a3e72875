import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from bihop import scoring
from bihop.graph import BipartiteGraph, build_graph
from bihop.metrics import MetricReport

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def single_edge_graph() -> BipartiteGraph:
    """One left node, one right node, one edge."""
    return build_graph(1, 1, [(0, 0)])


@pytest.fixture
def path_graph() -> BipartiteGraph:
    """Left node 0 joined to right nodes 0 and 1 (a 3-node path)."""
    return build_graph(1, 2, [(0, 0), (0, 1)])


@pytest.fixture
def toy_graph() -> BipartiteGraph:
    """3x3 with 4 edges; small enough for hand calculation."""
    return build_graph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])


def pairs_of(arr) -> tuple:
    """The (u, v) int tuples of a (k, 2) pair array, for set and tuple oracles."""
    return tuple(map(tuple, np.asarray(arr).tolist()))


def read_results(path) -> list:
    """The MetricReport rows of a per-run ``results.csv`` that
    ``data.write_report`` wrote; floats parse back from their repr exactly."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            MetricReport(
                dataset=row["dataset"],
                scorer=scoring.ScorerKind.parse(row["method"]),
                run=int(row["run"]),
                seed=int(row["seed"]),
                auc=float(row["auc"]),
                ap=float(row["ap"]),
            )
            for row in csv.DictReader(fh)
        ]


SPLIT_FIELDS = ("train_edges", "val_pos", "test_pos", "val_neg", "test_neg")


def assert_same_split(a, b):
    """Two EdgeSplits hold equal pair arrays and the same seed."""
    for name in SPLIT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.seed == b.seed


def random_bipartite(rng: np.random.Generator, max_side: int = 8, min_edges: int = 1) -> BipartiteGraph:
    """A random graph for property tests (every node may have degree 0)."""
    n_left = int(rng.integers(1, max_side + 1))
    n_right = int(rng.integers(1, max_side + 1))
    density = rng.uniform(0.15, 0.7)
    pairs = [
        (u, v)
        for u in range(n_left)
        for v in range(n_right)
        if rng.random() < density
    ]
    while len(pairs) < min_edges:
        pairs.append((int(rng.integers(n_left)), int(rng.integers(n_right))))
    return build_graph(n_left, n_right, pairs)


# DENSE_THRESHOLD values that make katz_score take one form whatever the
# graph size.
KATZ_THRESHOLDS = {"closed": 1 << 62, "series": -1}


def katz_form(form):
    """Patch scoring.DENSE_THRESHOLD so katz_score takes ``form``; a context
    manager, so it also holds inside one hypothesis example."""
    return mock.patch.object(scoring, "DENSE_THRESHOLD", KATZ_THRESHOLDS[form])
