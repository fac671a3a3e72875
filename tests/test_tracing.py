"""The benchmark's tracer still binds to the harness.

``perfbench/tracing.py`` wraps the names ``bihop.harness`` calls; a rename or
a moved call site breaks the traced benchmark without breaking any library
test.  This runs one small traced ``run_benchmark`` call in process, with
every scorer, and checks the per-layer metrics come out.
"""

from pathlib import Path

import pytest

from bihop.data import DatasetSpec
from bihop.harness import BenchmarkConfig, run_benchmark
from bihop.scoring import ScorerKind

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_traced_run_reports_every_layer(tracing):
    config = BenchmarkConfig(
        datasets=(
            DatasetSpec(id="er", source={"model": "er", "n_left": 25, "n_right": 30, "p": 0.15, "seed": 2}),
        ),
        scorers=tuple(ScorerKind),
        runs=1,
        lgae_grid=({"learning_rate": 0.01, "epochs": 2, "embed_dim": 8},),
        gae_grid=({"learning_rate": 0.01, "epochs": 2, "embed_dim": 8, "hidden_dim": 16},),
    )
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
        summary = run_benchmark(config)
    assert len(summary.rows) == len(ScorerKind)
    metrics = tracer.layer_metrics()
    for key in tracing.SCORERS:
        assert metrics[f"scoring.{key}.calls_per_run"] == (1.0, "count"), key
    assert metrics["scoring.katz.radius_evals"][0] > 0
    # One split (two negative samples) and one training graph per run, plus
    # the dataset's own graph: tuning reuses run 0's split.
    assert metrics["splits.sample_negatives.calls"] == (2.0, "count")
    assert metrics["graph.build_graph.calls"] == (2.0, "count")
