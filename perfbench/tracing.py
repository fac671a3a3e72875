"""Per-layer timing of bihop by wrapping the functions its layers call.

``Tracer.installed()`` replaces module attributes with timing wrappers for
the duration of a ``with`` block and restores them afterwards; bihop's own
code does not change.  The wrapped names are the ones ``bihop.harness``
looks up at call time, plus ``sample_negatives`` and ``build_graph`` inside
``bihop.splits``, ``build_graph`` inside ``bihop.data`` and
``adjacency_spectral_radius`` inside ``bihop.scoring``.

Each call becomes a span (name, start, end, parent span, run index) kept in
memory; ``dump`` writes them all at the end.  A span's self time is its
duration minus the durations of its child spans (calls are nested and
sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_SPAN = "harness.run_benchmark"

# (module, attribute, span name).  Span names are "<layer>.<key>".
WRAPPED = (
    ("bihop.harness", "load_dataset", "data.load_dataset"),
    ("bihop.harness", "split_edges", "splits.split_edges"),
    ("bihop.harness", "train_graph", "splits.train_graph"),
    ("bihop.harness", "adjacency", "graph.adjacency"),
    ("bihop.harness", "normalize", "graph.normalize"),
    ("bihop.harness", "training_labels", "autoencoder.training_labels"),
    ("bihop.harness", "train", "autoencoder.train"),
    ("bihop.harness", "two_hop_score", "scoring.two_hop"),
    ("bihop.harness", "recon_two_hop_score", "scoring.recon_two_hop"),
    ("bihop.harness", "decode_score", "scoring.decode"),
    ("bihop.harness", "katz_score", "scoring.katz"),
    ("bihop.harness", "heuristic_scores", "scoring.heuristics"),
    ("bihop.harness", "roc_auc", "metrics.roc_auc"),
    ("bihop.harness", "average_precision", "metrics.average_precision"),
    ("bihop.harness", "tune_scorers", "harness.tune_scorers"),
    ("bihop.harness", "grid_search", "harness.grid_search"),
    ("bihop.harness", "run_experiment", "harness.run_experiment"),
    ("bihop.splits", "sample_negatives", "splits.sample_negatives"),
    ("bihop.splits", "build_graph", "graph.build_graph"),
    ("bihop.data", "build_graph", "graph.build_graph"),
    # Part of the Katz layer's time; counted separately as radius_evals.
    ("bihop.scoring", "adjacency_spectral_radius", "scoring.katz.radius"),
)

SCORERS = ("two_hop", "recon_two_hop", "decode", "katz", "heuristics")

# Elementwise operations per logit in autoencoder._loss_and_gz: 9 for the
# loss (negate, two logaddexp, three products, 1 - y, and two sums counted
# as one add each) and 8 for the gradient residual (expit, sig - 1, four
# products, 1 - y, one add).
ELEMENTWISE_OPS = 17
# n x n float64 array passes per epoch: 15 temporaries written (the sums
# write none), theta and the dense label block written, and 23 operand reads
# (including G read by the G @ Z product).  Kept in step with _loss_and_gz
# by hand.
DENSE_PASSES = 15 + 2 + 23


def lgae_epoch_counts(n: int, d: int, nnz_adj: int, nnz_labels: int) -> tuple:
    """Computed (flop, bytes) of one LGAE loss-plus-gradient evaluation.

    theta = Z Z^T and G @ Z are 2 n^2 d flop each; the encoder Z = An W and
    its backward An dZ are 2 nnz d each; every logit passes through
    ELEMENTWISE_OPS operations.  Bytes count the n^2 float64 array passes,
    three reads of Z by the two products, and the CSR labels plus two
    passes over the CSR adjacency at 12 bytes per stored entry.
    """
    flop = 4 * n * n * d + ELEMENTWISE_OPS * n * n + 4 * nnz_adj * d
    nbytes = 8 * (DENSE_PASSES * n * n + 3 * n * d) + 12 * (nnz_labels + 2 * nnz_adj)
    return flop, nbytes


def _scoring(kind):
    """Describe a scorer call: pairs scored and the scorer kind it serves."""

    def describe(args):
        which = args.get("kind") if kind is None else kind
        return {"pairs": len(args["pairs"]), "kind": getattr(which, "value", which)}

    return describe


def _train(args):
    norm, config = args["norm_adj"], args["config"]
    return {
        "model": config.model_kind.value,
        "n": int(norm.n),
        "d": int(config.embed_dim),
        "epochs": int(config.epochs),
        "nnz_adj": int(norm.matrix.nnz),
        "nnz_labels": int(args["labels"].nnz),
    }


_DESCRIBE = {
    "autoencoder.train": _train,
    "harness.run_experiment": lambda args: {"run": int(args["run_index"])},
    "scoring.two_hop": _scoring("two_hop"),
    "scoring.recon_two_hop": _scoring("recon_two_hop"),
    "scoring.katz": _scoring("katz"),
    # decode_score serves lgae and gae, heuristic_scores five indices.
    "scoring.decode": _scoring(None),
    "scoring.heuristics": _scoring(None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        info = dict(info or {})
        parent = self._stack[-1] if self._stack else -1
        inherited = self.spans[parent].run if parent >= 0 else -1
        record = Span(name, time.perf_counter(), 0.0, parent, info.pop("run", inherited), info)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        describe = _DESCRIBE.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = describe(signature.bind(*args, **kwargs).arguments) if describe else None
            with self.span(name, info):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED while the block runs."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "run": s.run, **s.info,
                }) + "\n")

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit), per run_benchmark call.

        Times are self times averaged over the traced run_benchmark calls
        (root spans); counts are per call, so they repeat exactly.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        self_time = [s.duration - c for s, c in zip(spans, child_time)]
        calls = sum(1 for s in spans if s.name == ROOT_SPAN)
        if calls == 0:
            raise ValueError("no traced run_benchmark call")

        def indices(*names):
            return [i for i, s in enumerate(spans) if s.name in names]

        def self_s(*names):
            return sum(self_time[i] for i in indices(*names)) / calls

        def count(*names):
            return len(indices(*names)) / calls

        out = {}
        out["data.load_dataset.s"] = (self_s("data.load_dataset"), "s")
        out["graph.build_graph.s"] = (self_s("graph.build_graph"), "s")
        out["graph.build_graph.calls"] = (count("graph.build_graph"), "count")
        out["graph.adjacency.s"] = (self_s("graph.adjacency"), "s")
        out["graph.normalize.s"] = (self_s("graph.normalize"), "s")
        out["splits.split_edges.s"] = (self_s("splits.split_edges"), "s")
        out["splits.sample_negatives.s"] = (self_s("splits.sample_negatives"), "s")
        out["splits.sample_negatives.calls"] = (count("splits.sample_negatives"), "count")
        out["splits.train_graph.s"] = (self_s("splits.train_graph"), "s")

        out["autoencoder.train.s"] = (self_s("autoencoder.train"), "s")
        out["autoencoder.train.calls"] = (count("autoencoder.train"), "count")
        lgae = [i for i in indices("autoencoder.train") if spans[i].info["model"] == "lgae"]
        epochs = sum(spans[i].info["epochs"] for i in lgae)
        epoch_s = sum(self_time[i] for i in lgae) / epochs if epochs else 0.0
        flop, nbytes = 0, 0
        if lgae:
            info = spans[lgae[0]].info
            flop, nbytes = lgae_epoch_counts(info["n"], info["d"], info["nnz_adj"], info["nnz_labels"])
        out["autoencoder.epoch_s"] = (epoch_s, "s")
        out["autoencoder.epoch.flop"] = (flop, "flop")
        out["autoencoder.epoch.bytes"] = (nbytes, "B")
        out["autoencoder.epoch.gflops"] = (flop / epoch_s / 1e9 if epoch_s else 0.0, "GFLOP/s")
        out["autoencoder.training_labels.s"] = (self_s("autoencoder.training_labels"), "s")

        run_spans = indices("harness.run_experiment")
        for key in SCORERS:
            names = (f"scoring.{key}", "scoring.katz.radius") if key == "katz" else (f"scoring.{key}",)
            own = indices(f"scoring.{key}")
            seconds = sum(self_time[i] for i in indices(*names))
            in_runs = [i for i in own if self._has_ancestor(i, "harness.run_experiment")]
            kinds = {spans[i].info["kind"] for i in in_runs}
            per_run = len(in_runs) / (len(run_spans) * len(kinds)) if in_runs else 0.0
            pairs = sum(spans[i].info["pairs"] for i in own)
            out[f"scoring.{key}.s"] = (seconds / calls, "s")
            out[f"scoring.{key}.calls"] = (len(own) / calls, "count")
            # Calls per run and per scorer the key serves.
            out[f"scoring.{key}.calls_per_run"] = (per_run, "count")
            out[f"scoring.{key}.pairs_per_s"] = (pairs / seconds if seconds else 0.0, "pairs/s")
        tune = [
            i for i in indices("scoring.katz", "scoring.katz.radius")
            if self._has_ancestor(i, "harness.grid_search")
        ]
        out["scoring.katz.tune_s"] = (sum(self_time[i] for i in tune) / calls, "s")
        out["scoring.katz.radius_evals"] = (count("scoring.katz.radius"), "count")

        out["metrics.roc_auc.s"] = (self_s("metrics.roc_auc"), "s")
        out["metrics.average_precision.s"] = (self_s("metrics.average_precision"), "s")

        run_durations = [spans[i].duration for i in run_spans]
        out["harness.run_experiment.median_s"] = (statistics.median(run_durations), "s")
        out["harness.run_experiment.max_s"] = (max(run_durations), "s")
        tune_scorers = indices("harness.tune_scorers")
        out["harness.tune_scorers.s"] = (sum(spans[i].duration for i in tune_scorers) / calls, "s")
        out["harness.self_s"] = (self_s(ROOT_SPAN), "s")
        return out
