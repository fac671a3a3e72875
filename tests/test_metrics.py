"""Ranking metrics against brute-force oracles.

The oracles here recompute each metric from its definition: AUC as the
fraction of correctly ordered (positive, negative) pairs with ties counted
half, AP as a walk down the ranked list with tied negatives placed first.
The production implementations must agree exactly, not approximately.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bihop.metrics import (
    ConfusionMatrix,
    average_precision,
    best_f1_threshold,
    format_mass_table,
    roc_auc,
    score_mass_report,
)


def auc_oracle(pos, neg):
    """Quadratic pair count, ties worth half."""
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_oracle(pos, neg):
    """Walk the ranking top-down; among tied scores negatives come first."""
    ranked = sorted(
        [(s, 1) for s in pos] + [(s, 0) for s in neg],
        key=lambda t: (-t[0], t[1]),
    )
    hits = 0
    total = 0.0
    for i, (_, label) in enumerate(ranked, start=1):
        if label == 1:
            hits += 1
            total += hits / i
    return total / len(pos)


def random_score_set(rng):
    n_pos = int(rng.integers(1, 40))
    n_neg = int(rng.integers(1, 40))
    if rng.random() < 0.5:
        # heavy ties: integer-valued scores
        pos = rng.integers(0, 6, size=n_pos).astype(float)
        neg = rng.integers(0, 6, size=n_neg).astype(float)
    else:
        pos = rng.normal(0.3, 1.0, size=n_pos)
        neg = rng.normal(0.0, 1.0, size=n_neg)
    return pos, neg


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8], [0.1, 0.2]) == 1.0
        assert roc_auc([0.1, 0.2], [0.9, 0.8]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_worked_example(self):
        """pos {0.8, 0.4}, neg {0.6, 0.2}: 3 of 4 pairs ordered correctly."""
        assert roc_auc([0.8, 0.4], [0.6, 0.2]) == 0.75

    def test_single_tie_counts_half(self):
        assert roc_auc([0.5], [0.5]) == 0.5
        assert roc_auc([0.5, 0.7], [0.5]) == 0.75

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            pos, neg = random_score_set(rng)
            assert roc_auc(pos, neg) == auc_oracle(pos.tolist(), neg.tolist())

    def test_complement_symmetry(self):
        """Swapping the roles of the two sets reflects the AUC around 0.5."""
        rng = np.random.default_rng(101)
        for _ in range(50):
            pos, neg = random_score_set(rng)
            assert roc_auc(pos, neg) + roc_auc(neg, pos) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_auc([], [0.1])
        with pytest.raises(ValueError):
            roc_auc([0.1], [])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            roc_auc([np.nan], [0.1])

    def test_byte_equal_scipy_rank_sum(self):
        """The searchsorted count equals the rank-sum U statistic built from
        scipy's tie-averaged ranks byte for byte, on tied and untied sets."""
        from scipy.stats import rankdata

        rng = np.random.default_rng(103)
        for _ in range(2000):
            pos, neg = random_score_set(rng)
            if rng.random() < 0.2:
                pos[rng.random(pos.size) < 0.3] = -0.0  # ties between 0.0 and -0.0
                neg[rng.random(neg.size) < 0.3] = 0.0
            ranks = rankdata(np.concatenate([pos, neg]), method="average")
            u_stat = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
            want = float(u_stat / (pos.size * neg.size))
            assert np.float64(roc_auc(pos, neg)).tobytes() == np.float64(want).tobytes()

    def test_import_leaves_scipy_stats_unloaded(self):
        """``import bihop`` does not load scipy.stats; in a fresh process,
        since this one may have loaded it already."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, bihop; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        child = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            pos, neg = random_score_set(rng)
            base = roc_auc(pos, neg)
            for f in (lambda x: 3.0 * x + 2.0, np.tanh, lambda x: x**3):
                assert roc_auc(f(pos), f(neg)) == base


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_worked_example(self):
        """pos {0.9, 0.7}, neg {0.8}: precisions 1/1 and 2/3."""
        assert average_precision([0.9, 0.7], [0.8]) == (1.0 + 2.0 / 3.0) / 2.0

    def test_single_positive_ranked_last(self):
        k = 9
        got = average_precision([0.0], np.linspace(1, 2, k))
        assert got == 1.0 / (k + 1)

    def test_ties_resolve_negatives_first(self):
        # one positive tied with one negative: the negative is ranked above,
        # so precision at the positive is 1/2
        assert average_precision([0.5], [0.5]) == 0.5

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            pos, neg = random_score_set(rng)
            got = average_precision(pos, neg)
            want = ap_oracle(pos.tolist(), neg.tolist())
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision([], [0.1, 0.2])

    def test_byte_equal_ranked_label_cumsum(self):
        """The searchsorted count equals the ranked-label form byte for byte,
        on tied and untied sets: labels sorted by score descending with tied
        negatives first, precision as the label cumsum over the position,
        summed at the positives in ranked order."""
        rng = np.random.default_rng(106)
        for _ in range(2000):
            pos, neg = random_score_set(rng)
            scores = np.concatenate([neg, pos])
            labels = np.concatenate([np.zeros(neg.size, dtype=np.int64), np.ones(pos.size, dtype=np.int64)])
            labels = labels[np.argsort(-scores, kind="stable")]
            precision = np.cumsum(labels) / np.arange(1, labels.size + 1)
            want = float(precision[labels == 1].sum() / pos.size)
            assert np.float64(average_precision(pos, neg)).tobytes() == np.float64(want).tobytes()

    def test_empty_negatives_allowed(self):
        assert average_precision([0.3, 0.1], []) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(105)
        for _ in range(30):
            pos, neg = random_score_set(rng)
            base = average_precision(pos, neg)
            got = average_precision(5.0 * pos - 1.0, 5.0 * neg - 1.0)
            assert got == base


def confusion_oracle(scores, labels, threshold) -> tuple:
    """(tp, fp, fn, tn) of the rule score >= threshold, counted pair by pair."""
    cells = Counter((score >= threshold, label == 1) for score, label in zip(scores, labels))
    return cells[True, True], cells[True, False], cells[False, True], cells[False, False]


def f1_of(tp, fp, fn, tn) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


class TestBestF1:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        cm = best_f1_threshold(scores, labels)
        assert cm.f1 == 1.0
        assert cm.threshold == 0.8  # smallest positive score
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 0, 0, 2)

    def test_all_scores_equal_half_positive(self):
        """Only one candidate threshold exists: predict everything positive.
        With half the labels positive, F1 = 2*P / (2*P + N) = 2/3."""
        scores = np.full(10, 0.4)
        labels = np.array([1] * 5 + [0] * 5)
        cm = best_f1_threshold(scores, labels)
        assert cm.threshold == 0.4
        assert cm.f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_all_positive_labels(self):
        scores = np.array([0.3, 0.9, 0.5])
        labels = np.array([1, 1, 1])
        cm = best_f1_threshold(scores, labels)
        assert cm.f1 == 1.0
        assert cm.threshold == 0.3

    def test_f1_ties_take_larger_threshold(self):
        # threshold 0.9: tp=1, fn=1 -> F1 = 2/3; threshold 0.4: tp=2, fp=2
        # -> F1 = 2/3 as well; the larger threshold must win
        scores = np.array([0.9, 0.5, 0.5, 0.4])
        labels = np.array([1, 0, 0, 1])
        cm = best_f1_threshold(scores, labels)
        assert cm.threshold == 0.9
        assert cm.f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_reported_f1_matches_confusion(self):
        """The counts are those of the rule score >= threshold, a label of 1
        the only positive."""
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.random(n), 2)  # force ties
            labels = rng.integers(-1, 3, size=n)
            if not np.any(labels == 1):
                labels[0] = 1
            cm = best_f1_threshold(scores, labels)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == confusion_oracle(scores, labels, cm.threshold)

    def test_exhaustive_oracle(self):
        """No threshold (including +-inf) beats the one returned."""
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, size=n)
            if not labels.any():
                labels[0] = 1
            f1 = best_f1_threshold(scores, labels).f1
            candidates = np.concatenate([np.unique(scores), [np.inf, -np.inf]])
            best = max(f1_of(*confusion_oracle(scores, labels, t)) for t in candidates)
            assert f1 == pytest.approx(best, abs=1e-12)

    def test_rejects_no_positive(self):
        with pytest.raises(ValueError):
            best_f1_threshold([0.1, 0.2], [0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            best_f1_threshold([0.1], [1, 0])


class TestConfusionAt:
    """The counts ``best_f1_threshold`` returns at its threshold."""

    def test_hand_case(self):
        # thresholds 0.9, 0.6, 0.4, 0.1 give F1 2/3, 1/2, 4/5, 2/3
        scores = np.array([0.9, 0.6, 0.4, 0.1])
        labels = np.array([1, 0, 1, 0])
        cm = best_f1_threshold(scores, labels)
        assert cm.threshold == 0.4
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 0, 1)
        assert cm.f1 == 0.8

    def test_threshold_is_inclusive(self):
        """Every score tied with the threshold is predicted positive."""
        cm = best_f1_threshold([0.5, 0.5, 0.2], [1, 0, 1])
        assert cm.threshold == 0.2 and (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 0, 0)
        cm = best_f1_threshold([0.5, 0.5, 0.2], [1, 1, 0])
        assert cm.threshold == 0.5 and (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 0, 0, 1)

    def test_degenerate_f1_is_zero(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=0, tn=5, threshold=1.0)
        assert cm.f1 == 0.0


class TestScoreMass:
    def test_constant_scorer_gives_equal_cells(self):
        c = [0.3, 0.3, 0.3]
        report = score_mass_report(c, c, c, c, c, c)
        for _, edge, false in report.rows():
            assert edge == false == pytest.approx(0.3, abs=1e-15)

    def test_means_are_per_set(self):
        report = score_mass_report(
            [1.0, 3.0], [0.0], [2.0], [4.0, 0.0], [5.0], [1.0]
        )
        assert report.test_edge == 2.0
        assert report.test_false == 0.0
        assert report.val_edge == 2.0
        assert report.val_false == 2.0
        assert report.all_edge == 5.0
        assert report.all_false == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="val_neg"):
            score_mass_report([1.0], [1.0], [1.0], [], [1.0], [1.0])

    def test_format_has_three_rows(self):
        report = score_mass_report(*[[0.5]] * 6)
        text = format_mass_table(report, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 5
        assert lines[2].startswith("test")
