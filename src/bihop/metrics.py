"""Ranking metrics, threshold selection, and score-mass summaries.

AUC uses the Mann-Whitney identity: the fraction of (positive, negative)
score pairs ranked correctly, ties counted half.  Average precision walks the
ranking from the top and sums precision at each recall step; among tied
scores negatives are placed BEFORE positives, so tied blocks can only lower
precision (documented pessimistic convention; the optimistic
positives-first order is not used).  Both count each positive against the
sorted negatives with ``np.searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import ScorerKind


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int
    threshold: float

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


@dataclass(frozen=True)
class MetricReport:
    """One (dataset, scorer, run) evaluation row."""

    dataset: str
    scorer: ScorerKind
    run: int
    seed: int
    auc: float
    ap: float


@dataclass(frozen=True)
class SummaryRow:
    """Mean and population standard deviation over one (dataset, scorer)'s runs."""

    dataset: str
    scorer: ScorerKind
    runs: int
    auc_mean: float
    auc_std: float
    ap_mean: float
    ap_std: float


def summarize(reports) -> tuple:
    """One SummaryRow per (dataset, scorer), in order of first appearance.

    Each group's values are sorted before they are reduced, so a row does
    not depend on the order of the reports.
    """
    groups: dict = {}
    for r in reports:
        groups.setdefault((r.dataset, r.scorer), []).append(r)
    rows = []
    for (dataset, scorer), group in groups.items():
        aucs = np.sort([r.auc for r in group])
        aps = np.sort([r.ap for r in group])
        rows.append(
            SummaryRow(
                dataset=dataset,
                scorer=scorer,
                runs=aucs.size,
                auc_mean=float(aucs.mean()),
                auc_std=float(aucs.std()),
                ap_mean=float(aps.mean()),
                ap_std=float(aps.std()),
            )
        )
    return tuple(rows)


def _validate_scores(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def roc_auc(pos_scores, neg_scores) -> float:
    """Probability a random positive outranks a random negative (ties half).

    Each positive is counted against the sorted negatives by
    ``np.searchsorted``: U = sum over positives of (# negatives below + half
    # negatives tied), an exact integer sum halved, in O((P+N) log N).  It
    exactly equals the brute-force pair count (# greater + 0.5 # equal) /
    (P * N).
    """
    pos = _validate_scores(pos_scores, "pos_scores")
    neg = _validate_scores(neg_scores, "neg_scores")
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_auc needs at least one positive and one negative score")
    neg = np.sort(neg)
    below_twice = np.searchsorted(neg, pos, side="left") + np.searchsorted(neg, pos, side="right")
    u_stat = below_twice.sum() / 2.0
    return float(u_stat / (pos.size * neg.size))


def average_precision(pos_scores, neg_scores) -> float:
    """Area under precision-recall by step summation.

    AP = sum_k (R_k - R_{k-1}) P_k over ranking positions; recall steps occur
    exactly at positives, so this is the mean of precision-at-positive.  With
    tied negatives ranked first, the j-th positive from the top sits behind
    every negative scoring at least as high, so its precision is
    j / (j + # such negatives), counted by ``np.searchsorted`` on the sorted
    negatives and summed from the top.
    """
    pos = _validate_scores(pos_scores, "pos_scores")
    neg = _validate_scores(neg_scores, "neg_scores")
    if pos.size == 0:
        raise ValueError("average_precision needs at least one positive score")
    neg = np.sort(neg)
    pos = np.sort(pos)[::-1]
    j = np.arange(1, pos.size + 1)
    ahead = neg.size - np.searchsorted(neg, pos, side="left")
    return float((j / (j + ahead)).sum() / pos.size)


def best_f1_threshold(scores, labels) -> ConfusionMatrix:
    """The confusion counts at the threshold (from the distinct score
    values) maximizing F1.

    Predicts positive when score >= threshold; a label of 1 is a positive
    and any other a negative.  Ties on F1 resolve to the larger threshold.
    """
    scores = _validate_scores(scores, "scores")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if scores.size != labels.size:
        raise ValueError("scores and labels differ in length")
    if scores.size == 0 or not np.any(labels == 1):
        raise ValueError("best_f1_threshold needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    cum_pos = np.cumsum(labels[order] == 1)
    total_pos = int(cum_pos[-1])
    # Candidate thresholds: each distinct value, evaluated at its LAST
    # occurrence in the descending order so the >= rule is respected.
    last = np.nonzero(np.diff(s_sorted, append=-np.inf) != 0)[0]
    ks = last + 1
    f1s = 2.0 * cum_pos[last] / (ks + total_pos)
    best = int(np.argmax(f1s))  # first (= largest threshold) among F1 ties
    k, tp = int(ks[best]), int(cum_pos[last[best]])
    fn = total_pos - tp
    return ConfusionMatrix(
        tp=tp, fp=k - tp, fn=fn, tn=scores.size - k - fn, threshold=float(s_sorted[last[best]])
    )


@dataclass(frozen=True)
class ScoreMassReport:
    """Mean raw score of a scorer over edge vs non-edge sets (3 x 2 table)."""

    test_edge: float
    test_false: float
    val_edge: float
    val_false: float
    all_edge: float
    all_false: float

    def rows(self):
        return (
            ("test", self.test_edge, self.test_false),
            ("val", self.val_edge, self.val_false),
            ("all_edges", self.all_edge, self.all_false),
        )


def score_mass_report(test_pos, test_neg, val_pos, val_neg, all_edges, false_edges) -> ScoreMassReport:
    """Arithmetic mean of raw scores per evaluation set.

    Separation of the edge column from the false-edge column is the
    calibration signal that distinguishes a useful two-hop surface from a
    flat one.  ValueError names a set that is empty or not finite.
    """
    sets = dict(locals())  # the six parameters, in ScoreMassReport's field order
    means = []
    for name, values in sets.items():
        arr = _validate_scores(values, name)
        if arr.size == 0:
            raise ValueError(f"score set {name} is empty")
        means.append(float(arr.mean()))
    return ScoreMassReport(*means)


def format_mass_table(report: ScoreMassReport, title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'set':<10} {'edge':>12} {'false edge':>12}")
    for name, edge, false in report.rows():
        lines.append(f"{name:<10} {edge:>12.6f} {false:>12.6f}")
    return "\n".join(lines)
