"""Ranking metrics for multi-label predictions.

All four metrics take an l x p score matrix and an l x p ground-truth
matrix with entries in {-1, 0, +1}; a 0 marks a position excluded from
evaluation (useful for scoring only recovered hidden entries).  Ties:
a tied positive/negative score pair counts against ranking_loss (<=)
but in favor of auc (>=); rank positions break score ties by ascending
label index, so rank values are a permutation of 1..l per instance.

Degenerate rows/columns are skipped, not zero-filled: ranking_loss
drops instances lacking a positive or lacking a negative, coverage and
average_precision drop instances lacking a positive, average_auc drops
labels lacking a positive or negative instance.  Averages run over
what remains; if nothing remains the metric is undefined and raises.

evaluate ranks every column once, with one stable argsort of the whole
matrix, and takes coverage and average precision from those ranks with
whole-matrix numpy calls and no per-instance loop.  ranking_loss and
average_auc keep one sort and searchsorted per instance or label: a
whole-matrix sort with tie groups measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textio import comment_lines


class UndefinedMetricError(ValueError):
    """Raised when every instance/label was skipped as degenerate."""


def _check(scores, truth):
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.ndim != 2 or scores.shape != truth.shape:
        raise ValueError(
            f"scores {scores.shape} and truth {truth.shape} must be equal 2-D shapes"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if not np.isin(truth, (-1, 0, 1)).all():
        raise ValueError("truth entries must be -1, 0 or +1")
    return scores, truth


def _ranks(scores):
    # 1-based rank of each label within its instance column by descending
    # score; the stable sort breaks ties by ascending label index
    l = scores.shape[0]
    order = np.argsort(-scores, axis=0, kind="stable")
    ranks = np.empty(scores.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, l + 1)[:, None], axis=0)
    return ranks


def ranking_loss(scores, truth):
    """Mean fraction of positive/negative pairs ordered wrongly (ties count)."""
    scores, truth = _check(scores, truth)
    vals = []
    for i in range(scores.shape[1]):
        fp = scores[truth[:, i] == 1, i]
        fn = np.sort(scores[truth[:, i] == -1, i])
        if fp.size == 0 or fn.size == 0:
            continue
        # pairs with fp <= fn: each positive loses to the negatives at or above it
        bad = int(fp.size * fn.size - np.searchsorted(fn, fp, side="left").sum())
        vals.append(bad / (fp.size * fn.size))
    if not vals:
        raise UndefinedMetricError("ranking_loss: every instance was skipped")
    return float(np.mean(vals))


def average_auc(scores, truth):
    """Mean per-label fraction of correctly ordered instance pairs (ties count)."""
    scores, truth = _check(scores, truth)
    vals = []
    for j in range(scores.shape[0]):
        fp = scores[j, truth[j] == 1]
        fn = np.sort(scores[j, truth[j] == -1])
        if fp.size == 0 or fn.size == 0:
            continue
        # pairs with fp >= fn: each positive beats the negatives at or below it
        good = int(np.searchsorted(fn, fp, side="right").sum())
        vals.append(good / (fp.size * fn.size))
    if not vals:
        raise UndefinedMetricError("average_auc: every label was skipped")
    return float(np.mean(vals))


def _coverage(ranks, truth):
    pos = truth == 1
    keep = pos.any(axis=0)
    if not keep.any():
        raise UndefinedMetricError("coverage: every instance was skipped")
    # each instance's worst positive rank; 0 where it has no positive
    worst = np.where(pos, ranks, 0).max(axis=0)
    return float(np.mean(worst[keep] - 1))


def _average_precision(ranks, truth):
    pos = truth == 1
    n_pos = np.count_nonzero(pos, axis=0)
    keep = n_pos > 0
    if not keep.any():
        raise UndefinedMetricError("average_precision: every instance was skipped")
    # positives laid out by rank: row r - 1 holds whether rank r is a positive
    by_rank = np.zeros(pos.shape, dtype=bool)
    np.put_along_axis(by_rank, ranks - 1, pos, axis=0)
    # positives at or above each rank, over the rank, kept at positives
    precision = np.cumsum(by_rank, axis=0, dtype=np.float64)
    precision /= np.arange(1, pos.shape[0] + 1)[:, None]
    precision *= by_rank
    return float(np.mean(precision.sum(axis=0)[keep] / n_pos[keep]))


def coverage(scores, truth):
    """Mean depth (worst positive's rank - 1) needed to cover all positives."""
    scores, truth = _check(scores, truth)
    return _coverage(_ranks(scores), truth)


def average_precision(scores, truth):
    """Mean over positives of (positives ranked at or above it) / (its rank)."""
    scores, truth = _check(scores, truth)
    return _average_precision(_ranks(scores), truth)


@dataclass(frozen=True)
class EvaluationReport:
    """All four metrics plus how many rows/columns were skipped.

    skipped_instances counts instances lacking a positive or lacking a
    negative (the ranking_loss policy; coverage and average_precision
    skip the subset of those lacking a positive).  skipped_labels
    counts labels average_auc skipped.
    """

    rkl: float
    auc: float
    cvg: float
    ap: float
    skipped_instances: int
    skipped_labels: int

    def to_csv(self, comments=()):
        lines = comment_lines(comments)
        lines.append("rkl,auc,cvg,ap,skipped_instances,skipped_labels")
        lines.append(
            f"{self.rkl:.17g},{self.auc:.17g},{self.cvg:.17g},{self.ap:.17g},"
            f"{self.skipped_instances},{self.skipped_labels}"
        )
        return "\n".join(lines) + "\n"


def evaluate(scores, truth):
    """Compute all four metrics at once.

    Args:
        scores: l x p real-valued score matrix.
        truth: l x p matrix in {-1, 0, +1}; 0 excludes a position.

    Returns:
        EvaluationReport.

    Raises:
        UndefinedMetricError: if any metric has nothing left to average.
    """
    scores, truth = _check(scores, truth)
    has_pos = (truth == 1).any(axis=0)
    has_neg = (truth == -1).any(axis=0)
    skipped_instances = int(np.sum(~(has_pos & has_neg)))
    lab_pos = (truth == 1).any(axis=1)
    lab_neg = (truth == -1).any(axis=1)
    skipped_labels = int(np.sum(~(lab_pos & lab_neg)))
    ranks = _ranks(scores)  # shared by coverage and average precision
    return EvaluationReport(
        rkl=ranking_loss(scores, truth),
        auc=average_auc(scores, truth),
        cvg=_coverage(ranks, truth),
        ap=_average_precision(ranks, truth),
        skipped_instances=skipped_instances,
        skipped_labels=skipped_labels,
    )
