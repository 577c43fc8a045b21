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
average_auc share one pair count, a sort and searchsorted per instance
or label: a whole-matrix sort with tie groups measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_reals
from .textio import comment_lines


class UndefinedMetricError(ValueError):
    """Raised when every instance/label was skipped as degenerate."""


def _check(scores, truth):
    scores = np.asarray(check_reals("scores", scores), dtype=np.float64)
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


def _pair_counts(scores, truth, side):
    # for each row holding a positive and a negative: (how many negatives
    # each positive's score sorts past on `side` of ties, summed; pairs)
    counts = []
    for s, t in zip(scores, truth):
        fp = s[t == 1]
        fn = np.sort(s[t == -1])
        if fp.size and fn.size:
            passed = int(np.searchsorted(fn, fp, side=side).sum())
            counts.append((passed, fp.size * fn.size))
    return counts


def _instance_counts(scores, truth):
    # per instance, the pairs with fp > fn; the rest, fp <= fn, are wrong
    return _pair_counts(scores.T, truth.T, "left")


def _label_counts(scores, truth):
    # per label, the pairs with fp >= fn
    return _pair_counts(scores, truth, "right")


def _ranking_loss(counts):
    if not counts:
        raise UndefinedMetricError("ranking_loss: every instance was skipped")
    return float(np.mean([(pairs - good) / pairs for good, pairs in counts]))


def _average_auc(counts):
    if not counts:
        raise UndefinedMetricError("average_auc: every label was skipped")
    return float(np.mean([good / pairs for good, pairs in counts]))


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


def ranking_loss(scores, truth):
    """Mean fraction of positive/negative pairs ordered wrongly (ties count)."""
    return _ranking_loss(_instance_counts(*_check(scores, truth)))


def average_auc(scores, truth):
    """Mean per-label fraction of correctly ordered instance pairs (ties count)."""
    return _average_auc(_label_counts(*_check(scores, truth)))


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
        """Report CSV: the comment lines, the header
        rkl,auc,cvg,ap,skipped_instances,skipped_labels and one row of
        values, each float as '%.17g'."""
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
    # a row the pair count skips is the row its metric skips
    instances = _instance_counts(scores, truth)
    labels = _label_counts(scores, truth)
    ranks = _ranks(scores)  # shared by coverage and average precision
    return EvaluationReport(
        rkl=_ranking_loss(instances),
        auc=_average_auc(labels),
        cvg=_coverage(ranks, truth),
        ap=_average_precision(ranks, truth),
        skipped_instances=scores.shape[1] - len(instances),
        skipped_labels=scores.shape[0] - len(labels),
    )
