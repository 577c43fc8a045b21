import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glocal.metrics import (
    UndefinedMetricError,
    average_auc,
    average_precision,
    coverage,
    evaluate,
    ranking_loss,
)


# --- brute-force oracle: plain loops straight from the definitions ---

def oracle_ranks(f):
    order = sorted(range(len(f)), key=lambda j: (-f[j], j))
    return {j: r + 1 for r, j in enumerate(order)}


def oracle_rkl(scores, truth):
    vals = []
    for i in range(scores.shape[1]):
        pos = [j for j in range(scores.shape[0]) if truth[j, i] == 1]
        neg = [j for j in range(scores.shape[0]) if truth[j, i] == -1]
        if not pos or not neg:
            continue
        bad = sum(
            1 for p in pos for q in neg if scores[p, i] <= scores[q, i]
        )
        vals.append(bad / (len(pos) * len(neg)))
    if not vals:
        raise UndefinedMetricError("oracle")
    return sum(vals) / len(vals)


def oracle_auc(scores, truth):
    vals = []
    for j in range(scores.shape[0]):
        pos = [i for i in range(scores.shape[1]) if truth[j, i] == 1]
        neg = [i for i in range(scores.shape[1]) if truth[j, i] == -1]
        if not pos or not neg:
            continue
        good = sum(
            1 for p in pos for q in neg if scores[j, p] >= scores[j, q]
        )
        vals.append(good / (len(pos) * len(neg)))
    if not vals:
        raise UndefinedMetricError("oracle")
    return sum(vals) / len(vals)


def oracle_cvg(scores, truth):
    vals = []
    for i in range(scores.shape[1]):
        pos = [j for j in range(scores.shape[0]) if truth[j, i] == 1]
        if not pos:
            continue
        ranks = oracle_ranks(scores[:, i])
        vals.append(max(ranks[j] for j in pos) - 1)
    if not vals:
        raise UndefinedMetricError("oracle")
    return sum(vals) / len(vals)


def oracle_ap(scores, truth):
    vals = []
    for i in range(scores.shape[1]):
        pos = [j for j in range(scores.shape[0]) if truth[j, i] == 1]
        if not pos:
            continue
        ranks = oracle_ranks(scores[:, i])
        per_c = []
        for above, c in enumerate(sorted(pos, key=lambda j: ranks[j]), start=1):
            per_c.append(above / ranks[c])
        vals.append(sum(per_c) / len(per_c))
    if not vals:
        raise UndefinedMetricError("oracle")
    return sum(vals) / len(vals)


# --- frozen worked examples ---

def test_ranking_loss_worked_example():
    scores = np.array([[0.3], [0.5], [0.2]])
    truth = np.array([[1], [-1], [-1]])
    assert ranking_loss(scores, truth) == 0.5


def test_ranking_loss_extremes():
    scores = np.array([[2.0], [1.0], [-1.0]])
    truth = np.array([[1], [1], [-1]])
    assert ranking_loss(scores, truth) == 0.0
    # all-equal scores: every pair is a tie, ties count against
    assert ranking_loss(np.zeros((3, 1)), truth) == 1.0


def test_auc_worked_example():
    scores = np.array([[0.8, 0.3, 0.9]])
    truth = np.array([[1, -1, -1]])
    # one label row over three instances; needs a second label to build
    # a LabelMatrix-shaped problem, so call the metric directly
    assert average_auc(scores, truth) == 0.5


def test_auc_ties_count_in_favor():
    scores = np.zeros((1, 4))
    truth = np.array([[1, 1, -1, -1]])
    assert average_auc(scores, truth) == 1.0


def test_coverage_worked_example():
    scores = np.array([[0.9], [0.5], [0.2]])
    truth = np.array([[1], [-1], [1]])
    assert coverage(scores, truth) == 2.0


def test_coverage_tie_breaks_by_label_index():
    scores = np.array([[0.5], [0.5], [0.1]])
    truth = np.array([[-1], [1], [-1]])
    # labels 1 and 2 tie; label 1 wins rank 1, the positive gets rank 2
    assert coverage(scores, truth) == 1.0


def test_average_precision_worked_example():
    scores = np.array([[0.9], [0.5], [0.2]])
    truth = np.array([[1], [-1], [1]])
    assert average_precision(scores, truth) == pytest.approx(5 / 6, abs=1e-15)


def test_average_precision_perfect():
    scores = np.array([[3.0], [2.0], [1.0]])
    truth = np.array([[1], [1], [-1]])
    assert average_precision(scores, truth) == 1.0


def test_metric_ranges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        l, p = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        scores = rng.standard_normal((l, p))
        truth = rng.choice([-1, 1], size=(l, p))
        try:
            assert 0.0 <= ranking_loss(scores, truth) <= 1.0
            assert 0.0 <= average_auc(scores, truth) <= 1.0
            assert 0.0 <= coverage(scores, truth) <= l - 1
            assert 0.0 < average_precision(scores, truth) <= 1.0
        except UndefinedMetricError:
            pass


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((5, 6))
    truth = rng.choice([-1, 1], size=(5, 6))
    for f in (lambda s: 2.0 * s + 7.0, np.exp):
        assert ranking_loss(f(scores), truth) == ranking_loss(scores, truth)
        assert average_auc(f(scores), truth) == average_auc(scores, truth)
        assert coverage(f(scores), truth) == coverage(scores, truth)
        assert average_precision(f(scores), truth) == average_precision(scores, truth)


def test_instance_permutation_invariance():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal((4, 8))
    truth = rng.choice([-1, 1], size=(4, 8))
    perm = rng.permutation(8)
    for metric in (ranking_loss, average_auc, coverage, average_precision):
        assert metric(scores[:, perm], truth[:, perm]) == metric(scores, truth)


# scores on a grid of quarters, so ties are common and every map below
# keeps distinct scores distinct in float64
GRID_SCORE = st.integers(-20, 20).map(lambda q: q / 4)
INCREASING = {
    "affine": lambda s: 3.0 * s - 7.0,
    "cube": lambda s: s**3,
    "exp": np.exp,
    "arctan": np.arctan,
}
ORACLES = ((ranking_loss, oracle_rkl), (average_auc, oracle_auc),
           (coverage, oracle_cvg), (average_precision, oracle_ap))


@st.composite
def problem(draw):
    l, p = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    scores = draw(arrays(np.float64, (l, p), elements=GRID_SCORE))
    truth = draw(arrays(np.int8, (l, p), elements=st.sampled_from([-1, 0, 1])))
    return scores, truth


@settings(derandomize=True, max_examples=150, deadline=None)
@given(problem(), st.data())
def test_metrics_invariant_under_permutation_and_increasing_maps(case, data):
    scores, truth = case
    perm = np.array(data.draw(st.permutations(range(scores.shape[1]))), dtype=np.int64)
    f = INCREASING[data.draw(st.sampled_from(sorted(INCREASING)))]
    assert np.unique(f(scores)).size == np.unique(scores).size  # no new ties
    for mine, ref in ORACLES:
        try:
            want = ref(scores, truth)
        except UndefinedMetricError:
            for S, T in ((f(scores), truth), (scores[:, perm], truth[:, perm])):
                with pytest.raises(UndefinedMetricError):
                    mine(S, T)
            continue
        # a strictly increasing map keeps every comparison, so the values
        # agree exactly; permuting instances reorders the per-instance
        # mean, so it agrees up to that summation's rounding
        assert mine(f(scores), truth) == ref(f(scores), truth) == want
        assert mine(scores[:, perm], truth[:, perm]) == pytest.approx(want, rel=1e-12)
        assert ref(scores[:, perm], truth[:, perm]) == pytest.approx(want, rel=1e-12)


def test_degenerate_rows_skipped_with_reduced_denominator():
    scores = np.array([[0.9, 0.1], [0.5, 0.2], [0.1, 0.3]])
    truth = np.array([[1, 1], [-1, 1], [1, 1]])
    # instance 2 has no negative: ranking_loss averages over instance 1 only,
    # where the pair (label 3, label 2) is mis-ordered
    assert ranking_loss(scores, truth) == 0.5
    # coverage keeps instance 2 (it has positives)
    assert coverage(scores, truth) == (2 + 2) / 2


def test_all_skipped_raises():
    scores = np.zeros((2, 2))
    with pytest.raises(UndefinedMetricError):
        ranking_loss(scores, np.array([[1, 1], [1, 1]]))
    with pytest.raises(UndefinedMetricError):
        average_auc(scores, np.array([[1, 1], [-1, -1]]))
    with pytest.raises(UndefinedMetricError):
        coverage(scores, np.array([[-1, -1], [-1, -1]]))
    with pytest.raises(UndefinedMetricError):
        average_precision(scores, np.array([[-1, -1], [-1, -1]]))


def test_zero_truth_entries_are_excluded():
    scores = np.array([[0.9], [0.5], [0.2]])
    # label 2's zero excludes it: pairs are only (label 1, label 3)
    assert ranking_loss(scores, np.array([[1], [0], [-1]])) == 0.0
    assert ranking_loss(scores, np.array([[-1], [0], [1]])) == 1.0
    # but ranks still span all labels
    assert coverage(scores, np.array([[0], [0], [1]])) == 2.0


def test_input_validation():
    with pytest.raises(ValueError, match="shape"):
        ranking_loss(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="-1, 0 or"):
        ranking_loss(np.zeros((2, 2)), np.full((2, 2), 2))
    with pytest.raises(ValueError, match="finite"):
        ranking_loss(np.full((2, 2), np.nan), np.ones((2, 2)))


def test_random_cases_match_oracle():
    rng = np.random.default_rng(3)
    ties = np.random.default_rng(4)
    agreements = 0
    for trial in range(260):
        if trial < 200:
            l, p = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            scores = rng.standard_normal((l, p))
            truth = rng.choice([-1, 0, 1], size=(l, p))
        else:
            # tie-heavy scores, signed zeros among them
            l, p = int(ties.integers(2, 7)), int(ties.integers(1, 7))
            scores = ties.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(l, p))
            truth = ties.choice([-1, 0, 1], size=(l, p))
        for mine, ref in (
            (ranking_loss, oracle_rkl),
            (average_auc, oracle_auc),
            (coverage, oracle_cvg),
            (average_precision, oracle_ap),
        ):
            try:
                want = ref(scores, truth)
            except UndefinedMetricError:
                with pytest.raises(UndefinedMetricError):
                    mine(scores, truth)
                continue
            assert mine(scores, truth) == want
            agreements += 1
    assert agreements > 400


def test_evaluate_matches_oracle_past_the_pairwise_block():
    # columns hold more than 8 positives and the means run over more than
    # 8 values, past numpy's unrolled blocks: a real-valued mean may then
    # differ from the oracle's left-to-right sum in the last bits, while
    # coverage averages integers and stays exact
    rng = np.random.default_rng(6)
    l, p = 40, 30
    for _ in range(3):
        scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=(l, p))
        truth = rng.choice([-1, 0, 1], p=[0.3, 0.2, 0.5], size=(l, p))
        assert (np.count_nonzero(truth == 1, axis=0) > 8).all()
        report = evaluate(scores, truth)
        assert report.cvg == oracle_cvg(scores, truth)
        for got, oracle in ((report.rkl, oracle_rkl), (report.auc, oracle_auc),
                            (report.ap, oracle_ap)):
            assert got == pytest.approx(oracle(scores, truth), rel=1e-15, abs=0)


def test_evaluate_report_and_csv():
    scores = np.array([[0.9, 0.2], [0.5, 0.4], [0.1, 0.6]])
    truth = np.array([[1, 1], [-1, 1], [1, 1]])
    report = evaluate(scores, truth)
    assert report.rkl == 0.5
    assert report.auc == 0.0
    assert report.cvg == 2.0
    assert report.ap == pytest.approx(11 / 12, abs=1e-15)
    assert report.skipped_instances == 1  # instance 2 lacks a negative
    assert report.skipped_labels == 2  # labels 1 and 3 lack a negative instance
    text = report.to_csv(comments=["run x"])
    lines = text.splitlines()
    assert lines[0] == "# run x"
    assert lines[1] == "rkl,auc,cvg,ap,skipped_instances,skipped_labels"
    row = lines[2].split(",")
    assert float(row[0]) == report.rkl
    assert int(row[4]) == 1 and int(row[5]) == 2


def test_evaluate_ranks_once_and_matches_the_metrics(monkeypatch):
    import glocal.metrics as metrics

    calls = []
    real_ranks = metrics._ranks

    def counting_ranks(scores):
        calls.append(scores.shape)
        return real_ranks(scores)

    monkeypatch.setattr(metrics, "_ranks", counting_ranks)
    rng = np.random.default_rng(5)
    for _ in range(20):
        l, p = int(rng.integers(3, 8)), int(rng.integers(2, 8))
        scores = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(l, p))
        truth = rng.choice([-1, 1], size=(l, p))
        # every instance and every label from the third on has both signs
        truth[0], truth[1] = 1, -1
        truth[2:, 0], truth[2:, 1] = 1, -1
        calls.clear()
        report = evaluate(scores, truth)
        assert calls == [(l, p)]
        assert report.cvg == coverage(scores, truth)
        assert report.ap == average_precision(scores, truth)
        assert report.rkl == ranking_loss(scores, truth)
        assert report.auc == average_auc(scores, truth)
