"""End-to-end acceptance checks, one test per numbered criterion.

Each test states its tolerance inline and fails loudly with the
measured value, so a -v run gives one pass/fail line per criterion.
Criterion 2's fit is shared with criterion 5 through a module fixture.
Criterion 8's thresholds were frozen after a pilot run; the pilot
numbers are recorded next to the assertions.  Criterion 10 needs a
real-world dataset and is skipped unless GLOCAL_IMAGE_DATASET names
its GML file.
"""

import os
import time

import numpy as np
import pytest

from glocal.clustering import kmeans
from glocal.correlation import (
    combine_correlations,
    cosine_correlation,
    laplacian_of,
    project_unit_rows,
)
from glocal.data import (
    Dataset,
    FeatureMatrix,
    LabelMatrix,
    apply_mask,
    make_synthetic,
    split,
)
from glocal.metrics import (
    UndefinedMetricError,
    average_auc,
    average_precision,
    coverage,
    ranking_loss,
)
from glocal.model import GlocalModel, Hyperparams
from glocal.model import score as model_score
from glocal.solver import (
    closed_form_V,
    fit,
    gradients,
    grid_search,
    make_context,
    objective,
    warm_start,
)

# planted data shape shared by criteria 2, 5, 8 and 9
SYNTH = dict(l=20, n=400, d=10, k_true=3, noise=0.3)
RHO = 30
GROUPS = 4


def planted_problem(seed):
    full = make_synthetic(seed=seed, **SYNTH)
    masked = apply_mask(full, rho=RHO, seed=seed)
    # the hidden labels as 0-based (label, instance, value) rows, row-major
    hid = full.labels.values - masked.labels.values
    hidden = np.column_stack((np.argwhere(hid), hid[hid != 0]))
    partition = kmeans(masked.features, GROUPS, seed=seed)
    return full, masked, hidden, partition


@pytest.fixture(scope="module")
def criterion2_run():
    full, masked, hidden, partition = planted_problem(0)
    hp = Hyperparams(
        k=3, lambda_=1.0, lambda2=1.0, lambda3=0.1, lambda4=0.1,
        inner_steps=5, outer_iters=50, warm_iters=20, tol=0.0, seed=0,
    )
    t0 = time.perf_counter()
    model, trace = fit(masked, partition, hp)
    elapsed = time.perf_counter() - t0
    return model, trace, elapsed


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[ij] += h
        xm[ij] -= h
        g[ij] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def block_rel_err(got, want):
    denom = max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)
    return float(np.linalg.norm(got - want) / denom)


def test_criterion_01_gradients_match_finite_differences():
    # 20 seeded problems, log-uniform lambdas in [1e-3, 10], h = 1e-6,
    # every block within relative error 1e-4, under 30 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        lam, lam2, lam3, lam4 = 10.0 ** rng.uniform(-3, 1, size=4)
        d, n, l, k, g = 7, 15, 5, 3, 2
        X = rng.standard_normal((d, n))
        Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
        full = Dataset(FeatureMatrix(X), LabelMatrix(Y))
        data = apply_mask(full, rho=60, seed=trial)
        partition = kmeans(data.features, g, seed=trial)
        hp = Hyperparams(
            k=k, lambda_=lam, lambda2=lam2, lambda3=lam3, lambda4=lam4, seed=trial
        )
        ctx = make_context(data, partition, hp)
        model = GlocalModel(
            U=rng.standard_normal((l, k)),
            V=rng.standard_normal((k, n)),
            W=rng.standard_normal((d, k)),
            factors=tuple(
                project_unit_rows(rng.standard_normal((l, k))) for _ in range(g)
            ),
        )
        G_U, G_V, G_W, G_Zs = gradients(model, ctx)

        def at(U=None, V=None, W=None, Zs=None):
            return GlocalModel(
                U=model.U if U is None else U,
                V=model.V if V is None else V,
                W=model.W if W is None else W,
                factors=model.factors if Zs is None else tuple(Zs),
            )

        errs = [
            block_rel_err(G_U, fd_gradient(lambda A: objective(at(U=A), ctx), model.U)),
            block_rel_err(G_V, fd_gradient(lambda A: objective(at(V=A), ctx), model.V)),
            block_rel_err(G_W, fd_gradient(lambda A: objective(at(W=A), ctx), model.W)),
        ]
        for m in range(g):
            def obj_z(Z, m=m):
                Zs = list(model.factors)
                Zs[m] = Z
                return objective(at(Zs=Zs), ctx)

            errs.append(block_rel_err(G_Zs[m], fd_gradient(obj_z, model.factors[m])))
        worst = max(worst, max(errs))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"worst block relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"


def test_criterion_02_fit_descends_and_converges(criterion2_run):
    # no objective increase beyond 1e-9, relative change < 1e-4 reached
    # within 50 outer iterations, under 60 s
    _, trace, elapsed = criterion2_run
    objs = trace.objectives
    assert len(objs) == 51
    increases = objs[1:] - objs[:-1]
    assert increases.max() <= 1e-9, f"objective rose by {increases.max():.3e}"
    rels = (objs[:-1] - objs[1:]) / np.maximum(objs[:-1], 1e-30)
    hits = np.flatnonzero(rels < 1e-4)
    assert hits.size > 0, f"relative change never fell below 1e-4 (last {rels[-1]:.3e})"
    assert hits[0] + 1 <= 50
    assert elapsed < 60.0, f"fit took {elapsed:.1f}s"


def test_criterion_03_global_cosine_is_group_size_weighted_mean():
    # 100 fully observed +-1 label matrices: global cosine equals the
    # n_m/n-weighted sum of per-group cosines within 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        l = int(rng.integers(2, 11))
        n = int(rng.integers(4, 61))
        g = int(rng.integers(1, min(4, n // 2) + 1))
        Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
        labels = LabelMatrix(Y)
        # random partition with every group non-empty
        assign = np.concatenate(
            [np.arange(1, g + 1), rng.integers(1, g + 1, size=n - g)]
        )
        rng.shuffle(assign)
        S_global = cosine_correlation(labels)
        S_mix = np.zeros_like(S_global)
        for m in range(1, g + 1):
            idx = np.flatnonzero(assign == m)
            S_m = cosine_correlation(LabelMatrix(Y[:, idx]))
            S_mix += idx.size / n * S_m
        worst = max(worst, float(np.abs(S_global - S_mix).max()))
    assert worst < 1e-12, f"max decomposition gap {worst:.3e}"


def test_criterion_04_laplacian_commutes_with_combination():
    # 100 random symmetric matrix lists with random weights:
    # laplacian_of(combination) equals the combination of laplacians
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        l = int(rng.integers(2, 9))
        count = int(rng.integers(1, 5))
        mats = []
        for _ in range(count):
            A = rng.standard_normal((l, l))
            mats.append((A + A.T) / 2.0)
        betas = rng.uniform(-2.0, 2.0, size=count)
        got = laplacian_of(combine_correlations(mats, betas))
        want = combine_correlations([laplacian_of(S) for S in mats], betas)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-12, f"max linearity gap {worst:.3e}"


def test_criterion_05_factor_rows_stay_unit_norm(criterion2_run):
    # diag(Z Z') = 1 within 1e-12 after every factor update and at exit
    model, trace, _ = criterion2_run
    worst_in_run = max(r.z_unit_error for r in trace.records)
    assert worst_in_run <= 1e-12, f"worst in-run drift {worst_in_run:.3e}"
    for Z in model.factors:
        drift = float(np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max())
        assert drift <= 1e-12, f"exit drift {drift:.3e}"


def test_criterion_06_closed_form_v_is_stationary():
    # 50 random problems: V-gradient norm at the solve's output is
    # below 1e-8 (1 + ||V||_F)
    rng = np.random.default_rng(9)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(5, 25))
        l = int(rng.integers(2, 8))
        k = int(rng.integers(1, 5))
        g = int(rng.integers(1, 3))
        lam, lam2, lam3, lam4 = 10.0 ** rng.uniform(-2, 1, size=4)
        Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
        full = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
        data = apply_mask(full, rho=50, seed=trial)
        partition = kmeans(data.features, g, seed=trial)
        hp = Hyperparams(
            k=k, lambda_=lam, lambda2=lam2, lambda3=lam3, lambda4=lam4, seed=trial
        )
        ctx = make_context(data, partition, hp)
        model = GlocalModel(
            U=rng.standard_normal((l, k)),
            V=rng.standard_normal((k, n)),
            W=rng.standard_normal((d, k)),
            factors=tuple(
                project_unit_rows(rng.standard_normal((l, k))) for _ in range(g)
            ),
        )
        V_star = closed_form_V(model, ctx)
        at_opt = GlocalModel(U=model.U, V=V_star, W=model.W, factors=model.factors)
        gnorm = float(np.linalg.norm(gradients(at_opt, ctx)[1]))
        bound = 1e-8 * (1.0 + float(np.linalg.norm(V_star)))
        assert gnorm < bound, f"trial {trial}: |G_V| = {gnorm:.3e} >= {bound:.3e}"


def oracle_metric_lists(scores, truth):
    # brute-force pairwise definitions, plain python loops; returns the
    # per-instance (or per-label) value lists so each metric's skip
    # policy can be judged independently
    def ranks(f):
        order = sorted(range(len(f)), key=lambda j: (-f[j], j))
        return {j: r + 1 for r, j in enumerate(order)}

    l, p = scores.shape
    rkl_vals, cvg_vals, ap_vals, auc_vals = [], [], [], []
    for i in range(p):
        pos = [j for j in range(l) if truth[j, i] == 1]
        neg = [j for j in range(l) if truth[j, i] == -1]
        if pos and neg:
            bad = sum(1 for a in pos for b in neg if scores[a, i] <= scores[b, i])
            rkl_vals.append(bad / (len(pos) * len(neg)))
        if pos:
            rk = ranks(scores[:, i])
            cvg_vals.append(max(rk[j] for j in pos) - 1)
            per = []
            for cnt, c in enumerate(sorted(pos, key=lambda j: rk[j]), start=1):
                per.append(cnt / rk[c])
            ap_vals.append(sum(per) / len(per))
    for j in range(l):
        pos = [i for i in range(p) if truth[j, i] == 1]
        neg = [i for i in range(p) if truth[j, i] == -1]
        if pos and neg:
            good = sum(1 for a in pos for b in neg if scores[j, a] >= scores[j, b])
            auc_vals.append(good / (len(pos) * len(neg)))
    return rkl_vals, auc_vals, cvg_vals, ap_vals


def test_criterion_07_metrics_match_brute_force_oracle_exactly():
    # 1000 random distinct-score cases match the oracle with equality,
    # plus the frozen tie cases
    rng = np.random.default_rng(10)
    metrics = (ranking_loss, average_auc, coverage, average_precision)
    checked = 0
    for _ in range(1000):
        l = int(rng.integers(2, 7))
        p = int(rng.integers(1, 7))
        scores = rng.standard_normal((l, p))
        assert all(np.unique(scores[:, i]).size == l for i in range(p))
        truth = rng.choice([-1, 0, 1], size=(l, p))
        for metric, vals in zip(metrics, oracle_metric_lists(scores, truth)):
            if not vals:
                with pytest.raises(UndefinedMetricError):
                    metric(scores, truth)
            else:
                assert metric(scores, truth) == sum(vals) / len(vals)
                checked += 1
    assert checked > 2000

    # tie handling: equal scores hurt ranking loss, help auc, and
    # coverage/precision break ties by label index
    truth = np.array([[1], [1], [-1]])
    assert ranking_loss(np.zeros((3, 1)), truth) == 1.0
    assert average_auc(np.zeros((1, 4)), np.array([[1, 1, -1, -1]])) == 1.0
    assert coverage(np.array([[0.5], [0.5], [0.1]]), np.array([[-1], [1], [-1]])) == 1.0
    assert average_precision(
        np.array([[0.9], [0.5], [0.2]]), np.array([[1], [-1], [1]])
    ) == pytest.approx(5 / 6, abs=1e-15)


def test_criterion_08_correlation_terms_help_recover_hidden_labels():
    # over 10 seeds of the criterion-2 setup, the best of a small fixed
    # lambda3 = lambda4 grid beats or ties the correlation-free variant
    # on hidden-entry ranking loss for >= 8 seeds, with mean hidden
    # auc >= 0.80.  pilot (frozen 2026-08-16): 9/10 wins, mean auc
    # 0.9171, baseline rkl range 0.065..0.140
    grid = (0.1, 0.5, 1.0)
    wins = 0
    aucs = []
    for seed in range(10):
        _, masked, hidden, partition = planted_problem(seed)
        truth = np.zeros((masked.l, masked.n), dtype=np.int8)
        for j, i, v in hidden:
            truth[j, i] = v

        def hidden_rkl_auc(lam34):
            hp = Hyperparams(
                k=3, lambda_=1.0, lambda2=0.01, lambda3=lam34, lambda4=lam34,
                inner_steps=5, outer_iters=50, warm_iters=20, tol=1e-5, seed=seed,
            )
            model, _ = fit(masked, partition, hp)
            S = model_score(model, masked.features)
            return ranking_loss(S, truth), average_auc(S, truth)

        base_rkl, _ = hidden_rkl_auc(0.0)
        best_rkl, best_auc = min(hidden_rkl_auc(lam) for lam in grid)
        wins += best_rkl <= base_rkl
        aucs.append(best_auc)
    mean_auc = float(np.mean(aucs))
    assert wins >= 8, f"correlation terms won on only {wins}/10 seeds"
    assert mean_auc >= 0.80, f"mean hidden-entry auc {mean_auc:.4f}"


def test_criterion_09_fit_without_correlation_equals_warm_start_bitwise():
    # lambda3 = lambda4 = 0 with matched budgets: identical U, V, W
    _, masked, _, partition = planted_problem(3)
    hp_fit = Hyperparams(
        k=3, lambda3=0.0, lambda4=0.0, warm_iters=5, outer_iters=7, tol=0.0, seed=3
    )
    model, _ = fit(masked, partition, hp_fit)
    hp_warm = Hyperparams(
        k=3, lambda3=0.0, lambda4=0.0, warm_iters=12, outer_iters=1, tol=0.0, seed=3
    )
    reference = warm_start(make_context(masked, partition, hp_warm))
    assert np.array_equal(model.U, reference.U)
    assert np.array_equal(model.V, reference.V)
    assert np.array_equal(model.W, reference.W)


@pytest.mark.skipif(
    not os.environ.get("GLOCAL_IMAGE_DATASET"),
    reason="set GLOCAL_IMAGE_DATASET to the Image dataset GML file",
)
def test_criterion_10_image_dataset_full_label_benchmark():
    # optional real-data benchmark: 60/40 split, 5-fold CV over the
    # documented grid, full labels; rkl/auc/ap within 0.02 of the
    # reference operating point (0.179, 0.819, 0.795)
    from glocal.data import load_gml

    data = load_gml(os.environ["GLOCAL_IMAGE_DATASET"])
    train, test = split(data, 0.6, seed=0)

    axes = {
        "k": (3, 4),
        "g": (4, 8),
        "lambda3": (0.01, 0.1, 1.0),
        "lambda4": (0.01, 0.1, 1.0),
    }
    _, _, g, hp = grid_search(train, Hyperparams(k=3, seed=0), axes, 1)
    part = kmeans(train.features, g, seed=0)
    model, _ = fit(train, part, hp)
    S = model_score(model, test.features)
    truth = test.labels.values
    rkl = ranking_loss(S, truth)
    auc = average_auc(S, truth)
    ap = average_precision(S, truth)
    assert abs(rkl - 0.179) <= 0.02, f"rkl {rkl:.4f}"
    assert abs(auc - 0.819) <= 0.02, f"auc {auc:.4f}"
    assert abs(ap - 0.795) <= 0.02, f"ap {ap:.4f}"
