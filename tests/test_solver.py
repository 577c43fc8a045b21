import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocal.clustering import kmeans, partition_from_assignment
from glocal.correlation import init_factor, project_unit_rows
from glocal.data import Dataset, FeatureMatrix, LabelMatrix, MaskSpec, apply_mask
from glocal.model import GlocalModel, Hyperparams
from glocal.solver import (
    _correlation_weights,
    _correlation_term,
    _factor_grams,
    _grad_Z,
    _hess_U,
    _hess_V,
    _hess_W,
    _rhs_V,
    _z_descend,
    closed_form_V,
    fit,
    gradients,
    make_context,
    objective,
    warm_start,
)


def build_problem(seed, l=5, n=12, d=4, g=2, rho=70, **hp_kwargs):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    full = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    data, _ = apply_mask(full, MaskSpec(rho=rho, seed=seed))
    partition = kmeans(data.features, g, seed=seed)
    hp = Hyperparams(**{"k": 3, "seed": seed, **hp_kwargs})
    return data, partition, make_context(data, partition, hp)


# Shapes on both sides of each choice the correlation algebra makes:
# group m's weight factor F_m stacks min(n, d) + min(n_m, d) rows, kept
# thin when that is below k and compressed to k x k otherwise, and T_m
# is X_m' for n_m <= d or an R factor for n_m > d.  Each case is
# (l, n, d, k, group labels, lambda3, lambda4, weight kind per group),
# "Q" for a thin factor (fewer rows than k) and "C" for a compressed one.
FACTOR_CASES = [
    (5, 12, 4, 3, "halves", 0.3, 0.2, "CC"),  # n_m > d
    (4, 12, 2, 6, "halves", 0.3, 0.2, "QQ"),  # n_m > d
    (4, 6, 8, 3, "halves", 0.5, 0.7, "CC"),  # n_m < d
    (4, 6, 8, 10, "halves", 0.5, 0.7, "QQ"),  # n_m < d
    (4, 6, 8, 10, "halves", 0.0, 0.7, "QQ"),  # lambda3 = 0
    (4, 12, 2, 6, "halves", 0.4, 0.0, "QQ"),  # lambda4 = 0
    (4, 6, 8, 3, "halves", 0.0, 0.7, "CC"),  # lambda3 = 0
    (5, 12, 4, 3, "halves", 0.4, 0.0, "CC"),  # lambda4 = 0
    (4, 5, 3, 5, "singletons", 0.3, 0.6, "QQQQQ"),
    (4, 5, 3, 3, "singletons", 0.3, 0.6, "CCCCC"),
    (4, 9, 4, 6, "one+rest", 0.3, 0.2, "QC"),
]


def factor_case(case, seed, **hp_kwargs):
    l, n, d, k, layout, lam3, lam4, kinds = case
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    Y = rng.choice([-1, 0, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    labels = {
        "halves": 1 + np.arange(n) % 2,
        "singletons": np.arange(1, n + 1),
        "one+rest": np.minimum(np.arange(1, n + 1), 2),
    }[layout]
    partition = partition_from_assignment(data.features, labels)
    hp = Hyperparams(k=k, lambda3=lam3, lambda4=lam4, seed=seed, **hp_kwargs)
    ctx = make_context(data, partition, hp)
    model = random_model(ctx, seed + 1)
    weights = _correlation_weights(model.W, ctx)
    assert "".join("Q" if len(F) < k else "C" for F in weights) == kinds
    return ctx, model


def random_model(ctx, seed):
    rng = np.random.default_rng(seed)
    l, n = ctx.Y.shape
    d, k = ctx.X.shape[0], ctx.hp.k
    return GlocalModel(
        U=rng.standard_normal((l, k)),
        V=rng.standard_normal((k, n)),
        W=rng.standard_normal((d, k)),
        factors=tuple(
            project_unit_rows(rng.standard_normal((l, k))) for _ in ctx.groups
        ),
    )


def naive_objective(model, ctx):
    # plain-loop rebuild of the training objective, dense correlation
    # matrices included
    hp = ctx.hp
    l, n = ctx.Y.shape
    P = model.U @ model.V
    total = 0.0
    for a in range(l):
        for i in range(n):
            if ctx.J[a, i]:
                total += (ctx.Y[a, i] - P[a, i]) ** 2
    Q = model.W.T @ ctx.X
    total += hp.lambda_ * float(((model.V - Q) ** 2).sum())
    total += hp.lambda2 * float(
        (model.U**2).sum() + (model.V**2).sum() + (model.W**2).sum()
    )
    F0 = model.U @ Q
    for m, idx in enumerate(ctx.groups):
        L = model.factors[m] @ model.factors[m].T
        total += hp.lambda3 * idx.size / ctx.n * float(np.trace(F0.T @ L @ F0))
        Fm = F0[:, idx]
        total += hp.lambda4 * float(np.trace(Fm.T @ L @ Fm))
    return total


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


def rel_err(got, want):
    denom = max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def test_objective_of_zero_model_counts_observed_entries():
    data, partition, ctx = build_problem(0, rho=50)
    k = ctx.hp.k
    zero = GlocalModel(
        U=np.zeros((data.l, k)),
        V=np.zeros((k, data.n)),
        W=np.zeros((data.d, k)),
        factors=tuple(init_factor(data.l, k, m) for m in range(2)),
    )
    observed = int(ctx.J.sum())
    assert objective(zero, ctx) == float(observed)


def test_objective_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        lam = tuple(10.0 ** rng.uniform(-2, 1, size=4))
        _, _, ctx = build_problem(
            100 + trial,
            lambda_=lam[0],
            lambda2=lam[1],
            lambda3=lam[2],
            lambda4=lam[3],
        )
        model = random_model(ctx, 200 + trial)
        got = objective(model, ctx)
        want = naive_objective(model, ctx)
        assert got == pytest.approx(want, rel=1e-10)


def check_gradients(model, ctx):
    G_U, G_V, G_W, G_Zs = gradients(model, ctx)

    def at(U=None, V=None, W=None, Zs=None):
        return GlocalModel(
            U=model.U if U is None else U,
            V=model.V if V is None else V,
            W=model.W if W is None else W,
            factors=model.factors if Zs is None else tuple(Zs),
        )

    assert rel_err(G_U, fd_gradient(lambda U: objective(at(U=U), ctx), model.U)) < 1e-6
    assert rel_err(G_V, fd_gradient(lambda V: objective(at(V=V), ctx), model.V)) < 1e-6
    assert rel_err(G_W, fd_gradient(lambda W: objective(at(W=W), ctx), model.W)) < 1e-6
    for m in range(len(ctx.groups)):
        def obj_z(Z, m=m):
            Zs = list(model.factors)
            Zs[m] = Z
            return objective(at(Zs=Zs), ctx)

        assert rel_err(G_Zs[m], fd_gradient(obj_z, model.factors[m])) < 1e-6


def test_gradients_match_finite_differences():
    _, _, ctx = build_problem(
        2, lambda_=0.7, lambda2=0.05, lambda3=0.3, lambda4=0.2
    )
    check_gradients(random_model(ctx, 3), ctx)
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 900 + trial, lambda_=0.7, lambda2=0.05)
        check_gradients(model, ctx)


def block_quadratic_error(model, ctx, rng, trial):
    # along any direction G, f(x - t G) = f(x) - t <grad f(x), G> + t^2 q(G)
    # for each of U, V and W, with q(G) = <G, H(G)> / 2 from the block's
    # Hessian action H; the exact step ||G||^2 / (2 q(G)) along the
    # gradient is therefore the line minimum.  Returns the worst relative
    # error of q(G) against the objective's central second difference
    U, V, W, Zs = model.U, model.V, model.W, model.factors
    Cs = _correlation_weights(W, ctx)
    Ms = _factor_grams(U, Zs)
    hessians = {
        "U": lambda G: _hess_U(G, V, Zs, Cs, ctx),
        "V": lambda G: _hess_V(U, G, ctx),
        "W": lambda G: _hess_W(G, Ms, ctx),
    }
    grads = dict(zip("UVW", gradients(model, ctx)[:3]))
    f0 = objective(model, ctx)

    def f_at(name, block):
        return objective(dataclasses.replace(model, **{name: block}), ctx)

    worst = 0.0
    for name, hess in hessians.items():
        def quad(G, hess=hess):
            return 0.5 * float((G * hess(G)).sum())

        x = getattr(model, name)
        G = rng.standard_normal(x.shape)
        second = (f_at(name, x + G) + f_at(name, x - G) - 2.0 * f0) / 2.0
        worst = max(worst, abs(quad(G) - second) / abs(second))

        G = grads[name]
        t_star = float((G**2).sum()) / (2.0 * quad(G))
        f_star = f_at(name, x - t_star * G)
        for s in (0.5, 2.0):
            assert f_star <= f_at(name, x - s * t_star * G), (trial, name, s)
    return worst


def test_block_quadratic_forms_match_objective_second_differences():
    rng = np.random.default_rng(19)
    worst = 0.0
    for trial in range(20):
        lam = tuple(10.0 ** rng.uniform(-2, 1, size=4))
        _, _, ctx = build_problem(
            700 + trial,
            lambda_=lam[0],
            lambda2=lam[1],
            lambda3=lam[2],
            lambda4=lam[3],
        )
        model = random_model(ctx, 800 + trial)
        worst = max(worst, block_quadratic_error(model, ctx, rng, trial))
    for trial, case in enumerate(FACTOR_CASES, start=20):
        ctx, model = factor_case(case, 1000 + trial, lambda2=0.05)
        worst = max(worst, block_quadratic_error(model, ctx, rng, trial))
    assert worst < 1e-8, f"worst relative error of q(G) {worst:.3e}"


def test_closed_form_v_identity_cases():
    rng = np.random.default_rng(4)
    n, d = 5, 2
    # fully observed labels, U = I, no coupling, no ridge: V is Y itself
    Y = rng.choice([-1, 1], size=(3, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    part = partition_from_assignment(data.features, np.ones(n, dtype=int))
    ctx = make_context(data, part, Hyperparams(k=3, lambda_=0.0, lambda2=0.0))
    model = GlocalModel(
        U=np.eye(3),
        V=np.zeros((3, n)),
        W=np.zeros((d, 3)),
        factors=(init_factor(3, 3, 0),),
    )
    assert np.array_equal(closed_form_V(model, ctx), Y.astype(np.float64))

    # nothing observed, unit coupling, no ridge: V is W'X itself
    data0 = Dataset(
        FeatureMatrix(rng.standard_normal((d, n))),
        LabelMatrix(np.zeros((2, n), dtype=np.int8)),
    )
    part0 = partition_from_assignment(data0.features, np.ones(n, dtype=int))
    ctx0 = make_context(data0, part0, Hyperparams(k=2, lambda_=1.0, lambda2=0.0))
    W = rng.standard_normal((d, 2))
    model0 = GlocalModel(
        U=rng.standard_normal((2, 2)),
        V=np.zeros((2, n)),
        W=W,
        factors=(init_factor(2, 2, 0),),
    )
    assert np.array_equal(closed_form_V(model0, ctx0), W.T @ data0.features.values)


def test_closed_form_v_is_stationary():
    for trial in range(10):
        _, _, ctx = build_problem(300 + trial, lambda3=0.2, lambda4=0.2)
        model = random_model(ctx, 400 + trial)
        V_star = closed_form_V(model, ctx)
        at_opt = GlocalModel(U=model.U, V=V_star, W=model.W, factors=model.factors)
        G_V = gradients(at_opt, ctx)[1]
        assert np.linalg.norm(G_V) <= 1e-8 * (1.0 + np.linalg.norm(V_star))
        # and it really is a minimizer, not just a critical point
        assert objective(at_opt, ctx) <= objective(model, ctx) + 1e-12


def test_closed_form_v_singular_system_raises():
    rng = np.random.default_rng(5)
    n = 4
    data = Dataset(
        FeatureMatrix(rng.standard_normal((2, n))),
        LabelMatrix(np.zeros((2, n), dtype=np.int8)),
    )
    part = partition_from_assignment(data.features, np.ones(n, dtype=int))
    ctx = make_context(data, part, Hyperparams(k=2, lambda_=0.0, lambda2=0.0))
    model = random_model(ctx, 6)
    with pytest.raises(np.linalg.LinAlgError):
        closed_form_V(model, ctx)


def test_closed_form_v_runs_in_bounded_memory_and_matches_one_solve():
    import tracemalloc

    _, _, ctx = build_problem(19, l=20, n=1000, d=6, g=1, k=64)
    model = random_model(ctx, 20)
    tracemalloc.start()
    try:
        V = closed_form_V(model, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-piece system tensor alone is n k^2 float64 values, 33 MB
    assert peak < 16 << 20
    U, hp = model.U, ctx.hp
    l, k = U.shape
    outer = (U[:, :, None] * U[:, None, :]).reshape(l, k * k)
    A = (ctx.J.T @ outer).reshape(-1, k, k)
    A[:, np.arange(k), np.arange(k)] += hp.lambda_ + hp.lambda2
    B = 0.5 * _rhs_V(U, model.W, ctx).T
    want = np.linalg.solve(A, B[:, :, None])[:, :, 0].T
    assert V.tobytes() == np.ascontiguousarray(want).tobytes()


def test_z_step_keeps_unit_rows_and_never_increases():
    for trial in range(5):
        _, _, ctx = build_problem(500 + trial, lambda3=1.0, lambda4=0.5)
        model = random_model(ctx, 600 + trial)
        f_before = objective(model, ctx)
        for m in range(len(ctx.groups)):
            Z_new = _z_descend(
                model.U, _correlation_weights(model.W, ctx)[m], model.factors[m], 3
            )[0]
            rows = np.einsum("ij,ij->i", Z_new, Z_new)
            assert np.abs(rows - 1.0).max() < 1e-12
            Zs = list(model.factors)
            Zs[m] = Z_new
            moved = GlocalModel(
                U=model.U, V=model.V, W=model.W, factors=tuple(Zs)
            )
            assert objective(moved, ctx) <= f_before + 1e-12 * (1.0 + abs(f_before))


def check_mm_step(model, ctx):
    # one step maps Z to the unit rows of Z - K Z / L, with K the dense
    # l x l matrix of group m's correlation terms, tr(Z'KZ), built from
    # F0 = U W'X as the objective defines them, and L = lambda_max(K)
    hp = ctx.hp
    F0 = model.U @ model.W.T @ ctx.X
    Fs = _correlation_weights(model.W, ctx)
    for m, idx in enumerate(ctx.groups):
        Fm = F0[:, idx]
        K = hp.lambda3 * idx.size / ctx.n * F0 @ F0.T + hp.lambda4 * Fm @ Fm.T
        L = np.linalg.eigvalsh(K)[-1]
        Z = model.factors[m]
        want = project_unit_rows(Z - K @ Z / L)
        got = _z_descend(model.U, Fs[m], Z, 1)[0]
        assert not np.array_equal(got, Z)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # the step's h(Z) = <Z, H(Z)> / 2 is the objective's group term
        P = model.U @ Fs[m].T
        h = 0.5 * float((Z * _grad_Z(P, Z)).sum())
        assert h == pytest.approx(_correlation_term(Z, P), rel=1e-12)


def test_z_step_is_the_majorize_minimize_step():
    cases = [
        (dict(l=5, n=12, d=4, k=3), 1.0, 0.5, False),
        (dict(l=4, n=10, d=6, k=7), 0.3, 2.0, False),  # k > l
        (dict(l=6, n=8, d=2, k=4), 0.7, 0.0, True),  # singular C_m, k > d
        (dict(l=3, n=6, d=3, k=5), 0.0, 1.5, True),  # rank-1 C_m, k > l
    ]
    for trial, (shape, lam3, lam4, singletons) in enumerate(cases * 3):
        rng = np.random.default_rng(700 + trial)
        l, n, d, k = shape["l"], shape["n"], shape["d"], shape["k"]
        X = rng.standard_normal((d, n))
        Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
        data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
        labels = np.arange(1, n + 1) if singletons else 1 + np.arange(n) % 2
        partition = partition_from_assignment(data.features, labels)
        hp = Hyperparams(k=k, lambda3=lam3, lambda4=lam4, seed=trial)
        ctx = make_context(data, partition, hp)
        check_mm_step(random_model(ctx, 800 + trial), ctx)
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 1100 + trial)
        check_mm_step(model, ctx)


def test_cached_factors_reproduce_the_feature_grams():
    # T_m'T_m = X_m X_m' with min(n_m, d) rows, T'T = sum_m T_m'T_m = XX',
    # and T0'T0 = XX' with min(n, d) rows
    cases = FACTOR_CASES + [(6, 40, 5, 3, "halves", 0.1, 0.1, "CC")]
    for trial, case in enumerate(cases):
        ctx, _ = factor_case(case, 1200 + trial)
        X, d = ctx.X, ctx.X.shape[0]
        XXt = X @ X.T
        for idx, rows in zip(ctx.groups, ctx.T_rows):
            Tm = ctx.T[rows]
            assert Tm.shape == (min(idx.size, d), d)
            Xm = X[:, idx]
            assert rel_err(Tm.T @ Tm, Xm @ Xm.T) <= 1e-12
        assert rel_err(ctx.T.T @ ctx.T, XXt) <= 1e-12
        assert ctx.T0.shape == (min(ctx.n, d), d)
        assert rel_err(ctx.T0.T @ ctx.T0, XXt) <= 1e-12


def test_weight_factors_reproduce_the_dense_weights():
    # F_m'F_m = w3 W'XX'W + lambda4 W'X_m X_m'W, w3 = lambda3 n_m / n,
    # with min(k, min(n, d) + min(n_m, d)) rows, thin or compressed
    cases = FACTOR_CASES + [
        (6, 40, 5, 3, "halves", 0.0, 0.1, "CC"),  # lambda3 = 0, compressed
        (6, 40, 5, 3, "halves", 0.1, 0.0, "CC"),  # lambda4 = 0, compressed
    ]
    for trial, case in enumerate(cases):
        ctx, model = factor_case(case, 1300 + trial)
        hp, W, X, d = ctx.hp, model.W, ctx.X, ctx.X.shape[0]
        for idx, F in zip(ctx.groups, _correlation_weights(W, ctx)):
            Xm = X[:, idx]
            want = (hp.lambda3 * idx.size / ctx.n * W.T @ X @ X.T @ W
                    + hp.lambda4 * W.T @ Xm @ Xm.T @ W)
            assert rel_err(F.T @ F, want) <= 1e-12, (trial, case)
            assert F.shape == (min(hp.k, min(ctx.n, d) + min(idx.size, d)), hp.k)


def test_z_step_is_identity_without_correlation_terms():
    _, _, ctx = build_problem(7, lambda3=0.0, lambda4=0.0)
    model = random_model(ctx, 8)
    for m in range(len(ctx.groups)):
        Z = _z_descend(
            model.U, _correlation_weights(model.W, ctx)[m], model.factors[m], 5
        )[0]
        assert np.array_equal(Z, model.factors[m])


def test_warm_start_heavy_ridge_shrinks_blocks():
    rng = np.random.default_rng(9)
    n, d, l = 20, 4, 5
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    part = partition_from_assignment(data.features, np.ones(n, dtype=int))
    hp = Hyperparams(k=2, lambda2=1e6, warm_iters=10, seed=1)
    model = warm_start(make_context(data, part, hp))
    assert np.linalg.norm(model.U) < 0.05
    assert np.linalg.norm(model.W) < 0.05
    assert np.linalg.norm(model.V) < 0.05


def test_warm_start_recovers_planted_low_rank_labels():
    rng = np.random.default_rng(10)
    n, l = 30, 6
    rows = np.array([[1] * 15 + [-1] * 15, [1] * 8 + [-1] * 22])
    Y = np.vstack(
        [rows[i % 2] * (1 if i < 4 else -1) for i in range(l)]
    ).astype(np.int8)
    assert np.linalg.matrix_rank(Y.astype(np.float64)) == 2
    data = Dataset(FeatureMatrix(rng.standard_normal((3, n))), LabelMatrix(Y))
    part = partition_from_assignment(data.features, np.ones(n, dtype=int))
    hp = Hyperparams(k=2, lambda_=0.0, lambda2=0.0, warm_iters=80, seed=3)
    model = warm_start(make_context(data, part, hp))
    assert np.abs(model.U @ model.V - Y).max() < 1e-6


def test_warm_start_leaves_factors_at_their_seeded_init():
    _, _, ctx = build_problem(11, lambda3=0.7, lambda4=0.7)
    model = warm_start(ctx)
    l, k = model.U.shape
    for m, Z in enumerate(model.factors):
        assert np.array_equal(Z, init_factor(l, k, ctx.hp.seed + m + 1))


def test_fit_descends_monotonically_with_correlation_terms():
    data, partition, _ = build_problem(12)
    hp = Hyperparams(
        k=3, lambda3=0.5, lambda4=0.5, outer_iters=15, warm_iters=5, tol=0.0, seed=12
    )
    model, trace = fit(data, partition, hp)
    objs = trace.objectives
    assert trace.records[0].iteration == 0
    assert len(trace.records) == 16
    assert not trace.converged
    diffs = objs[1:] - objs[:-1]
    assert (diffs <= 1e-9 * np.maximum(1.0, np.abs(objs[:-1]))).all()
    for r in trace.records:
        assert r.z_unit_error <= 1e-12
    assert model.g == partition.g


@settings(derandomize=True, max_examples=16, deadline=None)
@given(
    shape=st.tuples(st.integers(3, 6), st.integers(6, 15), st.integers(2, 4)),
    k=st.one_of(st.integers(1, 4), st.integers(257, 300)),  # both V paths
    singletons=st.booleans(),
    unobserved_rows=st.integers(1, 2),
    lam2=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_invariants_on_degenerate_inputs(shape, k, singletons, unobserved_rows,
                                             lam2, seed):
    # label rows with no observed entry, optionally one group per
    # instance and no ridge.  The objective never increases, factor rows
    # stay unit-norm and a rerun is bitwise equal
    l, n, d = shape
    rng = np.random.default_rng(seed)
    Y = rng.choice([-1, 0, 1], size=(l, n)).astype(np.int8)
    Y[rng.choice(l, size=unobserved_rows, replace=False)] = 0
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    if singletons:
        partition = partition_from_assignment(data.features, np.arange(1, n + 1))
    else:
        partition = kmeans(data.features, 2, seed=seed)
    lam3, lam4 = 10.0 ** rng.uniform(-2, 0.5, size=2)
    hp = Hyperparams(
        k=k, lambda2=lam2, lambda3=lam3, lambda4=lam4,
        warm_iters=3, outer_iters=10, tol=0.0, seed=seed,
    )
    m1, t1 = fit(data, partition, hp)
    m2, t2 = fit(data, partition, hp)

    objs = t1.objectives
    assert np.isfinite(objs).all()
    rises = objs[1:] - objs[:-1]
    assert (rises <= 1e-9 * np.abs(objs[:-1])).all(), rises.max()
    assert max(r.z_unit_error for r in t1.records) <= 1e-12
    for Z in m1.factors:
        assert np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max() <= 1e-12
    assert m1.g == partition.g

    for a, b in zip((m1.U, m1.V, m1.W, *m1.factors), (m2.U, m2.V, m2.W, *m2.factors)):
        assert np.array_equal(a, b)
    assert np.array_equal(t1.objectives, t2.objectives)


def test_fit_stops_on_relative_tolerance():
    data, partition, _ = build_problem(13)
    hp = Hyperparams(k=3, outer_iters=200, warm_iters=5, tol=1e-3, seed=13)
    _, trace = fit(data, partition, hp)
    assert trace.converged
    assert trace.total_iterations < 200
    objs = trace.objectives
    rel = (objs[-2] - objs[-1]) / max(objs[-2], 1e-30)
    assert rel < 1e-3


def test_fit_is_deterministic():
    data, partition, _ = build_problem(14)
    hp = Hyperparams(k=2, lambda3=0.3, lambda4=0.3, outer_iters=5, warm_iters=3, seed=14)
    m1, t1 = fit(data, partition, hp)
    m2, t2 = fit(data, partition, hp)
    assert np.array_equal(m1.U, m2.U)
    assert np.array_equal(m1.V, m2.V)
    assert np.array_equal(m1.W, m2.W)
    for Za, Zb in zip(m1.factors, m2.factors):
        assert np.array_equal(Za, Zb)
    assert np.array_equal(t1.objectives, t2.objectives)


def test_fit_without_correlation_matches_longer_warm_start():
    data, partition, _ = build_problem(15)
    hp = Hyperparams(
        k=3, lambda3=0.0, lambda4=0.0, warm_iters=3, outer_iters=4, tol=0.0, seed=15
    )
    model, _ = fit(data, partition, hp)
    reference = warm_start(
        make_context(
            data,
            partition,
            Hyperparams(k=3, lambda3=0.0, lambda4=0.0, warm_iters=7, seed=15),
        )
    )
    assert np.array_equal(model.U, reference.U)
    assert np.array_equal(model.V, reference.V)
    assert np.array_equal(model.W, reference.W)


def test_fit_with_latent_dimension_above_closed_form_cutoff():
    rng = np.random.default_rng(16)
    n, d, l = 8, 3, 4
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    partition = partition_from_assignment(data.features, np.ones(n, dtype=int))
    hp = Hyperparams(
        k=300, lambda3=0.1, lambda4=0.1, warm_iters=2, outer_iters=3, tol=0.0, seed=16
    )
    model, trace = fit(data, partition, hp)
    objs = trace.objectives
    assert np.isfinite(objs).all()
    assert (objs[1:] <= objs[:-1] + 1e-9 * np.maximum(1.0, objs[:-1])).all()
    # the V block was updated by accepted gradient steps, not the solve
    assert len(trace.records[1].steps["V"]) > 0


def test_trace_csv_layout():
    data, partition, _ = build_problem(17)
    hp = Hyperparams(k=2, outer_iters=3, warm_iters=2, tol=0.0, seed=17)
    _, trace = fit(data, partition, hp)
    text = trace.to_csv(comments=["seed 17"])
    lines = text.splitlines()
    assert lines[0] == "# seed 17"
    assert lines[1] == "iter,objective"
    assert lines[2].startswith("0,")
    assert len(lines) == 2 + len(trace.records)
    assert float(lines[-1].split(",")[1]) == trace.objectives[-1]


def test_make_context_rejects_mismatched_partition():
    data, _, _ = build_problem(18)
    other = partition_from_assignment(
        FeatureMatrix(np.zeros((2, data.n + 1))), np.ones(data.n + 1, dtype=int)
    )
    with pytest.raises(ValueError, match="partition covers"):
        make_context(data, other, Hyperparams(k=2))
