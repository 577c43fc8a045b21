import dataclasses
import io
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocal import solver
from glocal.clustering import Partition, kmeans
from glocal.correlation import init_factor, project_unit_rows
from glocal.data import (
    Dataset,
    FeatureMatrix,
    LabelMatrix,
    apply_mask,
    take_instances,
)
from glocal.metrics import ranking_loss
from glocal.model import GlocalModel, Hyperparams, load_model, save_model, score
from glocal.solver import (
    _block_dot,
    _cg,
    _column_dot,
    _correlation_weights,
    _correlation_term,
    _factor_grams,
    _grad_Z,
    _hess_U,
    _hess_V,
    _hess_W,
    _objective_arrays,
    _rhs_U,
    _rhs_V,
    _rhs_W,
    _sumsq,
    _z_descend,
    closed_form_V,
    fit,
    gradients,
    grid_search,
    make_context,
    objective,
    warm_start,
)
from test_acceptance import block_rel_err, fd_gradient, planted_problem


def build_problem(seed, l=5, n=12, d=4, g=2, rho=70, **hp_kwargs):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    full = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    data = apply_mask(full, rho=rho, seed=seed)
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
    g, labels = {
        "halves": (2, 1 + np.arange(n) % 2),
        "singletons": (n, np.arange(1, n + 1)),
        "one+rest": (2, np.minimum(np.arange(1, n + 1), 2)),
    }[layout]
    partition = Partition(g, labels)
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

    assert block_rel_err(G_U, fd_gradient(lambda U: objective(at(U=U), ctx), model.U)) < 1e-6
    assert block_rel_err(G_V, fd_gradient(lambda V: objective(at(V=V), ctx), model.V)) < 1e-6
    assert block_rel_err(G_W, fd_gradient(lambda W: objective(at(W=W), ctx), model.W)) < 1e-6
    for m in range(len(ctx.groups)):
        def obj_z(Z, m=m):
            Zs = list(model.factors)
            Zs[m] = Z
            return objective(at(Zs=Zs), ctx)

        assert block_rel_err(G_Zs[m], fd_gradient(obj_z, model.factors[m])) < 1e-6


def test_objective_and_gradients_refuse_a_model_of_another_group_count():
    # one factor per group: zip would drop the groups or factors left over
    _, _, ctx = build_problem(0, g=3)
    model = random_model(ctx, 1)
    for factors in (model.factors[:2], model.factors + model.factors[:1]):
        other = dataclasses.replace(model, factors=factors)
        for probe in (objective, gradients):
            with pytest.raises(ValueError,
                               match=f"^model has {len(factors)} factors, context has 3 groups$"):
                probe(other, ctx)


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
    grams = _factor_grams(U, Zs, Cs, ctx)
    hessians = {
        "U": lambda G: _hess_U(G, V, Zs, Cs, ctx),
        "V": lambda G: _hess_V(U, G, ctx),
        "W": lambda G: _hess_W(G, grams, ctx),
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
    part = Partition(1, np.ones(n, dtype=int))
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
    part0 = Partition(1, np.ones(n, dtype=int))
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


def test_closed_form_v_keeps_a_column_with_nothing_to_solve():
    # nothing observed and lambda = lambda2 = 0: every column's system is
    # H = 0, b = 0, which any V solves, so V comes back as it was
    rng = np.random.default_rng(5)
    n = 4
    data = Dataset(
        FeatureMatrix(rng.standard_normal((2, n))),
        LabelMatrix(np.zeros((2, n), dtype=np.int8)),
    )
    part = Partition(1, np.ones(n, dtype=int))
    ctx = make_context(data, part, Hyperparams(k=2, lambda_=0.0, lambda2=0.0))
    model = random_model(ctx, 6)
    assert np.array_equal(closed_form_V(model, ctx), model.V)


def solve_V(U, W, ctx):
    # V's exact minimizer by one batched dense solve: per column i,
    # (U' Diag(j_i) U + (lambda + lambda2) I) v_i = b_i / 2
    hp = ctx.hp
    l, k = U.shape
    outer = (U[:, :, None] * U[:, None, :]).reshape(l, k * k)
    A = (ctx.J.T.astype(np.float64) @ outer).reshape(-1, k, k)
    A[:, np.arange(k), np.arange(k)] += hp.lambda_ + hp.lambda2
    B = 0.5 * _rhs_V(U, W, ctx).T
    return np.linalg.solve(A, B[:, :, None])[:, :, 0].T


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
    assert block_rel_err(V, solve_V(model.U, model.W, ctx)) <= 1e-12


def test_closed_form_v_matches_the_per_column_solve_for_small_k():
    # k conjugate-gradient steps per column solve each k x k system
    for k in range(1, 9):
        for trial in range(3):
            _, _, ctx = build_problem(1400 + 10 * k + trial, l=6, n=30, d=4, k=k,
                                      lambda3=0.2, lambda4=0.2)
            model = random_model(ctx, 1500 + 10 * k + trial)
            err = block_rel_err(closed_form_V(model, ctx), solve_V(model.U, model.W, ctx))
            assert err <= 1e-10, (k, trial, err)


def dense_block_solve(hess, b):
    # the block's minimizer from its Hessian as a dense matrix, one column
    # per unit direction
    size = b.size
    H = np.column_stack([hess(e.reshape(b.shape)).ravel() for e in np.eye(size)])
    return np.linalg.solve(H, b.ravel()).reshape(b.shape)


def block_systems(model, ctx):
    # each block's (Hessian action, right-hand side) with the others fixed
    U, V, W, Zs = model.U, model.V, model.W, model.factors
    Fs = _correlation_weights(W, ctx)
    grams = _factor_grams(U, Zs, Fs, ctx)
    return {
        "U": (lambda G: _hess_U(G, V, Zs, Fs, ctx), lambda: _rhs_U(V, ctx)),
        "W": (lambda G: _hess_W(G, grams, ctx), lambda: _rhs_W(V, ctx)),
    }


def test_whole_block_cg_solves_u_and_w_exactly():
    # in exact arithmetic as many steps as the block has entries reach the
    # dense solve; rounding erodes conjugacy, so twice as many are taken
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 1600 + trial, lambda2=0.05)
        for name, (hess, rhs) in block_systems(model, ctx).items():
            x0 = getattr(model, name)
            got, _ = _cg(x0, hess, rhs(), 2 * x0.size, _block_dot)
            err = block_rel_err(got, dense_block_solve(hess, rhs()))
            assert err <= 1e-10, (trial, name, err)


def quadratic(x, hess, b, dot):
    # 1/2 <x, H(x)> - <b, x>, per system as dot splits them
    return 0.5 * dot(x, hess(x)) - dot(b, x)


def test_no_cg_step_raises_the_block_objective():
    # step s of _cg(..., s + 1, ...) extends _cg(..., s, ...); each one is
    # a line minimum, so no system's quadratic rises, V's columns one by one
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 1700 + trial, lambda2=0.05)
        U, V, W = model.U, model.V, model.W
        systems = {name: (*hb, _block_dot) for name, hb in block_systems(model, ctx).items()}
        systems["V"] = (lambda G: _hess_V(U, G, ctx), lambda: _rhs_V(U, W, ctx), _column_dot)
        for name, (hess, rhs, dot) in systems.items():
            x0, b = getattr(model, name), rhs()
            values = [quadratic(_cg(x0, hess, rhs(), s, dot)[0], hess, b, dot)
                      for s in range(x0.shape[0] + 3)]
            for before, after in zip(values, values[1:]):
                assert np.all(after <= before + 1e-12 * np.abs(before)), (trial, name)


def test_a_sweep_solves_v_exactly_when_k_is_at_most_inner_steps():
    for k in range(1, 6):
        _, _, ctx = build_problem(1800 + k, l=6, n=30, d=4, k=k, lambda3=0.3, lambda4=0.3)
        assert k <= ctx.hp.inner_steps
        model = random_model(ctx, 1900 + k)
        blocks = [model.U, model.V, model.W, list(model.factors)]
        solver._sweep(blocks, _correlation_weights(model.W, ctx), ctx)
        # Z steps do not move U or W, so V's system is the one at the model
        err = block_rel_err(blocks[1], solve_V(model.U, model.W, ctx))
        assert err <= 1e-10, (k, err)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4)),
    k=st.integers(1, 8),  # above l and n too
    lam=st.sampled_from([0.0, 1.0]),
    lam2=st.sampled_from([0.0, 0.01]),
    lam34=st.sampled_from([0.0, 0.3]),
    blank=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_sweep_never_raises_the_objective(shape, k, lam, lam2, lam34, blank, seed):
    # an instance with no observed label, no ridge, no correlation terms
    # and k above l or n included
    l, n, d = shape
    rng = np.random.default_rng(seed)
    Y = rng.choice([-1, 0, 1], size=(l, n)).astype(np.int8)
    if blank:
        Y[:, 0] = 0
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    part = Partition(min(n, 2), 1 + np.arange(n) % 2)
    hp = Hyperparams(k=k, lambda_=lam, lambda2=lam2, lambda3=lam34, lambda4=lam34, seed=seed)
    ctx = make_context(data, part, hp)
    model = random_model(ctx, seed)
    blocks = [model.U, model.V, model.W, list(model.factors)]
    f0 = _objective_arrays(*blocks, solver._weights(model.W, ctx), ctx)
    solver._sweep(blocks, solver._weights(model.W, ctx), ctx)
    f1 = _objective_arrays(*blocks, solver._weights(blocks[2], ctx), ctx)
    assert f1 <= f0 + 1e-12 * abs(f0), (f0, f1)


# Reference expressions with the labels and the mask as float64 arrays,
# J * (U V - Y) and friends, which the int8 Y and bool J must reproduce.


def float_labels(ctx):
    return ctx.Y.astype(np.float64), ctx.J.astype(np.float64)


def float_label_objective(U, V, W, Zs, ctx):
    Y, J = float_labels(ctx)
    hp = ctx.hp
    R = J * (U @ V - Y)
    val = _sumsq(R)
    val += hp.lambda_ * _sumsq(V - W.T @ ctx.X)
    val += hp.lambda2 * (_sumsq(U) + _sumsq(V) + _sumsq(W))
    for Z, F in zip(Zs, _correlation_weights(W, ctx)):
        val += _correlation_term(Z, U @ F.T)
    return val


def float_label_hess_U(G, V, Zs, Fs, ctx):
    _, J = float_labels(ctx)
    H = 2.0 * ((J * (G @ V)) @ V.T) + 2.0 * ctx.hp.lambda2 * G
    for Z, F in zip(Zs, Fs):
        H += 2.0 * ((Z @ (Z.T @ (G @ F.T))) @ F)
    return H


def float_label_hess_V(U, G, ctx):
    _, J = float_labels(ctx)
    hp = ctx.hp
    return 2.0 * (U.T @ (J * (U @ G))) + 2.0 * (hp.lambda_ + hp.lambda2) * G


def same_bytes(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("dot", [_block_dot, _column_dot], ids=["whole", "chunked"])
def test_masked_products_equal_the_float_label_ones_byte_for_byte(dot):
    # an int8 Y and a bool J change no bit of any result, signed zeros
    # included, nor of the conjugate-gradient V update built from them,
    # with V one system (whole) or one system per instance column (chunked)
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 1200 + trial, lambda2=0.05)
        assert ctx.Y.dtype == np.int8 and ctx.J.dtype == np.bool_
        U, V, W, Zs = model.U, model.V, model.W, model.factors
        Fs = _correlation_weights(W, ctx)
        Y, _ = float_labels(ctx)
        rng = np.random.default_rng(trial)
        assert same_bytes(_objective_arrays(U, V, W, Zs, Fs, ctx),
                          float_label_objective(U, V, W, Zs, ctx))
        for G in (U, rng.standard_normal(U.shape)):
            assert same_bytes(_hess_U(G, V, Zs, Fs, ctx), float_label_hess_U(G, V, Zs, Fs, ctx))
        for G in (V, rng.standard_normal(V.shape)):
            assert same_bytes(_hess_V(U, G, ctx), float_label_hess_V(U, G, ctx))
        assert same_bytes(_rhs_U(V, ctx), 2.0 * (Y @ V.T))
        float_rhs_V = 2.0 * (U.T @ Y) + 2.0 * ctx.hp.lambda_ * (W.T @ ctx.X)
        assert same_bytes(_rhs_V(U, W, ctx), float_rhs_V)
        k = U.shape[1]
        got = _cg(V, lambda G: _hess_V(U, G, ctx), _rhs_V(U, W, ctx), k, dot)
        want = _cg(V, lambda G: float_label_hess_V(U, G, ctx), float_rhs_V, k, dot)
        assert got[1] == want[1]
        assert same_bytes(got[0], want[0])


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


def test_z_step_keeps_a_row_its_step_zeroes():
    # P = U F' = e_1 gives K = e_1 e_1' and L = 1, so the first candidate
    # Z - KZ / L has row 0 exactly 0: every unit row minimizes the
    # majorizer there, and the step keeps the old one
    U, F = np.array([[1.0], [0.0]]), np.array([[1.0]])
    Z0 = np.array([[1.0], [1.0]])
    P = U @ F.T
    assert not (Z0 - P @ (P.T @ Z0)).any(axis=1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, steps = _z_descend(U, F, Z0, 3)
    assert len(steps) == 3
    assert same_bytes(Z, Z0)
    assert np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max() <= 1e-12
    assert _correlation_term(Z, P) <= _correlation_term(Z0, P)


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
        g = n if singletons else 2
        partition = Partition(g, 1 + np.arange(n) % g)
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
            assert block_rel_err(Tm.T @ Tm, Xm @ Xm.T) <= 1e-12
        assert block_rel_err(ctx.T.T @ ctx.T, XXt) <= 1e-12
        assert ctx.T0.shape == (min(ctx.n, d), d)
        assert block_rel_err(ctx.T0.T @ ctx.T0, XXt) <= 1e-12


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
            assert block_rel_err(F.T @ F, want) <= 1e-12, (trial, case)
            assert F.shape == (min(hp.k, min(ctx.n, d) + min(idx.size, d)), hp.k)


def test_w_hessian_matches_its_dense_formula():
    # H(G) = 2(lambda XX'G + sum_m (w3 XX'G + lambda4 X_m X_m'G) M_m
    # + lambda2 G), w3 = lambda3 n_m / n, with M_m = (Z_m'U)'(Z_m'U)
    # formed here from X and the factors, so the T_m are checked too
    for trial, case in enumerate(FACTOR_CASES):
        ctx, model = factor_case(case, 1400 + trial, lambda_=0.7, lambda2=0.05)
        hp, X, U, Zs = ctx.hp, ctx.X, model.U, model.factors
        G = np.random.default_rng(trial).standard_normal(model.W.shape)
        Ns = _factor_grams(U, Zs, _correlation_weights(model.W, ctx), ctx)
        XXG = X @ X.T @ G
        want = hp.lambda_ * XXG + hp.lambda2 * G
        for idx, Z in zip(ctx.groups, Zs):
            Xm = X[:, idx]
            M = (Z.T @ U).T @ (Z.T @ U)
            want += (hp.lambda3 * idx.size / ctx.n * XXG + hp.lambda4 * Xm @ Xm.T @ G) @ M
        err = block_rel_err(_hess_W(G, Ns, ctx), 2.0 * want)
        assert err <= 1e-12, (trial, case, err)


def test_z_step_is_identity_without_correlation_terms():
    # a sweep handed no correlation weights takes no Z step and leaves each
    # factor as it was, whatever lambda3 and lambda4 the context holds
    # (the warm start's sweeps); its U, V and W are those of the sweep in
    # a context with lambda3 = lambda4 = 0
    _, _, plain = build_problem(7, lambda3=0.0, lambda4=0.0)
    ctx = dataclasses.replace(plain, hp=dataclasses.replace(plain.hp, lambda3=0.4, lambda4=0.6))
    model = random_model(ctx, 8)
    assert solver._weights(model.W, plain) == ()
    swept = []
    for c in (plain, ctx):
        blocks = [model.U, model.V, model.W, list(model.factors)]
        steps, _ = solver._sweep(blocks, (), c)
        assert steps["Z"] == ()
        assert all(Z is Z0 for Z, Z0 in zip(blocks[3], model.factors))
        swept.append(blocks[:3])
    for A, B in zip(*swept):
        assert same_bytes(A, B)


@pytest.mark.parametrize("lam3, lam4", [(0.3, 0.2), (0.0, 0.4), (0.5, 0.0), (0.0, 0.0)])
def test_fit_makes_each_ws_correlation_weights_once(monkeypatch, lam3, lam4):
    # at the warm-start point and after each W step, none when
    # lambda3 = lambda4 = 0, the warm start included
    data, partition, _ = build_problem(21)
    hp = Hyperparams(k=3, lambda3=lam3, lambda4=lam4, warm_iters=3, outer_iters=4,
                     tol=0.0, seed=21)
    weights = solver._correlation_weights
    seen = []

    def counting(W, ctx):
        seen.append(W)
        return weights(W, ctx)

    monkeypatch.setattr(solver, "_correlation_weights", counting)
    model, trace = fit(data, partition, hp)
    assert trace.total_iterations == hp.outer_iters
    if lam3 or lam4:
        assert len(seen) == 1 + hp.outer_iters
        assert seen[-1] is model.W
    else:
        assert seen == []


def test_warm_start_heavy_ridge_shrinks_blocks():
    rng = np.random.default_rng(9)
    n, d, l = 20, 4, 5
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    part = Partition(1, np.ones(n, dtype=int))
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
    part = Partition(1, np.ones(n, dtype=int))
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
    k=st.one_of(st.integers(1, 4), st.integers(257, 300)),  # V exact and not
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
        partition = Partition(n, np.arange(1, n + 1))
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


# every lambda from 0 through a subnormal to near overflow
_LAMBDAS = st.sampled_from([0.0, 5e-324, 1e-8, 1.0, 1e8, 1e300])


@st.composite
def hyperparams_domain(draw):
    # a tiny problem, labels from {-1, 0, +1} (whole unobserved label rows
    # occur), a group count g in 1..n and Hyperparams over their whole
    # valid domain: k above l and n, inner_steps far above k
    l, n, d = draw(st.integers(2, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    g = draw(st.integers(1, n))
    k = draw(st.integers(1, 12))
    hp = Hyperparams(
        k=k,
        lambda_=draw(_LAMBDAS),
        lambda2=draw(_LAMBDAS),
        lambda3=draw(_LAMBDAS),
        lambda4=draw(_LAMBDAS),
        inner_steps=draw(st.integers(1, 3 * k + 40)),
        outer_iters=draw(st.integers(1, 5)),
        warm_iters=draw(st.integers(0, 3)),
        tol=draw(st.sampled_from([0.0, 1e-5, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rng = np.random.default_rng(hp.seed)
    Y = rng.choice([-1, 0, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    return data, g, hp


def model_blocks(model):
    return (model.U, model.V, model.W, *model.factors)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hyperparams_domain())
def test_fit_keeps_its_promises_over_the_hyperparameter_domain(problem):
    # fit returns or raises ValueError, and warns of nothing; a fit that
    # returns has a finite trace, unit factor rows, reruns bit for bit and
    # round-trips through the model file bit-exactly.  Non-increase is not
    # asserted here: with lambda2 = 0 nothing bounds the scale of U against
    # V, and at huge lambdas a W step can then raise the objective
    data, g, hp = problem
    partition = Partition(g, 1 + np.arange(data.n) % g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m1, t1 = fit(data, partition, hp)
        except ValueError:
            return
        m2, t2 = fit(data, partition, hp)
    assert np.isfinite(t1.objectives).all()
    for Z in m1.factors:
        assert np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max() <= 1e-12
    assert all(same_bytes(a, b) for a, b in zip(model_blocks(m1), model_blocks(m2)))
    assert same_bytes(t1.objectives, t2.objectives)
    text = io.StringIO()
    save_model(m1, text)
    text.seek(0)
    loaded = model_blocks(load_model(text))
    assert len(loaded) == len(model_blocks(m1))
    assert all(same_bytes(a, b) for a, b in zip(loaded, model_blocks(m1)))


def test_fit_on_all_zero_features_takes_no_z_step():
    # with X = 0 every correlation weight F_m is 0, so P = U F_m' = 0 and
    # each Z step stops at zero curvature before its first step
    data, partition, _ = build_problem(19)
    zero = Dataset(FeatureMatrix(np.zeros((data.d, data.n))), data.labels)
    hp = Hyperparams(k=3, lambda3=0.1, lambda4=0.1, warm_iters=2, outer_iters=5,
                     tol=0.0, seed=19)
    model, trace = fit(zero, partition, hp)
    assert trace.total_iterations == hp.outer_iters
    assert all(r.steps["Z"] == () for r in trace.records[1:])
    for m, Z in enumerate(model.factors):
        assert np.array_equal(Z, init_factor(data.l, hp.k, hp.seed + m + 1))
    objs = trace.objectives
    assert (objs[1:] <= objs[:-1]).all()


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


def test_fit_with_a_latent_dimension_far_above_the_data_shape():
    rng = np.random.default_rng(16)
    n, d, l = 8, 3, 4
    Y = rng.choice([-1, 1], size=(l, n)).astype(np.int8)
    data = Dataset(FeatureMatrix(rng.standard_normal((d, n))), LabelMatrix(Y))
    partition = Partition(1, np.ones(n, dtype=int))
    hp = Hyperparams(
        k=300, lambda3=0.1, lambda4=0.1, warm_iters=2, outer_iters=3, tol=0.0, seed=16
    )
    model, trace = fit(data, partition, hp)
    objs = trace.objectives
    assert np.isfinite(objs).all()
    assert (objs[1:] <= objs[:-1] + 1e-9 * np.maximum(1.0, objs[:-1])).all()
    # V takes conjugate-gradient steps at any k
    assert len(trace.records[1].steps["V"]) > 0


def test_fit_refuses_a_non_finite_objective_after_a_sweep(monkeypatch):
    # a sweep whose blocks stay finite but overflow the objective; without
    # the check the relative change reads -inf and the fit "converges"
    data, partition, _ = build_problem(16)
    hp = Hyperparams(k=2, warm_iters=1, outer_iters=3, seed=16)
    sweep = solver._sweep
    calls = []

    def overflowing(blocks, Fs, ctx):
        calls.append(None)
        out = sweep(blocks, Fs, ctx)
        if len(calls) > hp.warm_iters:
            blocks[0] = blocks[0] * 1e200  # U
        return out

    monkeypatch.setattr(solver, "_sweep", overflowing)
    with pytest.raises(ValueError, match="^objective is not finite after sweep 1$"):
        fit(data, partition, hp)


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
    other = Partition(1, np.ones(data.n + 1, dtype=int))
    with pytest.raises(ValueError, match="partition covers"):
        make_context(data, other, Hyperparams(k=2))


def grid_problem(n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, n))
    Y = np.where(rng.standard_normal((4, n)) > 0, 1, -1).astype(np.int8)
    hp = Hyperparams(k=2, outer_iters=3, warm_iters=2, seed=seed)
    return Dataset(FeatureMatrix(X), LabelMatrix(Y)), hp


def test_grid_search_groups_each_fold_once_per_g_and_matches_the_plain_protocol(
    monkeypatch,
):
    # the plain protocol cuts every fold and runs kmeans for every
    # combination; grid_search does so once per fold and once per (fold, g)
    data, hp = grid_problem()
    axes = {"lambda3": [0.0, 0.5], "g": [2, 3], "k": [1, 2]}
    perm = np.random.default_rng(0).permutation(data.n)
    folds = [np.sort(f) for f in np.array_split(perm, 5)]
    want = None
    for lam3, g, k in itertools.product(*axes.values()):
        combo_hp = dataclasses.replace(hp, lambda3=lam3, k=k)
        losses = []
        for f, val_idx in enumerate(folds):
            train_idx = np.sort(np.concatenate(folds[:f] + folds[f + 1:]))
            train = take_instances(data, train_idx)
            val = take_instances(data, val_idx)
            model, _ = fit(train, kmeans(train.features, g, 0), combo_hp)
            losses.append(ranking_loss(score(model, val.features), val.labels.values))
        mean = float(np.mean(losses))
        if want is None or mean < want[0]:
            want = (mean, {"lambda3": lam3, "g": g, "k": k}, g, combo_hp)

    calls = []

    def counting_kmeans(features, g, seed):
        calls.append((features.n, g))
        return kmeans(features, g, seed)

    monkeypatch.setattr(solver, "kmeans", counting_kmeans)
    got = grid_search(data, hp, axes, 1)
    assert calls == [(24, 2), (24, 3)] * 5  # once per (fold, g), not per combination
    assert got[0] == want[0]  # the same mean-loss bits
    assert got[1:] == want[1:]


def test_grid_search_restricts_a_fixed_partition_to_each_fold(monkeypatch):
    data, hp = grid_problem()
    hp = dataclasses.replace(hp, seed=4)  # hp.seed seeds the folds
    assign = np.arange(data.n) % 3 + 1
    partition = Partition(3, assign)
    perm = np.random.default_rng(4).permutation(data.n)
    folds = [np.sort(f) for f in np.array_split(perm, 5)]
    train_sides = [np.sort(np.concatenate(folds[:f] + folds[f + 1:])) for f in range(5)]
    seen = []

    def recording_fit(train, part, combo_hp):
        seen.append((train.features.values, part))
        return fit(train, part, combo_hp)

    def no_kmeans(*args):
        raise AssertionError("kmeans called under a fixed partition")

    monkeypatch.setattr(solver, "fit", recording_fit)
    monkeypatch.setattr(solver, "kmeans", no_kmeans)
    _, chosen, g, _ = grid_search(data, hp, {"lambda4": [0.0, 1.0]}, partition)
    assert g == 3 and set(chosen) == {"lambda4"}
    assert len(seen) == 10
    for (X, part), idx in zip(seen, [t for t in train_sides for _ in range(2)]):
        assert np.array_equal(X, data.features.values[:, idx])
        assert part.g == 3
        assert np.array_equal(part.assignment, assign[idx])

    # a fold that empties a group is degenerate, here for every combination
    lonely = Partition(2, np.r_[2, np.ones(data.n - 1, dtype=int)])
    with pytest.raises(ValueError, match="no grid combination"):
        grid_search(data, hp, {"lambda4": [0.0, 1.0]}, lonely)
    with pytest.raises(ValueError, match="cannot vary g"):
        grid_search(data, hp, {"g": [2, 3]}, partition)
    # a partition of another instance count is refused, longer or shorter
    for n in (data.n + 1, data.n - 1):
        other = Partition(3, np.arange(n) % 3 + 1)
        with pytest.raises(ValueError, match=f"partition covers {n} instances"):
            grid_search(data, hp, {"lambda4": [0.0, 1.0]}, other)
    # an axis with no values is refused, by name, before any fold is cut
    def no_folds(*args):
        raise AssertionError("a fold was cut")

    monkeypatch.setattr(solver, "take_instances", no_folds)
    for axes, name in (({"k": []}, "'k'"), ({"lambda4": [0.0], "g": []}, "'g'")):
        with pytest.raises(ValueError, match=f"^grid axis {name} has no values$"):
            grid_search(data, hp, axes, 2)
    # and so is an axis that is neither a Hyperparams field nor g
    with pytest.raises(ValueError,
                       match="^grid axis 'lambda' is not a Hyperparams field or 'g'$"):
        grid_search(data, hp, {"lambda": [1.0]}, 2)
    # and so is a combination that makes invalid Hyperparams, here a float k
    with pytest.raises(ValueError, match="^k must be an integer, got 2.0$"):
        grid_search(data, hp, {"k": [2.0]}, 1)
    # and so is a group count that is not an integer, on the axis or not
    for axes, groups in (({"g": [2.0]}, 1), ({"lambda4": [0.0]}, 2.0)):
        with pytest.raises(ValueError, match="^g must be an integer, got 2.0$"):
            grid_search(data, hp, axes, groups)
    # and so is one below 1, which would otherwise be skipped on every fold
    for axes, groups in (({"g": [0, 2]}, 1), ({"lambda4": [0.0]}, 0)):
        with pytest.raises(ValueError, match="^g must be >= 1$"):
            grid_search(data, hp, axes, groups)
    # one instance makes one fold
    one = Dataset(FeatureMatrix(data.features.values[:, :1]),
                  LabelMatrix(data.labels.values[:, :1]))
    with pytest.raises(ValueError, match="^grid search needs at least 2 instances$"):
        grid_search(one, hp, {"lambda4": [0.0]}, 1)


@pytest.mark.parametrize("tols", [[0.5, 0.0], [0.0, 0.5]])
def test_grid_search_breaks_a_tie_by_grid_order(tols):
    # tol cannot stop a fit of one outer sweep early, so both combinations
    # fit the same bits: on equal mean losses the first in grid order wins
    data, hp = grid_problem(seed=3)
    hp = dataclasses.replace(hp, outer_iters=1)
    alone = [grid_search(data, hp, {"tol": [tol]}, 2)[0] for tol in tols]
    assert alone[0] == alone[1]
    loss, chosen, g, got_hp = grid_search(data, hp, {"tol": tols}, 2)
    assert loss == alone[0]
    assert chosen == {"tol": tols[0]} and got_hp.tol == tols[0] and g == 2


def test_learned_correlation_term_vanishes_at_convergence():
    # the correlation prior is inert at convergence (ROADMAP item 5): the
    # Z steps find unit rows with P_m'Z_m = 0, P_m = U F_m', so a converged
    # fit's correlation term is ~0 and its objective that of the fit
    # without the term.  A change that breaks this changes the paper's
    # formulation as implemented here.
    _, masked, _, partition = planted_problem(0)
    hp = Hyperparams(k=3, lambda3=0.1, lambda4=0.1, tol=1e-5, outer_iters=400)
    model, trace = fit(masked, partition, hp)
    _, plain = fit(masked, partition, dataclasses.replace(hp, lambda3=0.0, lambda4=0.0))
    assert trace.converged and plain.converged

    Fs = _correlation_weights(model.W, make_context(masked, partition, hp))

    def term(Zs):
        return sum(_correlation_term(Z, model.U @ F.T) for Z, F in zip(Zs, Fs))

    # the factors fit starts from (see warm_start)
    start = [init_factor(masked.l, hp.k, hp.seed + m + 1) for m in range(partition.g)]
    assert term(model.factors) / term(start) < 1e-5
    f, f_plain = trace.objectives[-1], plain.objectives[-1]
    assert abs(f - f_plain) <= 1e-4 * f_plain
