"""Alternating minimization for the glocal objective.

The training objective over U (l x k), V (k x n), W (d x k) and one
unit-row factor Z_m per instance group is

    || J o (Y - U V) ||_F^2
  + lambda  * || V - W' X ||_F^2
  + lambda2 * (||U||_F^2 + ||V||_F^2 + ||W||_F^2)
  + sum_m [ (lambda3 * n_m / n) * tr(F0' Z_m Z_m' F0)
            + lambda4 * tr(F_m' Z_m Z_m' F_m) ]        s.t. diag(Z_m Z_m') = 1

with J the observation indicator, F0 = U W' X the classifier outputs on
all instances and F_m its restriction to group m.  Each outer iteration
updates the blocks in the order Z_1..Z_g, V, U, W.  Z updates are
projected gradient steps (rows rescaled to unit norm, a step is kept
only if the projected point does not increase the restricted
objective).  The objective is exactly quadratic in each of U, V and W,
so U and W take exact line-minimizing gradient steps: along the
gradient G the best step length is ||G||^2 / (2 q(G)), with q(G) the
block's quadratic form in G, evaluated analytically.  V is solved in
closed form per instance column while k <= 256 and takes the same
exact gradient steps above that.

Optimization starts from a warm start: the same alternating scheme with
lambda3 = lambda4 = 0 (no correlation terms), after which randomly
initialized unit-row factors are attached.  No l x l or n x n
intermediate is formed, and the correlation terms never form F0: with
the k x k matrices B0 = W'XX'W and B_m = W'X_m X_m'W, group m
contributes tr((Z_m'U) C_m (Z_m'U)') with
C_m = (lambda3 n_m / n) B0 + lambda4 B_m.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .correlation import init_factor, project_unit_rows
from .model import GlocalModel

# Z step search: initial step, shrink factor, and the number of
# halvings before a step is given up
_STEP0 = 1.0
_SHRINK = 0.5
_MAX_BACKTRACKS = 30

# above this latent dimension the per-column closed-form V solves get
# replaced by gradient steps
_CLOSED_FORM_MAX_K = 256


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed problem data shared by objective/gradient evaluations."""

    Y: np.ndarray  # l x n observed labels as float (-1, 0, +1)
    J: np.ndarray  # l x n observation indicator as float (0/1)
    X: np.ndarray  # d x n features
    groups: tuple  # g arrays of 0-based instance indices
    n: int
    hp: "Hyperparams"


def make_context(dataset, partition, hp):
    """Bundle a dataset, a partition and hyperparams for the solver."""
    if partition.n != dataset.n:
        raise ValueError(
            f"partition covers {partition.n} instances, dataset has {dataset.n}"
        )
    return ObjectiveContext(
        Y=dataset.labels.values.astype(np.float64),
        J=dataset.labels.indicator,
        X=dataset.features.values,
        groups=tuple(partition.groups()),
        n=dataset.n,
        hp=hp,
    )


def _sumsq(A):
    return float(np.einsum("ij,ij->", A, A))


def _has_correlation(hp):
    return hp.lambda3 != 0.0 or hp.lambda4 != 0.0


def _correlation_weights(W, ctx):
    # one k x k C_m = (lambda3 n_m / n) B0 + lambda4 B_m per group, with
    # B0 = W'XX'W and B_m = W'X_m X_m'W
    hp = ctx.hp
    XtW = ctx.X.T @ W
    B0 = XtW.T @ XtW
    Cs = []
    for idx in ctx.groups:
        P = XtW[idx]
        Cs.append(hp.lambda3 * idx.size / ctx.n * B0 + hp.lambda4 * (P.T @ P))
    return Cs


def _correlation_term(Z, U, C):
    # tr((Z'U) C (Z'U)'): one group's correlation terms without F0
    A = Z.T @ U
    return float(np.einsum("ij,ij->", A @ C, A))


def _objective_arrays(U, V, W, Zs, ctx):
    hp = ctx.hp
    with np.errstate(over="ignore", invalid="ignore"):
        R = ctx.J * (U @ V - ctx.Y)
        val = _sumsq(R)
        D = V - W.T @ ctx.X
        val += hp.lambda_ * _sumsq(D)
        val += hp.lambda2 * (_sumsq(U) + _sumsq(V) + _sumsq(W))
        if _has_correlation(hp):
            for Z, C in zip(Zs, _correlation_weights(W, ctx)):
                val += _correlation_term(Z, U, C)
    return val


def objective(model, ctx):
    """Full objective value at the model's parameter blocks."""
    return _objective_arrays(model.U, model.V, model.W, model.factors, ctx)


# Each block's gradient comes with q(G), the pure quadratic part of the
# objective along G with the other blocks fixed:
#   f(x - t G) = f(x) - t <grad f(x), G> + t^2 q(G).
# The correlation weights Cs (for U) and the factor grams Ms (for W) are
# None when lambda3 = lambda4 = 0.


def _grad_V(U, V, W, ctx):
    hp = ctx.hp
    E = ctx.J * (U @ V - ctx.Y)
    return 2.0 * (U.T @ E) + 2.0 * hp.lambda_ * (V - W.T @ ctx.X) + 2.0 * hp.lambda2 * V


def _quad_V(U, G, ctx):
    hp = ctx.hp
    return _sumsq(ctx.J * (U @ G)) + (hp.lambda_ + hp.lambda2) * _sumsq(G)


def _grad_U(U, V, Zs, Cs, ctx):
    E = ctx.J * (U @ V - ctx.Y)
    G = 2.0 * (E @ V.T) + 2.0 * ctx.hp.lambda2 * U
    if Cs is not None:
        for Z, C in zip(Zs, Cs):
            G += 2.0 * Z @ ((Z.T @ U) @ C)
    return G


def _quad_U(G, V, Zs, Cs, ctx):
    val = _sumsq(ctx.J * (G @ V)) + ctx.hp.lambda2 * _sumsq(G)
    if Cs is not None:
        for Z, C in zip(Zs, Cs):
            val += _correlation_term(Z, G, C)
    return val


def _factor_grams(U, Zs):
    # M_m = (Z_m'U)'(Z_m'U), k x k; the W step keeps U and Z fixed
    return [A.T @ A for A in (Z.T @ U for Z in Zs)]


def _correlation_rows(P, Ms, ctx):
    # for P = X'W (n x k), the n x k matrix T with <P, T> equal to the
    # correlation terms sum_m tr(M_m (w3_m P'P + lambda4 P_m'P_m)), whose
    # gradient in W is then 2 X T
    hp = ctx.hp
    Mbar = sum(hp.lambda3 * idx.size / ctx.n * M for idx, M in zip(ctx.groups, Ms))
    T = P @ Mbar
    for idx, M in zip(ctx.groups, Ms):
        T[idx] += hp.lambda4 * (P[idx] @ M)
    return T


def _grad_W(V, W, Ms, ctx):
    hp = ctx.hp
    P = ctx.X.T @ W
    R = hp.lambda_ * (P - V.T)
    if Ms is not None:
        R += _correlation_rows(P, Ms, ctx)
    return 2.0 * (ctx.X @ R) + 2.0 * hp.lambda2 * W


def _quad_W(G, Ms, ctx):
    hp = ctx.hp
    P = ctx.X.T @ G
    val = hp.lambda_ * _sumsq(P) + hp.lambda2 * _sumsq(G)
    if Ms is not None:
        val += float(np.einsum("ij,ij->", P, _correlation_rows(P, Ms, ctx)))
    return val


def _grad_Z(U, C, Z):
    # gradient of the unconstrained restricted objective at Z, with
    # C = (lambda3 n_m / n) B0 + lambda4 B_m
    return 2.0 * U @ (C @ (U.T @ Z))


def gradients(model, ctx):
    """Analytic gradients of the full objective.

    Args:
        model: GlocalModel giving the evaluation point.
        ctx: ObjectiveContext.

    Returns:
        (G_U, G_V, G_W, G_Zs) where G_Zs is a tuple with one l x k
        gradient per group factor, taken without the unit-row
        constraint.
    """
    U, V, W, Zs = model.U, model.V, model.W, model.factors
    Cs = _correlation_weights(W, ctx)
    G_U = _grad_U(U, V, Zs, Cs, ctx)
    G_V = _grad_V(U, V, W, ctx)
    G_W = _grad_W(V, W, _factor_grams(U, Zs), ctx)
    G_Zs = tuple(_grad_Z(U, C, Z) for Z, C in zip(Zs, Cs))
    return G_U, G_V, G_W, G_Zs


def _closed_form_V(U, W, ctx):
    hp = ctx.hp
    l, k = U.shape
    n = ctx.J.shape[1]
    # per column i: (U' Diag(j_i) U + (lambda+lambda2) I) v_i
    #             = lambda W'x_i + U' Diag(j_i) y_i,
    # all n systems at once: U' Diag(j_i) U = sum_a J[a, i] u_a u_a'
    outer = (U[:, :, None] * U[:, None, :]).reshape(l, k * k)
    A = (ctx.J.T @ outer).reshape(n, k, k)
    A[:, np.arange(k), np.arange(k)] += hp.lambda_ + hp.lambda2
    B = (hp.lambda_ * (W.T @ ctx.X) + U.T @ (ctx.J * ctx.Y)).T  # n x k
    sol = np.linalg.solve(A, B[:, :, None])[:, :, 0]
    return sol.T.copy()


def closed_form_V(model, ctx):
    """Exact minimizer of the objective in V with all other blocks fixed."""
    return _closed_form_V(model.U, model.W, ctx)


def _exact_descent(x, grad_fn, quad_fn, steps):
    # gradient steps of line-minimizing length on a block the objective
    # is quadratic in; returns the new block and the step lengths
    accepted = []
    for _ in range(steps):
        G = grad_fn(x)
        gnorm2 = _sumsq(G)
        if gnorm2 == 0.0:
            break
        q = quad_fn(G)
        if not q > 0.0:
            break
        t = gnorm2 / (2.0 * q)
        x = x - t * G
        accepted.append(t)
    return x, accepted


def _z_descend(U, C, Z0, steps):
    # projected gradient steps on the restricted objective
    #   h(Z) = tr((Z'U) C (Z'U)')
    # a step is kept only if the projected point does not increase h
    Z, h_val = Z0, _correlation_term(Z0, U, C)
    accepted = []
    for _ in range(steps):
        G = _grad_Z(U, C, Z)
        if _sumsq(G) == 0.0:
            break
        t = _STEP0
        ok = False
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = project_unit_rows(Z - t * G)
            h_new = _correlation_term(cand, U, C)
            if h_new <= h_val:
                Z, h_val, ok = cand, h_new, True
                accepted.append(t)
                break
            t *= _SHRINK
        if not ok:
            break
    return Z, accepted


def update_Z_step(model, ctx, m, steps=1):
    """Projected gradient update of group factor m, other blocks fixed.

    Returns the updated l x k factor; rows stay unit-norm and the
    restricted objective never increases.  With lambda3 = lambda4 = 0
    the gradient vanishes and the factor is returned unchanged.
    """
    C = _correlation_weights(model.W, ctx)[m]
    Z, _ = _z_descend(model.U, C, model.factors[m], steps)
    return Z


def _unit_row_error(Zs):
    err = 0.0
    for Z in Zs:
        err = max(err, float(np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max()))
    return err


def _sweep(U, V, W, Zs, ctx):
    # one outer iteration: Z_1..Z_g, then V, then U, then W
    hp = ctx.hp
    steps = {}
    Cs = _correlation_weights(W, ctx) if _has_correlation(hp) else None
    z_steps = []
    if Cs is not None:
        for m, C in enumerate(Cs):
            Zs[m], acc = _z_descend(U, C, Zs[m], hp.inner_steps)
            z_steps.extend(acc)
    steps["Z"] = tuple(z_steps)
    z_err = _unit_row_error(Zs)

    if hp.k <= _CLOSED_FORM_MAX_K:
        V = _closed_form_V(U, W, ctx)
        steps["V"] = ()
    else:
        V, acc = _exact_descent(
            V,
            lambda V_: _grad_V(U, V_, W, ctx),
            lambda G: _quad_V(U, G, ctx),
            hp.inner_steps,
        )
        steps["V"] = tuple(acc)

    U, acc = _exact_descent(
        U,
        lambda U_: _grad_U(U_, V, Zs, Cs, ctx),
        lambda G: _quad_U(G, V, Zs, Cs, ctx),
        hp.inner_steps,
    )
    steps["U"] = tuple(acc)

    Ms = None if Cs is None else _factor_grams(U, Zs)
    W, acc = _exact_descent(
        W,
        lambda W_: _grad_W(V, W_, Ms, ctx),
        lambda G: _quad_W(G, Ms, ctx),
        hp.inner_steps,
    )
    steps["W"] = tuple(acc)
    return U, V, W, Zs, steps, z_err


@dataclass(frozen=True)
class TraceRecord:
    """One outer iteration: objective, accepted steps, factor drift."""

    iteration: int
    objective: float
    steps: dict
    z_unit_error: float


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration records of a fit; record 0 is the warm-start point."""

    records: tuple
    converged: bool

    @property
    def objectives(self):
        return np.array([r.objective for r in self.records])

    @property
    def total_iterations(self):
        return self.records[-1].iteration

    def to_csv(self, comments=()):
        lines = [f"# {c}" for c in comments]
        lines.append("iter,objective")
        for r in self.records:
            lines.append(f"{r.iteration},{r.objective:.17g}")
        return "\n".join(lines) + "\n"


def warm_start(ctx):
    """Initial model: alternating minimization without correlation terms.

    U, V, W start from seeded gaussian noise and are refined for
    hp.warm_iters iterations of the usual block updates with
    lambda3 = lambda4 = 0.  Unit-row factors (seeded per group) are
    attached untouched, ready for the full objective.

    Args:
        ctx: ObjectiveContext carrying data and hyperparams.

    Returns:
        GlocalModel.
    """
    hp = ctx.hp
    l, n = ctx.Y.shape
    d = ctx.X.shape[0]
    k = hp.k
    rng = np.random.default_rng(hp.seed)
    scale = 1.0 / np.sqrt(k)
    U = rng.standard_normal((l, k)) * scale
    W = rng.standard_normal((d, k)) * scale
    V = rng.standard_normal((k, n)) * scale
    Zs = [init_factor(l, k, hp.seed + m + 1) for m in range(len(ctx.groups))]

    plain_hp = dataclasses.replace(hp, lambda3=0.0, lambda4=0.0)
    plain_ctx = dataclasses.replace(ctx, hp=plain_hp)
    for _ in range(hp.warm_iters):
        U, V, W, Zs, _, _ = _sweep(U, V, W, Zs, plain_ctx)
    return GlocalModel(U=U, V=V, W=W, factors=tuple(Zs))


def fit(dataset, partition, hp):
    """Train a model by warm start plus alternating minimization.

    Args:
        dataset: training Dataset (labels may be partially observed).
        partition: instance Partition defining the local groups.
        hp: Hyperparams.

    Returns:
        (GlocalModel, FitTrace).  The trace's objective sequence is
        non-increasing; iteration stops after hp.outer_iters sweeps or
        once the relative objective change drops below hp.tol.
    """
    ctx = make_context(dataset, partition, hp)
    start = warm_start(ctx)
    U, V, W = start.U.copy(), start.V.copy(), start.W.copy()
    Zs = [Z.copy() for Z in start.factors]

    f = _objective_arrays(U, V, W, Zs, ctx)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the warm-start point")
    records = [TraceRecord(0, f, {}, _unit_row_error(Zs))]
    converged = False
    for it in range(1, hp.outer_iters + 1):
        U, V, W, Zs, steps, z_err = _sweep(U, V, W, Zs, ctx)
        f_new = _objective_arrays(U, V, W, Zs, ctx)
        records.append(TraceRecord(it, f_new, steps, z_err))
        rel = (f - f_new) / max(f, 1e-30)
        f = f_new
        if rel < hp.tol:
            converged = True
            break
    model = GlocalModel(U=U, V=V, W=W, factors=tuple(Zs))
    return model, FitTrace(records=tuple(records), converged=converged)
