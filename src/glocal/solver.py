"""Alternating minimization for the glocal objective.

The training objective over U (l x k), V (k x n), W (d x k) and one
unit-row factor Z_m per instance group is

    || J o (Y - U V) ||_F^2
  + lambda  * || V - W' X ||_F^2
  + lambda2 * (||U||_F^2 + ||V||_F^2 + ||W||_F^2)
  + sum_m [ (lambda3 * n_m / n) * tr(F0' Z_m Z_m' F0)
            + lambda4 * tr(F0_m' Z_m Z_m' F0_m) ]      s.t. diag(Z_m Z_m') = 1

with J the observation indicator, F0 = U W' X the classifier outputs on
all instances and F0_m its restriction to group m.  Each outer iteration
updates the blocks in the order Z_1..Z_g, V, U, W.  Z updates are
majorize-minimize steps: the restricted objective h(Z) = tr(Z'KZ),
K = PP' with P = U F_m' (below), is a PSD quadratic and tr(Z'Z) = l on
unit rows, so with L = lambda_max(K) the step Z <- rows of
Z - G / (2L) scaled to unit norm minimizes a majorizer of h and cannot
increase it (Hunter & Lange 2004).  The objective is exactly quadratic
in each of U, V and W, and each block is written once as a Hessian
action H and a right-hand side b (for Z_m, H(Z) = 2KZ and b = 0): the
gradient is H(x) - b, and U and W take exact line-minimizing gradient
steps of length ||G||^2 / <G, H(G)>, after which the gradient is
G - t H(G).  V solves H(V) = b per instance column while k <= 256 and
takes the same exact gradient steps above that.

Optimization starts from a warm start: the same alternating scheme with
lambda3 = lambda4 = 0 (no correlation terms), after which randomly
initialized unit-row factors are attached.  No l x l or n x n
intermediate is formed, and the correlation terms never form F0.  X
enters them through factors computed once per fit (make_context): per
group T_m with T_m'T_m = X_m X_m' and min(n_m, d) rows, X_m' itself or
its QR R factor when n_m > d, so XX' = sum_m T_m'T_m, and T0 with
T0'T0 = XX' and min(n, d) rows.  Group m contributes ||Z_m'P||^2 with
P = U F_m', where F_m'F_m = (lambda3 n_m / n) W'XX'W + lambda4 W'X_m X_m'W
and F_m has min(k, min(n, d) + min(n_m, d)) rows: the stack
[sqrt(lambda3 n_m / n) T0 W; sqrt(lambda4) T_m W], kept as it is when it
has fewer rows than k and compressed to its k x k QR R factor
otherwise.  The W Hessian action uses the T_m in place of X.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .clustering import _DIST_BLOCK_BYTES
from .correlation import init_factor, project_unit_rows
from .model import GlocalModel
from .textio import comment_lines

# above this latent dimension the per-column closed-form V solves get
# replaced by gradient steps
_CLOSED_FORM_MAX_K = 256


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed problem data shared by objective/gradient evaluations.

    T stacks one factor T_m per group with T_m'T_m = X_m X_m' and
    min(n_m, d) rows: X_m' itself when n_m <= d, else its QR R factor.
    The groups partition the instances, so T'T = XX'.  T0 is a factor
    of XX' with min(n, d) rows.
    """

    Y: np.ndarray  # l x n observed labels as float (-1, 0, +1)
    J: np.ndarray  # l x n observation indicator as float (0/1)
    X: np.ndarray  # d x n features
    groups: tuple  # g arrays of 0-based instance indices
    n: int
    hp: "Hyperparams"
    T: np.ndarray  # stacked T_m, sum_m min(n_m, d) x d
    T_rows: tuple  # g slices, the rows of T holding each T_m
    T0: np.ndarray  # min(n, d) x d


def _gram_factor(A):
    # T with T'T = A'A and min(rows, cols) rows
    return A if A.shape[0] <= A.shape[1] else np.linalg.qr(A, mode="r")


def make_context(dataset, partition, hp):
    """Bundle a dataset, a partition and hyperparams for the solver."""
    if partition.n != dataset.n:
        raise ValueError(
            f"partition covers {partition.n} instances, dataset has {dataset.n}"
        )
    X = dataset.features.values
    groups = tuple(partition.groups())
    Ts = [_gram_factor(X[:, idx].T) for idx in groups]
    T = np.vstack(Ts)
    ends = np.cumsum([len(Tm) for Tm in Ts])
    T_rows = tuple(slice(e - len(Tm), e) for e, Tm in zip(ends, Ts))
    return ObjectiveContext(
        Y=dataset.labels.values.astype(np.float64),
        J=dataset.labels.indicator,
        X=X,
        groups=groups,
        n=dataset.n,
        hp=hp,
        T=T,
        T_rows=T_rows,
        T0=_gram_factor(T),
    )


def _inner(A, B):
    return float(np.einsum("ij,ij->", A, B))


def _sumsq(A):
    return _inner(A, A)


def _has_correlation(hp):
    return hp.lambda3 != 0.0 or hp.lambda4 != 0.0


def _correlation_weights(W, ctx):
    # group m's weight on its correlation terms: F_m with
    # F_m'F_m = w3 W'XX'W + lambda4 W'X_m X_m'W, w3 = lambda3 n_m / n, and
    # at most k rows; the global part T0 W is compressed once for all groups
    hp = ctx.hp
    TW = ctx.T @ W
    R0 = _gram_factor(ctx.T0 @ W)
    return [
        _gram_factor(np.vstack((np.sqrt(hp.lambda3 * idx.size / ctx.n) * R0,
                                np.sqrt(hp.lambda4) * TW[rows])))
        for idx, rows in zip(ctx.groups, ctx.T_rows)
    ]


def _correlation_term(Z, P):
    # tr(Z'KZ), K = PP' with P = U F_m': one group's correlation terms
    # without F0
    return _sumsq(Z.T @ P)


def _objective_arrays(U, V, W, Zs, ctx):
    hp = ctx.hp
    with np.errstate(over="ignore", invalid="ignore"):
        R = ctx.J * (U @ V - ctx.Y)
        val = _sumsq(R)
        D = V - W.T @ ctx.X
        val += hp.lambda_ * _sumsq(D)
        val += hp.lambda2 * (_sumsq(U) + _sumsq(V) + _sumsq(W))
        if _has_correlation(hp):
            for Z, F in zip(Zs, _correlation_weights(W, ctx)):
                val += _correlation_term(Z, U @ F.T)
    return val


def objective(model, ctx):
    """Full objective value at the model's parameter blocks."""
    return _objective_arrays(model.U, model.V, model.W, model.factors, ctx)


# Each block is its Hessian action H and right-hand side b with the
# other blocks fixed, f(x) = 1/2 <x, H(x)> - <b, x> + const: the gradient
# is H(x) - b, the step t = ||G||^2 / <G, H(G)> along G is the line
# minimum and leaves the gradient G - t H(G) (Nocedal & Wright, ch. 5).
# Y is zero where J is, so J o Y = Y.  The correlation weights Fs (for U)
# and the factor grams Ms (for W) are None when lambda3 = lambda4 = 0.  X
# enters the W Hessian only through T, with T'T = XX', so it never forms
# the n x k X'G.


def _hess_U(G, V, Zs, Fs, ctx):
    H = 2.0 * ((ctx.J * (G @ V)) @ V.T) + 2.0 * ctx.hp.lambda2 * G
    if Fs is not None:
        for Z, F in zip(Zs, Fs):
            H += 2.0 * ((Z @ (Z.T @ (G @ F.T))) @ F)
    return H


def _rhs_U(V, ctx):
    return 2.0 * (ctx.Y @ V.T)


def _hess_V(U, G, ctx):
    hp = ctx.hp
    return 2.0 * (U.T @ (ctx.J * (U @ G))) + 2.0 * (hp.lambda_ + hp.lambda2) * G


def _rhs_V(U, W, ctx):
    return 2.0 * (U.T @ ctx.Y) + 2.0 * ctx.hp.lambda_ * (W.T @ ctx.X)


def _factor_grams(U, Zs):
    # M_m = (Z_m'U)'(Z_m'U), k x k; the W step keeps U and Z fixed
    return [A.T @ A for A in (Z.T @ U for Z in Zs)]


def _hess_W(G, Ms, ctx):
    # 2 sum_m T_m'((T_m G)(lambda I + Mbar + lambda4 M_m)) + 2 lambda2 G,
    # Mbar = sum_m (lambda3 n_m / n) M_m
    hp = ctx.hp
    P = ctx.T @ G
    R = hp.lambda_ * P
    if Ms is not None:
        Mbar = sum(hp.lambda3 * idx.size / ctx.n * M for idx, M in zip(ctx.groups, Ms))
        R += P @ Mbar
        for rows, M in zip(ctx.T_rows, Ms):
            R[rows] += hp.lambda4 * (P[rows] @ M)
    return 2.0 * (ctx.T.T @ R) + 2.0 * hp.lambda2 * G


def _rhs_W(V, ctx):
    return 2.0 * ctx.hp.lambda_ * (ctx.X @ V.T)


def _grad_Z(P, Z):
    # H(Z) of the restricted objective h(Z) = tr(Z'KZ), K = PP'; b = 0, so
    # also its gradient
    return 2.0 * P @ (P.T @ Z)


def gradients(model, ctx):
    """Analytic gradients of the full objective, each block's H(x) - b.

    Args:
        model: GlocalModel giving the evaluation point.
        ctx: ObjectiveContext.

    Returns:
        (G_U, G_V, G_W, G_Zs) where G_Zs is a tuple with one l x k
        gradient per group factor, taken without the unit-row
        constraint.
    """
    U, V, W, Zs = model.U, model.V, model.W, model.factors
    Fs = _correlation_weights(W, ctx)
    G_U = _hess_U(U, V, Zs, Fs, ctx) - _rhs_U(V, ctx)
    G_V = _hess_V(U, V, ctx) - _rhs_V(U, W, ctx)
    G_W = _hess_W(W, _factor_grams(U, Zs), ctx) - _rhs_W(V, ctx)
    G_Zs = tuple(_grad_Z(U @ F.T, Z) for Z, F in zip(Zs, Fs))
    return G_U, G_V, G_W, G_Zs


def _closed_form_V(U, W, ctx):
    # per column i: (U' Diag(j_i) U + (lambda+lambda2) I) v_i = b_i / 2,
    # with U' Diag(j_i) U = sum_a J[a, i] u_a u_a', solved a chunk of
    # instances at a time (see closed_form_V)
    hp = ctx.hp
    l, k = U.shape
    n = ctx.J.shape[1]
    outer = (U[:, :, None] * U[:, None, :]).reshape(l, k * k)
    B = 0.5 * _rhs_V(U, W, ctx)  # k x n
    V = np.empty((k, n))
    diag = np.arange(k)
    chunk = max(1, _DIST_BLOCK_BYTES // (8 * k * k))
    for start in range(0, n, chunk):
        cols = slice(start, start + chunk)
        A = (ctx.J[:, cols].T @ outer).reshape(-1, k, k)
        A[:, diag, diag] += hp.lambda_ + hp.lambda2
        V[:, cols] = np.linalg.solve(A, B[:, cols].T[:, :, None])[:, :, 0].T
        del A  # else it is alive while the next chunk's is built
    return V


def closed_form_V(model, ctx):
    """Exact minimizer of the objective in V with all other blocks fixed.

    One k x k system per instance, built and solved in instance chunks
    of at most _DIST_BLOCK_BYTES (8 MiB) of systems, so no n x k x k
    tensor is formed.  The l x k^2 table of outer products u_a u_a' is
    still formed whole.
    """
    return _closed_form_V(model.U, model.W, ctx)


def _exact_descent(x, hess, b, steps):
    # exact gradient steps on the block (H, b) = (hess, b); returns the
    # new block and the step lengths.  b and each hess(G) are freed once
    # used, so at most one of them is alive next to x and G
    G = hess(x)
    G -= b
    del b
    accepted = []
    for _ in range(steps):
        gnorm2 = _sumsq(G)
        if gnorm2 == 0.0:
            break
        HG = hess(G)
        curv = _inner(G, HG)
        if not curv > 0.0:
            break
        t = gnorm2 / curv
        x = x - t * G
        HG *= t
        G -= HG
        del HG
        accepted.append(t)
    return x, accepted


def _z_descend(U, F, Z0, steps):
    # majorize-minimize steps on h(Z) = tr(Z'KZ), K = PP' with P = U F':
    # with L = lambda_max(K), h(Z) - L tr(Z'Z) is concave and tr(Z'Z) = l
    # on unit rows, so there h lies below that part's tangent plus L l, and
    # Z - G / (2L) scaled to unit rows minimizes the bound.  K is never
    # formed: L is the top eigenvalue of the k x k P'P
    P = U @ F.T
    L = float(np.linalg.eigvalsh(P.T @ P)[-1])
    Z, G = Z0, _grad_Z(P, Z0)
    h_val = 0.5 * _inner(Z, G)
    accepted = []
    for _ in range(steps):
        if _sumsq(G) == 0.0 or not L > 0.0:
            break
        t = 0.5 / L
        cand = project_unit_rows(Z - t * G)
        G_new = _grad_Z(P, cand)
        h_new = 0.5 * _inner(cand, G_new)
        if h_new > h_val:  # only rounding can make h rise; stop there
            break
        Z, G, h_val = cand, G_new, h_new
        accepted.append(t)
    return Z, accepted


def _unit_row_error(Zs):
    err = 0.0
    for Z in Zs:
        err = max(err, float(np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max()))
    return err


def _sweep(U, V, W, Zs, ctx):
    # one outer iteration: Z_1..Z_g, then V, then U, then W
    hp = ctx.hp
    steps = {}
    Fs = _correlation_weights(W, ctx) if _has_correlation(hp) else None
    z_steps = []
    if Fs is not None:
        for m, F in enumerate(Fs):
            Zs[m], acc = _z_descend(U, F, Zs[m], hp.inner_steps)
            z_steps.extend(acc)
    steps["Z"] = tuple(z_steps)
    z_err = _unit_row_error(Zs)

    if hp.k <= _CLOSED_FORM_MAX_K:
        V = _closed_form_V(U, W, ctx)
        steps["V"] = ()
    else:
        V, acc = _exact_descent(
            V, lambda G: _hess_V(U, G, ctx), _rhs_V(U, W, ctx), hp.inner_steps
        )
        steps["V"] = tuple(acc)

    U, acc = _exact_descent(
        U, lambda G: _hess_U(G, V, Zs, Fs, ctx), _rhs_U(V, ctx), hp.inner_steps
    )
    steps["U"] = tuple(acc)

    Ms = None if Fs is None else _factor_grams(U, Zs)
    W, acc = _exact_descent(
        W, lambda G: _hess_W(G, Ms, ctx), _rhs_W(V, ctx), hp.inner_steps
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
        lines = comment_lines(comments)
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
    # no update writes a block in place, so the warm start's arrays are
    # taken as they are and each is freed once its block moves on
    start = warm_start(ctx)
    U, V, W, Zs = start.U, start.V, start.W, list(start.factors)
    del start

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
