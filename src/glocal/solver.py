"""Alternating minimization for the glocal objective.

The training objective over U (l x k), V (k x n), W (d x k) and one
unit-row factor Z_m per instance group is

    || J o (Y - U V) ||_F^2
  + lambda  * || V - W' X ||_F^2
  + lambda2 * (||U||_F^2 + ||V||_F^2 + ||W||_F^2)
  + sum_m [ (lambda3 * n_m / n) * tr(F0' Z_m Z_m' F0)
            + lambda4 * tr(F0_m' Z_m Z_m' F0_m) ]      s.t. diag(Z_m Z_m') = 1

with J the observation indicator, F0 = U W' X the classifier outputs on
all instances and F0_m its restriction to group m.  The labels are held
once, as the dataset's int8 array Y and its bool mask J (make_context),
and every masked product is formed in place.  Each outer iteration
updates the blocks in the order Z_1..Z_g, V, U, W.  Z updates are
majorize-minimize steps: the restricted objective h(Z) = tr(Z'KZ),
K = PP' with P = U F_m' (below), is a PSD quadratic and tr(Z'Z) = l on
unit rows, so with L = lambda_max(K) the step Z <- rows of
Z - G / (2L) scaled to unit norm minimizes a majorizer of h and cannot
increase it (Hunter & Lange 2004); a row that Z - G / (2L) sends to 0
keeps its value, which minimizes the majorizer too.  The objective is
exactly quadratic in each of U, V and W, and each block is written once
as a Hessian action H and a right-hand side b (for Z_m, H(Z) = 2KZ and
b = 0): the gradient is H(x) - b, and every one of the three takes the
same linear conjugate-gradient steps on H(x) = b (_cg), each the exact
line minimum along a direction H-conjugate to the earlier ones.  U and
W are one system each; V is one k x k system per instance column, all
run side by side, so V is exact once it has taken k steps.

Optimization starts from a warm start: the same sweeps with no
correlation terms, after which randomly initialized unit-row factors
are attached.  A sweep is handed the correlation weights F_m (below) at
the W it starts from, one per group, and with an empty tuple it is the
sweep without the terms: the warm start's, and every sweep of a fit
with lambda3 = lambda4 = 0.  fit makes each W's weights once and hands
them to both the objective at that W and the next sweep.

No l x l or n x n intermediate is formed, and the correlation terms
never form F0.  X enters them through factors computed once per fit
(make_context): per group T_m with T_m'T_m = X_m X_m' and min(n_m, d)
rows, X_m' itself or its QR R factor when n_m > d, so
XX' = sum_m T_m'T_m, and T0 with T0'T0 = XX' and min(n, d) rows.
Group m contributes ||Z_m'P||^2 with
P = U F_m', where F_m'F_m = (lambda3 n_m / n) W'XX'W + lambda4 W'X_m X_m'W
and F_m has min(k, min(n, d) + min(n_m, d)) rows: the stack
[sqrt(lambda3 n_m / n) T0 W; sqrt(lambda4) T_m W], kept as it is when it
has fewer rows than k and compressed to its k x k QR R factor
otherwise.  The W Hessian action uses the T_m in place of X.

grid_search picks fit's hyperparameters and group count by 5-fold
cross-validation on ranking loss.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Partition, kmeans
from .correlation import init_factor
from .data import check_integer, take_instances
from .metrics import ranking_loss
from .model import GlocalModel, score
from .textio import comment_lines


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed problem data shared by objective/gradient evaluations.

    T stacks one factor T_m per group with T_m'T_m = X_m X_m' and
    min(n_m, d) rows: X_m' itself when n_m <= d, else its QR R factor.
    The groups partition the instances, so T'T = XX'.  T0 is a factor
    of XX' with min(n, d) rows.
    """

    Y: np.ndarray  # l x n int8 labels (-1, 0, +1): the dataset's own array
    J: np.ndarray  # l x n bool observation mask, Y != 0
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


def _require_cover(partition, dataset):
    if partition.n != dataset.n:
        raise ValueError(
            f"partition covers {partition.n} instances, dataset has {dataset.n}"
        )


def make_context(dataset, partition, hp):
    """Bundle a dataset, a partition and hyperparams for the solver.

    Y is the dataset's read-only int8 label array, not a copy, and J its
    read-only bool mask Y != 0 (LabelMatrix.indicator).  Masked products
    are made in place (R *= J); where labels are a matmul operand they
    are cast to float64 first, since a bool or int8 operand keeps numpy's
    matmul off BLAS.
    """
    _require_cover(partition, dataset)
    X = dataset.features.values
    d = X.shape[0]
    groups = tuple(partition.groups())
    # each T_m is written into its rows of T as it is made, so the stack
    # and the factors are never held side by side
    sizes = [min(idx.size, d) for idx in groups]
    ends = np.cumsum(sizes)
    T_rows = tuple(slice(e - size, e) for e, size in zip(ends, sizes))
    T = np.empty((ends[-1], d))
    for idx, rows in zip(groups, T_rows):
        T[rows] = _gram_factor(X[:, idx].T)
    return ObjectiveContext(
        Y=dataset.labels.values,
        J=dataset.labels.indicator,
        X=X,
        groups=groups,
        n=dataset.n,
        hp=hp,
        T=T,
        T_rows=T_rows,
        T0=_gram_factor(T),
    )


def _sumsq(A):
    return float(_block_dot(A, A))


def _global_weights(ctx):
    # w3 = lambda3 n_m / n, group m's weight on the global term
    return [ctx.hp.lambda3 * idx.size / ctx.n for idx in ctx.groups]


def _correlation_weights(W, ctx):
    # group m's weight on its correlation terms: F_m with
    # F_m'F_m = w3 W'XX'W + lambda4 W'X_m X_m'W and at most k rows; the
    # global part T0 W is compressed once for all groups
    TW = ctx.T @ W
    R0 = _gram_factor(ctx.T0 @ W)
    return tuple(
        _gram_factor(np.vstack((np.sqrt(w3) * R0, np.sqrt(ctx.hp.lambda4) * TW[rows])))
        for w3, rows in zip(_global_weights(ctx), ctx.T_rows)
    )


def _weights(W, ctx):
    # the correlation weights the fit uses, and no terms at all when
    # lambda3 = lambda4 = 0
    hp = ctx.hp
    return _correlation_weights(W, ctx) if hp.lambda3 or hp.lambda4 else ()


def _correlation_term(Z, P):
    # tr(Z'KZ), K = PP' with P = U F_m': one group's correlation terms
    # without F0
    return _sumsq(Z.T @ P)


def _objective_arrays(U, V, W, Zs, Fs, ctx):
    # Fs: the correlation weights at W (_weights), () for no terms
    hp = ctx.hp
    R = U @ V
    R -= ctx.Y
    R *= ctx.J
    val = _sumsq(R)
    del R
    D = W.T @ ctx.X
    np.subtract(V, D, out=D)
    val += hp.lambda_ * _sumsq(D)
    del D
    val += hp.lambda2 * (_sumsq(U) + _sumsq(V) + _sumsq(W))
    for Z, F in zip(Zs, Fs):
        val += _correlation_term(Z, U @ F.T)
    return val


def _require_factors(model, ctx):
    if model.g != len(ctx.groups):
        raise ValueError(
            f"model has {model.g} factors, context has {len(ctx.groups)} groups"
        )


def objective(model, ctx):
    """Full objective value at the model's parameter blocks."""
    _require_factors(model, ctx)
    Fs = _weights(model.W, ctx)
    return _objective_arrays(model.U, model.V, model.W, model.factors, Fs, ctx)


# Each block is its Hessian action H and right-hand side b with the
# other blocks fixed, f(x) = 1/2 <x, H(x)> - <b, x> + const: the gradient
# is H(x) - b, and _cg minimizes f by conjugate gradient on H(x) = b.
# Y is zero where J is, so J o Y = Y.  The correlation weights Fs (for U)
# and the k x k operators Ns made from them (for W) hold one entry per
# correlation term, none when lambda3 = lambda4 = 0.  X enters the W
# Hessian only through T, with T'T = XX', so it never forms the n x k X'G.
# Each action frees its masked l x n product (for W, its T-side products)
# before it scales its sum in place.


def _hess_U(G, V, Zs, Fs, ctx):
    A = G @ V
    A *= ctx.J
    H = A @ V.T
    del A
    H += ctx.hp.lambda2 * G
    for Z, F in zip(Zs, Fs):
        H += (Z @ (Z.T @ (G @ F.T))) @ F
    H *= 2.0
    return H


def _rhs_U(V, ctx):
    B = ctx.Y.astype(np.float64) @ V.T
    B *= 2.0
    return B


def _hess_V(U, G, ctx):
    hp = ctx.hp
    A = U @ G
    A *= ctx.J
    H = U.T @ A
    del A
    H *= 2.0
    H += 2.0 * (hp.lambda_ + hp.lambda2) * G
    return H


def _rhs_V(U, W, ctx):
    B = U.T @ ctx.Y.astype(np.float64)
    B *= 2.0
    C = W.T @ ctx.X
    C *= 2.0 * ctx.hp.lambda_
    B += C
    return B


def _factor_grams(U, Zs, Fs, ctx):
    # N_m = Mbar + lambda4 M_m, k x k, one per weight in Fs, from the grams
    # M_m = (Z_m'U)'(Z_m'U) and Mbar = sum_m w3 M_m, each N_m made in its
    # M_m's array; the W step keeps U and Z fixed, so each W update forms
    # them once
    Ms = [A.T @ A for A in (Z.T @ U for Z, _ in zip(Zs, Fs))]
    Mbar = sum(w3 * M for w3, M in zip(_global_weights(ctx), Ms))
    return [np.add(Mbar, ctx.hp.lambda4 * M, out=M) for M in Ms]


def _hess_W(G, Ns, ctx):
    # 2 sum_m T_m'((T_m G)(lambda I + N_m)) + 2 lambda2 G, from
    # Ns = _factor_grams(U, Zs, Fs, ctx)
    hp = ctx.hp
    P = ctx.T @ G
    R = hp.lambda_ * P
    for rows, N in zip(ctx.T_rows, Ns):
        R[rows] += P[rows] @ N
    del P
    H = ctx.T.T @ R
    del R
    H *= 2.0
    H += 2.0 * hp.lambda2 * G
    return H


def _rhs_W(V, ctx):
    B = ctx.X @ V.T
    B *= 2.0 * ctx.hp.lambda_
    return B


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
    _require_factors(model, ctx)
    U, V, W, Zs = model.U, model.V, model.W, model.factors
    Fs = _correlation_weights(W, ctx)
    G_U = _hess_U(U, V, Zs, Fs, ctx) - _rhs_U(V, ctx)
    G_V = _hess_V(U, V, ctx) - _rhs_V(U, W, ctx)
    G_W = _hess_W(W, _factor_grams(U, Zs, Fs, ctx), ctx) - _rhs_W(V, ctx)
    G_Zs = tuple(_grad_Z(U @ F.T, Z) for Z, F in zip(Zs, Fs))
    return G_U, G_V, G_W, G_Zs


def _block_dot(A, B):
    # one inner product for the whole block, a numpy scalar
    return np.einsum("ij,ij->", A, B)


def _column_dot(A, B):
    # one inner product per column: V's instance columns are independent
    # systems
    return np.einsum("ij,ij->j", A, B)


def _cg(x, hess, b, steps, dot):
    # linear conjugate gradient on the block (H, b) = (hess, b) from x, one
    # system per value dot returns (_block_dot: the whole block;
    # _column_dot: each of V's columns).  Each step is the exact line
    # minimum along a direction H-conjugate to the earlier ones, so a
    # system of m unknowns is solved in m steps in exact arithmetic
    # (Nocedal & Wright, ch. 5).  A system stops once its search direction
    # is 0 or a direction's curvature per unit length is within eps of the
    # largest it has seen: on a singular H rounding leaves residual in the
    # null space, and a step along it is long and amplifies that noise.
    # The direction is the residual itself whenever the residual is 0, and
    # past exactness it can shrink until its squared norm underflows to 0,
    # so testing it keeps every division by it defined.  A NaN curvature
    # does not stop a system, so an overflow reaches the block.  The
    # residual and direction are updated in place, the iterate never: x
    # is the caller's block and may be a model's (closed_form_V hands it
    # the model's V, _sweep the blocks it is given), so each step makes a
    # new one.  Returns the new block and each step's largest length
    R = b  # the residual b - H(x), made in b's own array
    R -= hess(x)
    P = R.copy()
    rr = dot(R, R)
    top = 0.0
    accepted = []
    for _ in range(steps):
        HP = hess(P)
        curv, pp = dot(P, HP), dot(P, P)
        live = (pp != 0.0) & ~(curv <= np.finfo(np.float64).eps * top * pp)
        if not live.any():
            break
        top = np.maximum(top, curv / np.where(live, pp, np.inf))
        alpha = rr / np.where(live, curv, np.inf)
        HP *= alpha
        R -= HP
        del HP
        step = alpha * P
        step += x
        x = step
        rr_new = dot(R, R)
        P *= rr_new / np.where(live, rr, np.inf)
        P += R
        rr = rr_new
        accepted.append(float(np.max(alpha)))
    return x, accepted


def closed_form_V(model, ctx):
    """Exact minimizer of the objective in V with all other blocks fixed.

    Each instance column of V is its own k x k system, and k steps of
    conjugate gradient per column (_cg), all columns in one vectorized
    pass from the model's V, solve it exactly in exact arithmetic.  In
    floating point the tests hold it to a direct per-column solve within
    a relative error of 1e-10 for k = 1..8 and 1e-12 at k = 64.  No k x k
    system is formed: it holds a few k x n arrays.  A column with
    nothing to solve (no label observed and lambda = lambda2 = 0) keeps
    the model's value.
    """
    U, W = model.U, model.W
    V, _ = _cg(model.V, lambda G: _hess_V(U, G, ctx), _rhs_V(U, W, ctx),
               U.shape[1], _column_dot)
    return V


def _z_descend(U, F, Z0, steps):
    # majorize-minimize steps on h(Z) = tr(Z'KZ), K = PP' with P = U F':
    # with L = lambda_max(K), h(Z) - L tr(Z'Z) is concave and tr(Z'Z) = l
    # on unit rows, so there h lies below that part's tangent plus L l, and
    # Z - G / (2L) scaled to unit rows minimizes the bound.  There the
    # bound is a sum over rows, each linear in its row with slope -2L times
    # that row of Z - G / (2L), so a row that the step sends to exactly 0
    # leaves every unit row a minimizer: it keeps its value.  K is never
    # formed: L is the top eigenvalue of P'P, r x r for the r <= k rows
    # of F
    P = U @ F.T
    L = float(np.linalg.eigvalsh(P.T @ P)[-1])
    Z, G = Z0, _grad_Z(P, Z0)
    h_val = 0.5 * _block_dot(Z, G)
    accepted = []
    for _ in range(steps):
        if _sumsq(G) == 0.0 or not L > 0.0:
            break
        t = 0.5 / L
        cand = t * G
        np.subtract(Z, cand, out=cand)
        norms = np.linalg.norm(cand, axis=1)[:, None]
        np.divide(cand, norms, out=cand, where=norms != 0.0)
        np.copyto(cand, Z, where=norms == 0.0)  # a row sent to 0 keeps Z's
        G_new = _grad_Z(P, cand)
        h_new = 0.5 * _block_dot(cand, G_new)
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


def _sweep(blocks, Fs, ctx):
    # one outer iteration: Z_1..Z_g, then V, then U, then W, on the list
    # [U, V, W, Zs], which ends holding the new blocks; it is emptied
    # first, so each old block is freed once it is replaced.  Fs are the
    # correlation weights at the W it starts from, () for none
    U, V, W, Zs = blocks
    blocks.clear()
    hp = ctx.hp
    steps = {}
    z_steps = []
    for m, F in enumerate(Fs):
        Zs[m], acc = _z_descend(U, F, Zs[m], hp.inner_steps)
        z_steps.extend(acc)
    steps["Z"] = tuple(z_steps)
    z_err = _unit_row_error(Zs)

    V, acc = _cg(V, lambda G: _hess_V(U, G, ctx), _rhs_V(U, W, ctx),
                 hp.inner_steps, _column_dot)
    steps["V"] = tuple(acc)

    U, acc = _cg(U, lambda G: _hess_U(G, V, Zs, Fs, ctx), _rhs_U(V, ctx),
                 hp.inner_steps, _block_dot)
    steps["U"] = tuple(acc)

    Ns = _factor_grams(U, Zs, Fs, ctx)
    W, acc = _cg(W, lambda G: _hess_W(G, Ns, ctx), _rhs_W(V, ctx),
                 hp.inner_steps, _block_dot)
    steps["W"] = tuple(acc)
    blocks[:] = U, V, W, Zs
    return steps, z_err


@dataclass(frozen=True)
class TraceRecord:
    """One outer iteration: objective, accepted steps, factor drift.

    steps maps each block name ("Z", "V", "U", "W") to the lengths of the
    steps it took, one entry per step: for Z, one per factor step over
    all groups; for U and W, one per conjugate-gradient step; for V, one
    per conjugate-gradient step, the largest step over its instance
    columns.  The warm-start record 0 has no steps.
    """

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
    hp.warm_iters iterations of the usual block updates with no
    correlation terms.  Unit-row factors (seeded per group) are attached
    untouched, ready for the full objective.

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
    scale = 1.0 / math.sqrt(k)
    U = rng.standard_normal((l, k)) * scale
    W = rng.standard_normal((d, k)) * scale
    V = rng.standard_normal((k, n)) * scale
    Zs = [init_factor(l, k, hp.seed + m + 1) for m in range(len(ctx.groups))]

    blocks = [U, V, W, Zs]
    del U, V, W, Zs
    for it in range(1, hp.warm_iters + 1):
        _sweep(blocks, (), ctx)
        # huge finite lambdas can overflow a block; say so, not which block
        if not all(np.isfinite(B).all() for B in blocks[:3]):
            raise ValueError(f"warm start is not finite after sweep {it}")
    U, V, W, Zs = blocks
    return GlocalModel(U=U, V=V, W=W, factors=tuple(Zs))


@np.errstate(over="ignore", invalid="ignore")
def fit(dataset, partition, hp):
    """Train a model by warm start plus alternating minimization.

    Huge finite hyperparameters can overflow a step or the correlation
    weights.  numpy's overflow warnings are silenced for the whole fit: a
    block or objective that overflows is left non-finite, and the warm
    start or fit refuses it with a ValueError.

    Args:
        dataset: training Dataset (labels may be partially observed).
        partition: instance Partition defining the local groups.
        hp: Hyperparams.

    Returns:
        (GlocalModel, FitTrace).  The trace's objective sequence is
        non-increasing but for one known case: with lambda2 = 0 and
        huge lambda_ and lambda3, a W step can raise it by rounding
        (README, Known behaviour).  Iteration stops after hp.outer_iters
        sweeps or once the relative objective change drops below hp.tol,
        so such a rise, a negative change, stops the fit as converged.
    """
    ctx = make_context(dataset, partition, hp)
    # no update writes a block in place, so the warm start's arrays are
    # taken as they are and each is freed once its block moves on
    start = warm_start(ctx)
    blocks = [start.U, start.V, start.W, list(start.factors)]
    del start

    # the correlation weights at each W, made once for the objective there
    # and the sweep that starts from it
    Fs = _weights(blocks[2], ctx)
    f = _objective_arrays(*blocks, Fs, ctx)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the warm-start point")
    records = [TraceRecord(0, f, {}, _unit_row_error(blocks[3]))]
    converged = False
    for it in range(1, hp.outer_iters + 1):
        steps, z_err = _sweep(blocks, Fs, ctx)
        Fs = _weights(blocks[2], ctx)
        f_new = _objective_arrays(*blocks, Fs, ctx)
        if not np.isfinite(f_new):
            raise ValueError(f"objective is not finite after sweep {it}")
        records.append(TraceRecord(it, f_new, steps, z_err))
        rel = (f - f_new) / max(f, 1e-30)
        f = f_new
        if rel < hp.tol:
            converged = True
            break
    U, V, W, Zs = blocks
    model = GlocalModel(U=U, V=V, W=W, factors=tuple(Zs))
    return model, FitTrace(records=tuple(records), converged=converged)


def grid_search(dataset, hp, axes, groups):
    """Pick hyperparameters by 5-fold cross-validation on mean ranking loss.

    A permutation seeded with hp.seed splits the instances into 5 folds;
    hp.seed also seeds kmeans.
    Each combination of axis values, in itertools.product order, is fit
    on every fold's training side and scored by ranking loss on its
    validation side; the first combination with the lowest mean wins.
    A combination that raises ValueError (LinAlgError is one) on some
    fold (say, a g larger than the fold) is skipped.  Each fold's datasets
    are cut once and its groups formed once per g, which changes no
    result: kmeans is deterministic in (features, g, seed).  It is a
    tidy-up, not a speed-up: kmeans takes about 2% of a grid's time.

    Args:
        dataset: Dataset to cross-validate on.
        hp: Hyperparams holding every value the axes do not vary.
        axes: dict mapping Hyperparams field names, and "g" for the
            group count, to sequences of values.
        groups: the group count when "g" is not an axis, or a fixed
            Partition of the dataset.  A Partition is restricted to each
            training fold and keeps all its groups, so a fold that
            empties one is degenerate.

    Returns:
        (mean loss, chosen values as a dict keyed like axes, g,
        Hyperparams) of the winning combination.

    Raises:
        ValueError: if an axis names neither a Hyperparams field nor
            g, an axis has no values, g is an axis while the
            partition is fixed, a fixed partition does not cover the
            dataset, the dataset has fewer than 2 instances, a
            combination makes invalid Hyperparams or a group count
            that is not an integer or is below 1, or no combination is
            usable (naming the first combination's error).
    """
    known = {f.name for f in dataclasses.fields(hp)}
    for name, values in axes.items():
        if name != "g" and name not in known:
            raise ValueError(f"grid axis {name!r} is not a Hyperparams field or 'g'")
        if len(values) == 0:
            raise ValueError(f"grid axis {name!r} has no values")
    fixed = isinstance(groups, Partition)
    if fixed and "g" in axes:
        raise ValueError("cannot vary g in the grid while the partition is fixed")
    if fixed:
        _require_cover(groups, dataset)
    perm = np.random.default_rng(hp.seed).permutation(dataset.n)
    folds = [np.sort(f) for f in np.array_split(perm, 5) if f.size]
    if len(folds) < 2:
        raise ValueError("grid search needs at least 2 instances")
    combos = []
    for values in itertools.product(*axes.values()):
        chosen = dict(zip(axes, values))
        fields = {name: v for name, v in chosen.items() if name != "g"}
        g = groups.g if fixed else check_integer("g", chosen.get("g", groups), 1)
        combos.append((chosen, g, dataclasses.replace(hp, **fields)))
    losses = [[] for _ in combos]  # each combination's fold losses
    # the message of the error that skipped a combination, by its index
    # (kept as text: the exception would hold its frames' arrays)
    errors = {}
    for f, val_idx in enumerate(folds):
        train_idx = np.sort(np.concatenate(folds[:f] + folds[f + 1 :]))
        train = take_instances(dataset, train_idx)
        val = take_instances(dataset, val_idx)
        parts = {}  # g -> this fold's partition
        for c, (_, g, combo_hp) in enumerate(combos):
            if c in errors:
                continue
            try:
                if g not in parts:
                    if fixed:
                        parts[g] = Partition(g, groups.assignment[train_idx])
                    else:
                        parts[g] = kmeans(train.features, g, hp.seed)
                model, _ = fit(train, parts[g], combo_hp)
                S = score(model, val.features)
                losses[c].append(ranking_loss(S, val.labels.values))
            except ValueError as exc:  # LinAlgError included
                errors[c] = str(exc)  # degenerate fold for this combination
    # on equal means the lower index, the first in grid order, wins
    scored = [(float(np.mean(losses[c])), c) for c in range(len(combos)) if c not in errors]
    if not scored:
        raise ValueError("no grid combination produced a usable CV score;"
                         f" the first failed with: {errors[0]}")
    mean_loss, c = min(scored)
    return (mean_loss, *combos[c])
