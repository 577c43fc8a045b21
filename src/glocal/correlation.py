"""Label-correlation algebra: cosine similarity, Laplacians, factors.

The solver never materializes a full Laplacian: correlation structure
is carried by low-rank factors Z with unit-norm rows, made here
(init_factor) and kept on unit rows by the solver's own Z step.  The
dense cosine/Laplacian helpers exist for analysis of a label matrix and
for checking the factored algebra against it.
"""

import numpy as np

from .data import check_real, check_reals


def cosine_correlation(labels):
    """Cosine similarity between label rows.

    Args:
        labels: LabelMatrix; rows are compared over all instances,
            with unobserved entries contributing zeros.

    Returns:
        l x l symmetric matrix; entries involving an all-zero label row
        are zero (including its diagonal).
    """
    Y = labels.values.astype(np.float64)
    G = Y @ Y.T
    G = (G + G.T) / 2.0
    sq = np.diag(G).copy()
    denom = np.sqrt(np.outer(sq, sq))
    nonzero = sq > 0.0
    S = np.zeros_like(G)
    mask = np.outer(nonzero, nonzero)
    S[mask] = G[mask] / denom[mask]
    return S


def laplacian_of(S):
    """Graph Laplacian diag(S 1) - S of a symmetric correlation matrix
    of real numbers, all finite, whose Laplacian float64 holds."""
    S = np.asarray(check_reals("correlation matrix", S), dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or not np.isfinite(S).all():
        raise ValueError("correlation matrix must be square and finite")
    scale = max(1.0, np.abs(S).max(initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        asymmetry = np.abs(S - S.T).max(initial=0.0)
        L = np.diag(S.sum(axis=1)) - S
    if asymmetry > 1e-12 * scale:
        raise ValueError("correlation matrix must be symmetric")
    if not np.isfinite(L).all():
        raise ValueError("correlation matrix rows must sum within float64's range")
    return L


def combine_correlations(parts, weights):
    """Weighted elementwise sum of correlation matrices, each weight a
    finite real; a sum that is not finite is refused."""
    if len(parts) != len(weights):
        raise ValueError("need one weight per correlation matrix")
    if len(parts) == 0:
        raise ValueError("need at least one correlation matrix")
    shape = np.shape(parts[0])
    out = np.zeros(shape, dtype=np.float64)
    for S, w in zip(parts, weights):
        w = check_real("weight", w)
        S = np.asarray(check_reals("correlation matrix", S), dtype=np.float64)
        if S.shape != shape:
            raise ValueError("correlation matrices must share a shape")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out += w * S
    if not np.isfinite(out).all():
        raise ValueError("weighted sum of the correlation matrices must be finite")
    return out


def project_unit_rows(Z):
    """Scale every row of Z to unit euclidean norm, in a copy.

    Raises:
        ValueError: if a row is all zeros, naming the first such row; it
            has no direction to keep.
    """
    Z = np.array(Z, dtype=np.float64, copy=True)
    norms = np.linalg.norm(Z, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise ValueError(f"row {zero_rows[0]} is zero and has no unit direction")
    Z /= norms[:, None]
    return Z


def init_factor(l, k, seed):
    """Random l x k factor with unit-norm rows, deterministic per seed."""
    Z = np.random.default_rng(seed).standard_normal((l, k))
    return project_unit_rows(Z)
