import numpy as np
import pytest

from glocal.correlation import (
    combine_correlations,
    cosine_correlation,
    init_factor,
    laplacian_of,
    project_unit_rows,
)
from glocal.data import LabelMatrix


def full_labels(rng, l, n):
    return LabelMatrix(rng.choice([-1, 1], size=(l, n)))


def test_identical_opposite_orthogonal_rows():
    Y = LabelMatrix(np.array([
        [1, 1, -1, -1],
        [1, 1, -1, -1],   # identical to row 0
        [-1, -1, 1, 1],   # opposite of row 0
        [1, -1, 1, -1],   # orthogonal to row 0
    ]))
    S = cosine_correlation(Y)
    assert S[0, 1] == 1.0
    assert S[0, 2] == -1.0
    assert S[0, 3] == 0.0
    assert np.array_equal(np.diag(S), np.ones(4))


def test_zero_row_gets_zero_entries():
    Y = LabelMatrix(np.array([[1, -1], [0, 0], [1, 1]]))
    S = cosine_correlation(Y)
    assert not S[1, :].any() and not S[:, 1].any()
    assert S[1, 1] == 0.0


def test_cosine_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        Y = LabelMatrix(
            rng.choice([-1, 0, 1], size=(rng.integers(2, 9), rng.integers(1, 20)))
        )
        S = cosine_correlation(Y)
        assert np.array_equal(S, S.T)
        assert S.max() <= 1.0 and S.min() >= -1.0


def test_laplacian_known_value():
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    L = laplacian_of(S)
    assert np.array_equal(L, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        S = (A + A.T) / 2
        L = laplacian_of(S)
        assert np.abs(L.sum(axis=1)).max() < 1e-12


def test_factor_gram_psd_with_unit_diagonal():
    rng = np.random.default_rng(2)
    for trial in range(20):
        Z = init_factor(int(rng.integers(2, 9)), int(rng.integers(1, 5)), seed=trial)
        G = Z @ Z.T
        assert np.abs(np.diag(G) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_laplacian_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        laplacian_of(np.array([[1.0, 0.2], [0.3, 1.0]]))
    # a difference beyond float64's range is asymmetry too, not an overflow
    with pytest.raises(ValueError, match="symmetric"):
        laplacian_of(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        laplacian_of(np.zeros((2, 3)))


def test_combine_is_weighted_sum():
    rng = np.random.default_rng(3)
    parts = [rng.standard_normal((4, 4)) for _ in range(3)]
    w = [0.2, -1.0, 3.5]
    got = combine_correlations(parts, w)
    want = w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2]
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ValueError):
        combine_correlations(parts, [1.0, 2.0])
    with pytest.raises(ValueError):
        combine_correlations([np.zeros((2, 2)), np.zeros((3, 3))], [1.0, 1.0])
    with pytest.raises(ValueError):
        combine_correlations([], [])


def test_global_cosine_decomposes_over_groups():
    # for fully +-1 label matrices the global cosine matrix equals the
    # size-weighted sum of the per-group ones
    rng = np.random.default_rng(4)
    for _ in range(25):
        l = int(rng.integers(2, 9))
        n = int(rng.integers(4, 40))
        g = int(rng.integers(1, 5))
        Y = full_labels(rng, l, n)
        assign = rng.integers(0, g, size=n)
        for m in range(g):  # keep every group nonempty
            if not (assign == m).any():
                assign[rng.integers(n)] = m
        S0 = cosine_correlation(Y)
        parts, weights = [], []
        for m in range(g):
            idx = np.flatnonzero(assign == m)
            parts.append(cosine_correlation(LabelMatrix(Y.values[:, idx])))
            weights.append(idx.size / n)
        assert np.abs(S0 - combine_correlations(parts, weights)).max() < 1e-12


def test_laplacian_linearity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        l = int(rng.integers(2, 10))
        g = int(rng.integers(1, 6))
        parts = []
        for _ in range(g):
            A = rng.standard_normal((l, l))
            parts.append((A + A.T) / 2)
        w = rng.uniform(-2, 2, size=g)
        lhs = laplacian_of(combine_correlations(parts, w))
        rhs = sum(wi * laplacian_of(Si) for wi, Si in zip(w, parts))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_project_unit_rows():
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((7, 3)) * 10
    before = Z.copy()
    P = project_unit_rows(Z)
    assert np.array_equal(Z, before)  # the input is left as it was
    # bitwise the plain row scaling, made in the function's own copy
    assert P.tobytes() == (Z / np.linalg.norm(Z, axis=1)[:, None]).tobytes()
    assert np.abs((P * P).sum(axis=1) - 1.0).max() < 1e-12
    # directions survive
    assert np.allclose(P * np.linalg.norm(Z, axis=1)[:, None], Z)
    # idempotent up to last-bit rescaling noise
    assert np.abs(project_unit_rows(P) - P).max() < 1e-14


def test_project_refuses_zero_rows():
    # a zero row has no direction to scale; the solver's Z step keeps the
    # old row where its step lands on 0, so only a caller's input has one
    Z = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="^row 1 is zero and has no unit direction$"):
        project_unit_rows(Z)


def test_init_factor():
    Z = init_factor(6, 3, seed=0)
    assert Z.shape == (6, 3)
    assert np.abs((Z * Z).sum(axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(Z, init_factor(6, 3, seed=0))
    assert not np.array_equal(Z, init_factor(6, 3, seed=1))
    # k = 1 forces entries to exactly +-1
    Z1 = init_factor(5, 1, seed=3)
    assert np.isin(Z1, (-1.0, 1.0)).all()
