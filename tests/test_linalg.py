"""Matrix helpers: exponentials, spectra, eigenvector diagnostics."""

import numpy as np
import pytest

from reachwarp import (DimensionError, DomainError, LinearSystem, NumericError,
                       PreconditionError, boundary_point, box_polytope, eigvec_residual,
                       mat_exp, spectrum)
from reachwarp.linalg import as_matrix, as_square, as_vector

from conftest import quadratic_roots, series_exp

ADMIRE_A = np.array([[-0.9967, 0.0, 0.6176],
                     [0.0, -0.5057, 0.0],
                     [-0.0939, 0.0, -0.2127]])


def test_as_matrix_validates_and_freezes():
    src = [[1.0, 2.0], [3.0, 4.0]]
    M = as_matrix(src)
    assert M.shape == (2, 2)
    assert not M.flags.writeable
    src[0][0] = 99.0
    assert M[0, 0] == 1.0
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DomainError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_as_square_rejects_rectangular():
    with pytest.raises(DimensionError):
        as_square([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_as_vector_validates():
    v = as_vector([1.0, 2.0])
    assert v.shape == (2,)
    assert not v.flags.writeable
    with pytest.raises(DimensionError):
        as_vector([[1.0], [2.0]])
    with pytest.raises(DomainError):
        as_vector([np.inf])


def test_ragged_input_raises_dimension_error():
    with pytest.raises(DimensionError):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionError):
        as_vector([1.0, [2.0]])
    with pytest.raises(DimensionError):
        LinearSystem(A=[[1.0, 2.0], [3.0]], X0=[0.0, 0.0], T=1.0, m=1)
    sys_ = LinearSystem(A=[[-1.0, 0.0], [0.0, -2.0]], X0=[0.0, 0.0], T=1.0, m=2)
    with pytest.raises(DimensionError):
        boundary_point(sys_, [[1.0, 2.0], [3.0]], box_polytope([-1.0, -1.0], [1.0, 1.0]),
                       [1.0, 0.0], steps=10)


def test_mat_exp_zero_is_identity():
    assert np.allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_mat_exp_diagonal():
    out = mat_exp(np.diag([-1.0, -2.0]))
    assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-12)


def test_mat_exp_nilpotent():
    out = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)


def test_mat_exp_rotation_generator():
    for theta in (0.3, 1.0, 2.5):
        out = mat_exp(np.array([[0.0, theta], [-theta, 0.0]]))
        expected = np.array([[np.cos(theta), np.sin(theta)],
                             [-np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(out - expected)) <= 1e-10


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        M *= min(1.0, 3.0 / np.linalg.norm(M))
        assert np.max(np.abs(mat_exp(M) - series_exp(M))) <= 1e-10


def test_mat_exp_inverse_and_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n))
        nrm = np.linalg.norm(M)
        if nrm > 5.0:
            M *= 5.0 / nrm
        assert np.max(np.abs(mat_exp(M) @ mat_exp(-M) - np.eye(n))) <= 1e-10
        s, t = rng.uniform(0.1, 1.0, size=2)
        lhs = mat_exp(M * (s + t))
        rhs = mat_exp(M * s) @ mat_exp(M * t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_mat_exp_rejects_nonsquare():
    with pytest.raises(DimensionError):
        mat_exp(np.ones((2, 3)))


def test_spectrum_diagonal_exact():
    rep = spectrum(np.diag([-1.0, -2.0]))
    assert rep.all_real
    assert rep.max_abs_imag == 0.0
    values = sorted(re for re, _ in rep.eigenvalues)
    assert abs(values[0] - (-2.0)) <= 1e-12
    assert abs(values[1] - (-1.0)) <= 1e-12


def test_spectrum_sorted_and_sized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rep = spectrum(rng.standard_normal((n, n)))
        assert len(rep.eigenvalues) == n
        assert rep.eigenvalues == tuple(sorted(rep.eigenvalues))
        assert rep.all_real == (rep.max_abs_imag <= 1e-9)


def test_spectrum_oscillator_complex_pair():
    rep = spectrum(np.array([[0.0, 1.0], [-2.0, -0.8]]))
    assert not rep.all_real
    # characteristic polynomial lambda^2 + 0.8 lambda + 2 by hand
    imag = np.sqrt(4.0 * 2.0 - 0.8 ** 2) / 2.0
    (re1, im1), (re2, im2) = rep.eigenvalues
    assert abs(re1 - (-0.4)) <= 1e-12 and abs(re2 - (-0.4)) <= 1e-12
    assert abs(im1 - (-imag)) <= 1e-12 and abs(im2 - imag) <= 1e-12
    assert abs(imag - 1.3564659966250536) <= 1e-12


def test_spectrum_admire_against_characteristic_polynomial():
    # state 2 is decoupled, so one eigenvalue is the middle diagonal entry and
    # the other two are the roots of the (1,3)-block characteristic quadratic
    tr = ADMIRE_A[0, 0] + ADMIRE_A[2, 2]
    det = ADMIRE_A[0, 0] * ADMIRE_A[2, 2] - ADMIRE_A[0, 2] * ADMIRE_A[2, 0]
    lo, hi = quadratic_roots(tr, det)
    expected = sorted([lo, hi, ADMIRE_A[1, 1]])
    rep = spectrum(ADMIRE_A)
    assert rep.all_real
    got = [re for re, _ in rep.eigenvalues]
    assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-9
    # frozen values of that quadratic-formula oracle
    frozen = [-0.9140078725153953, -0.5057, -0.29539212748460475]
    assert np.max(np.abs(np.array(got) - np.array(frozen))) <= 1e-9


def test_eigvec_residual_diagonal():
    mu, res = eigvec_residual(np.diag([-1.0, -2.0]), [1.0, 0.0])
    assert mu == -1.0
    assert res == 0.0


def test_eigvec_residual_rotation_generator():
    mu, res = eigvec_residual(np.array([[0.0, 1.0], [-1.0, 0.0]]), [1.0, 0.0])
    assert abs(mu) <= 1e-15
    assert abs(res - 1.0) <= 1e-15


def test_eigvec_residual_admire_transpose():
    # A^T e1 is the first row of A, so the residual is exactly the (1,3) entry
    mu, res = eigvec_residual(ADMIRE_A.T, [1.0, 0.0, 0.0])
    assert abs(mu - (-0.9967)) <= 1e-12
    assert abs(res - 0.6176) <= 1e-12


def test_eigvec_residual_orthogonal_eigenbasis():
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        S = rng.standard_normal((n, n))
        S = (S + S.T) / 2.0
        _, vects = np.linalg.eigh(S)
        for j in range(n):
            _, res = eigvec_residual(S, vects[:, j])
            assert res <= 1e-12


def test_eigvec_residual_requires_unit_norm():
    with pytest.raises(PreconditionError):
        eigvec_residual(np.eye(2), [1.0, 1.0])


def test_mat_exp_overflow_raises_numeric_error():
    with pytest.raises(NumericError, match="non-finite"):
        mat_exp(np.array([[1000.0]]))
    with pytest.raises(NumericError):
        mat_exp(np.array([[0.0, 800.0], [800.0, 0.0]]))
