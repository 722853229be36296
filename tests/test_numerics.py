import numpy as np
import pytest

from choiscope.errors import NonFinite, NotHermitian, NotPsd, ShapeMismatch
from choiscope.numerics import (DEFAULT_TOL, HERMITIAN_GAP_ROWS, Tolerance,
                                as_matrix, check_hermitian, eig_hermitian,
                                frobenius_norm, hermitian_gap, hs_inner,
                                is_psd, min_eigenvalue, pseudo_inverse,
                                svd_rank, validate_state)

from conftest import random_complex, random_psd


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(atol=-1e-9)
    assert DEFAULT_TOL.atol == 1e-9


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NonFinite):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(Exception):
        as_matrix(np.ones(3))


def test_check_hermitian(rng):
    H = random_psd(rng, 4)
    assert np.allclose(check_hermitian(H), H)
    with pytest.raises(NotHermitian):
        check_hermitian(H + 1e-6 * 1j * np.eye(4))


def _dense_gap(M):
    return np.max(np.abs(M - M.conj().T))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 625])
def test_hermitian_gap_is_the_dense_formula(rng, n):
    M = random_complex(rng, n, n)
    H = (M + M.conj().T) / 2.0
    for A in (M, H, H + 1e-12 * M, H.real.copy()):
        assert hermitian_gap(A) == _dense_gap(A)
    assert hermitian_gap(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", [1, 63, 64, 65, 625])
def test_hermitian_gap_keeps_a_nan(rng, n):
    H = random_psd(rng, n)
    # the first and last entries, and both triangles of the last row strip
    last = n - 1
    spots = {(0, 0), (last, last), (0, last), (last, 0)}
    if n > HERMITIAN_GAP_ROWS:
        spots |= {(HERMITIAN_GAP_ROWS, 1), (1, HERMITIAN_GAP_ROWS)}
    for i, j in spots:
        A = H.copy()
        A[i, j] = np.nan
        assert np.isnan(hermitian_gap(A)) and np.isnan(_dense_gap(A))


def test_eig_hermitian_ascending(rng):
    H = random_psd(rng, 5)
    w, V = eig_hermitian(H)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-10)


def test_is_psd_and_min_eigenvalue(rng):
    P = random_psd(rng, 4)
    assert is_psd(P)
    assert min_eigenvalue(P) >= -1e-12
    assert not is_psd(P - 2 * np.trace(P).real * np.eye(4))


def test_svd_rank(rng):
    v = random_complex(rng, 5)
    assert svd_rank(np.outer(v, v.conj())) == 1
    assert svd_rank(random_complex(rng, 5, 5)) == 5
    assert svd_rank(np.zeros((3, 3))) == 0


def test_pseudo_inverse_moore_penrose(rng):
    P = random_psd(rng, 6, rank=3)
    Pp = pseudo_inverse(P)
    assert np.allclose(P @ Pp @ P, P, atol=1e-9)
    assert np.allclose(Pp @ P @ Pp, Pp, atol=1e-9)
    with pytest.raises(NotPsd):
        pseudo_inverse(P - np.trace(P).real * np.eye(6))


def test_hs_inner_and_norm(rng):
    A = random_complex(rng, 4, 4)
    B = random_complex(rng, 4, 4)
    assert abs(hs_inner(A, B) - np.trace(A.conj().T @ B)) < 1e-12
    assert abs(frobenius_norm(A) ** 2 - hs_inner(A, A).real) < 1e-10


@pytest.mark.parametrize("check", [check_hermitian, validate_state])
def test_state_checks_reject_a_non_square_matrix(check):
    with pytest.raises(ShapeMismatch, match=r"\(2, 3\), not square"):
        check(np.ones((2, 3)))
