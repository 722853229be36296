"""Dense complex matrix substrate.

Hermitian eigendecomposition, the range (eigenvalue keep) test, SVD rank,
PSD tests, pseudo-inverse and the Hilbert-Schmidt inner product.
Everything downstream is built on these few primitives, all of them thin,
validated wrappers around LAPACK via numpy.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonFinite, NotHermitian, NotPsd, ShapeMismatch


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair: every Hermitian, PSD, CP and rank check
    allows ``bound(scale) = atol + rtol * scale`` of its matrix's scale, through
    :meth:`allows_gap`, :meth:`psd_floor`, :meth:`rank` and :func:`range_mask`."""

    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        for name in ("atol", "rtol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and np.isfinite(value) and value >= 0):
                raise InvalidArgument(f"{name} must be a finite real >= 0, got {value!r}")

    def bound(self, scale: float) -> float:
        return float(self.atol + self.rtol * scale)

    def allows_gap(self, gap: float, M: np.ndarray) -> bool:
        """``gap <= atol or gap <= bound(max|M|)``, reading max|M| only past atol; NaN fails."""
        return bool(gap <= self.atol or gap <= self.bound(float(np.max(np.abs(M)))))

    def psd_floor(self, w: np.ndarray) -> float:
        """``-bound(max|w|)``, the least eigenvalue allowed of the ascending ``w``."""
        return -self.bound(max(-w[0], w[-1]))

    def rank(self, s: np.ndarray) -> int:
        """Number of the descending singular values ``s`` above ``bound(s[0])``."""
        return int(np.sum(s > self.bound(s[0])))


DEFAULT_TOL = Tolerance()


def check_index(value, name: str) -> None:
    """Raise ``InvalidArgument`` naming ``name`` unless ``value`` is an integer
    (``operator.index``) >= 0, which numpy or ``range`` would reject with a raw error."""
    try:
        valid = operator.index(value) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise InvalidArgument(f"{name} must be an integer >= 0, got {value!r}")


# Row-block height of ``hermitian_gap``: a 64-row strip of a 625 x 625
# complex matrix is 640 kB, so each strip's temporaries stay in cache.
HERMITIAN_GAP_ROWS = 64


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting non-finite input."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():  # a complex entry is finite iff both parts are
        raise NonFinite("matrix contains non-finite entries")
    return M


def check_hermitian(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Return ``M`` if :meth:`Tolerance.allows_gap` allows ``max|M - M^dag|``, else raise.

    The gap's rounding grows with the entries, so the bound scales with
    the largest one, as :meth:`Tolerance.rank`'s with the largest singular value.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"matrix is {M.shape}, not square")
    dev = hermitian_gap(M)
    if not tol.allows_gap(dev, M):
        raise NotHermitian(f"max |M - M^dag| = {dev:.3e} > atol + rtol * max|M|")
    return M


def hermitian_gap(M: np.ndarray) -> float:
    """``max |M - M^dag|`` of a square matrix, 0.0 when it is empty.

    Entry (j, i) of ``M - M^dag`` is minus the conjugate of entry (i, j),
    so the upper triangle holds every modulus: each strip of
    ``HERMITIAN_GAP_ROWS`` rows right of the diagonal is compared with the
    matching column strip below it, and no full-size temporary is made.
    The result equals the dense formula exactly, NaN included.
    """
    n = M.shape[0]
    gap = np.float64(0.0)
    for i in range(0, n, HERMITIAN_GAP_ROWS):
        j = min(i + HERMITIAN_GAP_ROWS, n)
        strip = np.abs(M[i:j, i:] - M[i:, i:j].T.conj())
        gap = np.maximum(gap, np.max(strip))  # np.maximum keeps a NaN
    return float(gap)


def eig_hermitian(M, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` real and ascending and the
    columns of ``V`` the matching orthonormal eigenvectors.
    """
    M = check_hermitian(M, tol)
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return w, V


def is_psd(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the Hermitian ``M``'s eigenvalues are all >= ``tol.psd_floor(w)``."""
    w, _ = eig_hermitian(M, tol)
    return bool(w[0] >= tol.psd_floor(w))


def min_eigenvalue(M, tol: Tolerance = DEFAULT_TOL) -> float:
    w, _ = eig_hermitian(M, tol)
    return float(w[0])


@dataclass(frozen=True)
class StateReport:
    hermitian: bool
    min_eigenvalue: float
    trace: float
    positive_semidefinite: bool


def validate_state(rho, tol: Tolerance = DEFAULT_TOL) -> StateReport:
    """Report on a square matrix as a state, never raising on a failed check; the
    spectrum is the Hermitian part's, so a non-Hermitian state is still reported."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeMismatch(f"matrix is {rho.shape}, not square")
    w = np.linalg.eigh((rho + rho.conj().T) / 2.0)[0]
    return StateReport(hermitian=tol.allows_gap(hermitian_gap(rho), rho),
                       min_eigenvalue=float(w[0]), trace=float(np.trace(rho).real),
                       positive_semidefinite=bool(w[0] >= tol.psd_floor(w)))


def range_mask(w: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Mask of the ascending eigenvalues ``w`` that span the range: those
    above ``-tol.psd_floor(w)``.  The library's one eigenvalue keep-test."""
    return w > -tol.psd_floor(w)


def svd_rank(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``atol + rtol * sigma_max`` (:meth:`Tolerance.rank`)."""
    M = as_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    return tol.rank(s) if s.size else 0


def pseudo_inverse(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix.

    Eigenvalues above ``tol.bound(max|w|)`` (largest eigenvalue modulus)
    are inverted (:func:`range_mask`), the rest are zeroed; one below
    ``tol.psd_floor(w)`` raises ``NotPsd``.
    """
    w, V = eig_hermitian(M, tol)
    if w[0] < tol.psd_floor(w):
        raise NotPsd(f"min eigenvalue {w[0]:.3e} < -(atol + rtol * max|w|)")
    keep = range_mask(w, tol)
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (V * inv) @ V.conj().T


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    return complex(np.sum(A.conj() * B))


def frobenius_norm(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=complex)))
