"""The inner-product space of superoperators on an N-dimensional system.

Carries the trace-form inner product ``<Phi, Psi> = sum_a tr
Phi(E_a)^dag Psi(E_a)`` over an orthonormal operator basis, the two
induced superoperator bases (dyadic ``Delta`` and sandwich ``Theta``),
the coefficient matrices P and Q of a map in those bases, the kernel
that converts between them, and the tensor-space embedding
``Lam_Phi = sum_a Phi(E_a) (x) F_a``.

Each function is a closed form in ``vE`` and ``vF``, the unitaries whose
columns are ``vectorize(E_a)`` and ``vectorize(F_b)``, and at most one
:mod:`~choiscope.reshape` realignment on ``BipartiteShape(N, N)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel
from .errors import NotOrthonormal, ShapeMismatch
from .generators import random_unitary
from .numerics import as_matrix, check_seed, hs_inner
from .reshape import BipartiteShape, realign, realign_inverse, tensor, vectorize


@dataclass(frozen=True)
class OperatorBasis:
    """An orthonormal basis of N x N matrices; ``columns[:, a]`` is ``vectorize(E_a)``."""

    elements: tuple
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        els = tuple(as_matrix(E) for E in self.elements)
        object.__setattr__(self, "elements", els)
        if not els:
            raise ShapeMismatch("empty operator basis")
        N = els[0].shape[0]
        if any(E.shape != (N, N) for E in els) or len(els) != N * N:
            raise ShapeMismatch("basis must contain N^2 square N x N matrices")
        cols = np.stack(els).transpose(0, 2, 1).reshape(N * N, N * N).T
        object.__setattr__(self, "columns", cols)
        gram = cols.conj().T @ cols  # gram[a, b] = hs_inner(E_a, E_b)
        if np.max(np.abs(gram - np.eye(N * N))) > 1e-10:
            raise NotOrthonormal("basis Gram matrix deviates from identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def _column_basis(N: int, unitary) -> OperatorBasis:
    """The basis whose columns are ``unitary(N * N)``, devectorized in one reshape."""
    if N < 1:
        raise ShapeMismatch("empty operator basis")
    U = unitary(N * N)
    return OperatorBasis(tuple(U.reshape(N, N, N * N, order="F").transpose(2, 0, 1)))


def elementary_basis(N: int) -> OperatorBasis:
    """The matrices |i><j| in vectorization (column-major) order."""
    return _column_basis(N, lambda n: np.eye(n, dtype=complex))


def rotated_basis(N: int, seed: int) -> OperatorBasis:
    """The basis whose columns are the Haar-random ``random_unitary(N^2)``."""
    check_seed(seed)
    return _column_basis(N, lambda n: random_unitary(n, np.random.default_rng(seed)))


def _columns(B: OperatorBasis, N: int) -> np.ndarray:
    """``B.columns``, for a basis of dim N."""
    if B.dim != N:
        raise ShapeMismatch(f"basis of dim {B.dim}, expected {N}")
    return B.columns


def superop_inner(phi: Channel, psi: Channel, basis: OperatorBasis) -> complex:
    """sum_a tr Phi(E_a)^dag Psi(E_a) = <L_phi vE, L_psi vE>; basis-independent."""
    return hs_inner(phi.liouville @ _columns(basis, phi.d_in),
                    psi.liouville @ _columns(basis, psi.d_in))


def delta_liouville(E_a, F_b) -> np.ndarray:
    """Liouville matrix |E_a>><<F_b| of the map X -> E_a tr(F_b^dag X)."""
    return np.outer(vectorize(E_a), vectorize(F_b).conj())


def theta_liouville(E_a, F_b) -> np.ndarray:
    """Liouville matrix E_a (x) F_b^* of the map X -> E_a X F_b^dag."""
    return tensor(as_matrix(E_a), as_matrix(F_b).conj())


@dataclass(frozen=True)
class SuperopCoeffs:
    """Expansion coefficients of a map in the Delta (P) and Theta (Q) bases."""

    P: np.ndarray
    Q: np.ndarray
    E: OperatorBasis
    F: OperatorBasis

    def reconstruct_from_P(self) -> np.ndarray:
        """sum_ab p_ab Delta_ab = vE P vF^dag."""
        N = self.E.dim
        return _columns(self.E, N) @ self.P @ _columns(self.F, N).conj().T

    def reconstruct_from_Q(self) -> np.ndarray:
        """sum_ab q_ab Theta_ab = R(vE Q vF^dag), the realigned dynamical matrix."""
        N = self.E.dim
        D = _columns(self.E, N) @ self.Q @ _columns(self.F, N).conj().T
        return realign(D, BipartiteShape(N, N))


def coefficients(phi: Channel, E: OperatorBasis, F: OperatorBasis) -> SuperopCoeffs:
    """P and Q for a map: ``P = vE^dag L vF``, ``Q = vE^dag D vF``.

    ``D`` is ``phi.choi``, the ``realign_inverse`` of ``L``.  Entrywise
    ``p_ab = <<E_a|L|F_b>>`` and ``q_ab = <E_a (x) F_b^*, L>``.
    """
    N = phi.d_in
    if phi.d_out != N:
        raise ShapeMismatch(f"coefficients need a square channel, got {N} -> {phi.d_out}")
    vE_dag = _columns(E, N).conj().T
    vF = _columns(F, N)
    return SuperopCoeffs(P=vE_dag @ phi.liouville @ vF,
                         Q=vE_dag @ phi.choi @ vF, E=E, F=F)


def convert_coeffs(C: np.ndarray, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """Apply the change-of-basis kernel tr(E_a^dag E_m F_b F_n^dag).

    The kernel is ``C -> vE^dag R(vE C vF^dag) vF``: rebuild the matrix C
    expands, realign it, and expand again.  The same kernel maps Q to P
    and P to Q, as R is an involution.
    """
    C = as_matrix(C)
    n = len(E)
    if C.shape != (n, n):
        raise ShapeMismatch(f"coefficient matrix is {C.shape}, expected {(n, n)}")
    N = E.dim
    vE = _columns(E, N)
    vF = _columns(F, N)
    R = realign(vE @ C @ vF.conj().T, BipartiteShape(N, N))
    return vE.conj().T @ R @ vF


def lambda_iso(phi: Channel, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """The tensor-space image sum_a Phi(E_a) (x) F_a; an isometry.

    ``vec(Phi(E_a)) = L vec(E_a)``, and the realignment takes each
    ``X (x) Y`` to ``vec(X) vec(Y)^T``, so the image is
    ``realign_inverse(L vE vF^T)`` with ``Phi``'s output as party A.
    """
    N = phi.d_in
    M = phi.liouville @ _columns(E, N) @ _columns(F, N).T
    return realign_inverse(M, BipartiteShape(phi.d_out, N))
