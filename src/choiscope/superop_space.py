"""The inner-product space of superoperators on an N-dimensional system.

Carries the trace-form inner product ``<Phi, Psi> = sum_a tr
Phi(E_a)^dag Psi(E_a)`` over an orthonormal operator basis, the two
induced superoperator bases (dyadic ``Delta`` and sandwich ``Theta``),
the coefficient matrices P and Q of a map in those bases, the kernel
that converts between them, and the tensor-space embedding
``Lam_Phi = sum_a Phi(E_a) (x) F_a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, apply
from .errors import NotOrthonormal, ShapeMismatch
from .numerics import as_matrix, hs_inner
from .reshape import devectorize, tensor, vectorize


@dataclass(frozen=True)
class OperatorBasis:
    """An orthonormal basis of N x N matrices (N^2 elements)."""

    elements: tuple

    def __post_init__(self):
        els = tuple(as_matrix(E) for E in self.elements)
        object.__setattr__(self, "elements", els)
        N = els[0].shape[0]
        if any(E.shape != (N, N) for E in els) or len(els) != N * N:
            raise ShapeMismatch("basis must contain N^2 square N x N matrices")
        flat = np.stack(els).reshape(N * N, N * N)
        gram = flat.conj() @ flat.T  # gram[a, b] = hs_inner(E_a, E_b)
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


def elementary_basis(N: int) -> OperatorBasis:
    """The matrices |i><j| in vectorization (column-major) order."""
    els = []
    for a in range(N * N):
        E = np.zeros((N, N), dtype=complex)
        E[a % N, a // N] = 1.0
        els.append(E)
    return OperatorBasis(tuple(els))


def rotated_basis(N: int, seed: int) -> OperatorBasis:
    """Elementary basis rotated by a Haar-random N^2 x N^2 unitary."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
    Q, R = np.linalg.qr(A)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return OperatorBasis(tuple(devectorize(Q[:, a], N, N) for a in range(N * N)))


def superop_inner(phi: Channel, psi: Channel, basis: OperatorBasis) -> complex:
    """sum_a tr Phi(E_a)^dag Psi(E_a); basis-independent."""
    total = 0.0 + 0.0j
    for E in basis:
        total += hs_inner(apply(phi, E, route="liouville"),
                          apply(psi, E, route="liouville"))
    return complex(total)


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
        n = len(self.E)
        L = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                L += self.P[a, b] * delta_liouville(self.E[a], self.F[b])
        return L

    def reconstruct_from_Q(self) -> np.ndarray:
        n = len(self.E)
        L = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                L += self.Q[a, b] * theta_liouville(self.E[a], self.F[b])
        return L


def coefficients(phi: Channel, E: OperatorBasis, F: OperatorBasis) -> SuperopCoeffs:
    """P and Q for a map: p_ab = <<E_a|L|F_b>>, q_ab = <E_a (x) F_b^*, L>."""
    N = phi.d_in
    if phi.d_out != N or E.dim != N or F.dim != N:
        raise ShapeMismatch(
            f"coefficients need a square channel and bases of its dimension; "
            f"got {phi.d_in} -> {phi.d_out} with bases of dim {E.dim}, {F.dim}")
    L = phi.liouville
    n = len(E)
    vE = np.column_stack([vectorize(M) for M in E])
    vF = np.column_stack([vectorize(M) for M in F])
    P = vE.conj().T @ L @ vF
    # q_ab = sum conj(E_a[i, j]) F_b[k, l] L[k*N + i, l*N + j]: regroup L by
    # (i, j) rows and (k, l) columns and contract with the row-major
    # flattened basis elements
    M = L.reshape(N, N, N, N).transpose(1, 3, 0, 2).reshape(n, n)
    Q = np.stack(E.elements).reshape(n, n).conj() @ M @ np.stack(F.elements).reshape(n, n).T
    return SuperopCoeffs(P=P, Q=Q, E=E, F=F)


def convert_coeffs(C: np.ndarray, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """Apply the change-of-basis kernel tr(E_a^dag E_m F_b F_n^dag).

    The same kernel maps Q to P and P to Q; it is contracted on the fly
    rather than materialized for larger systems.
    """
    C = as_matrix(C)
    n = len(E)
    if C.shape != (n, n):
        raise ShapeMismatch(f"coefficient matrix is {C.shape}, expected {(n, n)}")
    Earr = np.stack(list(E.elements))
    Farr = np.stack(list(F.elements))
    # G[a, m, i, j] = (E_a^dag E_m)_{ij}; H[b, n, j, i] = (F_b F_n^dag)_{ji}
    G = np.einsum("aki,mkj->amij", Earr.conj(), Earr)
    H = np.einsum("bjk,nik->bnji", Farr, Farr.conj())
    return np.einsum("amij,bnji,mn->ab", G, H, C)


def lambda_iso(phi: Channel, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """The tensor-space image sum_a Phi(E_a) (x) F_a; an isometry."""
    N = E.dim
    out = np.zeros((N * N, N * N), dtype=complex)
    for E_a, F_a in zip(E, F):
        out += tensor(apply(phi, E_a, route="liouville"), F_a)
    return out

