"""Index-permutation calculus on bipartite matrices.

Composite-index convention
--------------------------
The composite of ``|m>`` on subsystem A (dimension ``d_A``) and ``|u>`` on
subsystem B (dimension ``d_B``) sits at flat index ``u * d_A + m``: the A
index varies *fastest*, even though A is written first in ``X (x) Y``.
This is the reverse of numpy's ``kron`` convention, hence
``tensor(X, Y) == np.kron(Y, X)``.

Worked 2x2 example: with ``X = [[x00, x01], [x10, x11]]`` and
``Y = diag(1, 2)``, ``tensor(X, Y)`` is the block matrix
``[[1*X, 0], [0, 2*X]]``, so basis order is ``|00>, |10>, |01>, |11>``
(A slot listed first inside each ket).

``vectorize`` stacks columns, so ``vectorize(G)[j * p + i] == G[i, j]``
for a ``p x q`` matrix.  All other operations here are pure index
permutations of a bipartite matrix ``Z`` with rows/cols indexed by
``(m, u)`` pairs; each carries its entry rule in the docstring and is the
single source of truth for the tests.  Each is one ``_permute`` of Z's
block view, except the four-factor ``_regroup`` (a Choi matrix ordered by
subsystem) and ``_middle_swapped_product`` (a tensor product's L).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonSquareSubsystems, ShapeMismatch, ZeroMatrix
from .numerics import DEFAULT_TOL, Tolerance, as_matrix


@dataclass(frozen=True)
class BipartiteShape:
    """Subsystem dimensions (d_A, d_B) of a bipartite operator."""

    d_A: int
    d_B: int

    def __post_init__(self):
        try:  # numpy integers pass, 2.5 does not
            operator.index(self.d_A), operator.index(self.d_B)
        except TypeError:
            raise ShapeMismatch(f"subsystem dimensions must be integers, "
                                f"got {self.d_A!r}, {self.d_B!r}") from None
        if self.d_A < 1 or self.d_B < 1:
            raise ShapeMismatch(f"subsystem dimensions must be >= 1, got {self.d_A}, {self.d_B}")

    @property
    def dim(self) -> int:
        return self.d_A * self.d_B

    def require_square_subsystems(self):
        if self.d_A != self.d_B:
            raise NonSquareSubsystems(f"requires d_A == d_B, got {self}")


def _as_bipartite(Z, shape: BipartiteShape) -> np.ndarray:
    Z = as_matrix(Z)
    if Z.shape != (shape.dim, shape.dim):
        raise ShapeMismatch(f"expected {(shape.dim, shape.dim)} for {shape}, got {Z.shape}")
    return Z


def _blocks(Z, shape: BipartiteShape) -> np.ndarray:
    """View of Z with axes (mu, m, nu, n): B block indices outside, A inside."""
    return Z.reshape(shape.d_B, shape.d_A, shape.d_B, shape.d_A)


def vectorize(G) -> np.ndarray:
    """Column-stack a p x q matrix into a length-pq vector."""
    return as_matrix(G).reshape(-1, order="F")


def devectorize(v, p: int, q: int) -> np.ndarray:
    """Inverse of :func:`vectorize`; ``v`` must have length ``p * q``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != p * q:
        raise ShapeMismatch(f"vector of length {v.size} cannot fill a {p}x{q} matrix")
    return v.reshape(p, q, order="F")


def tensor(X, Y) -> np.ndarray:
    """Tensor product with the A index varying fastest.

    Entry at ``(u * d_A + m, nu * d_A + n)`` is ``X[m, n] * Y[u, nu]``.
    Rectangular factors follow the same index rule.
    """
    return np.kron(as_matrix(Y), as_matrix(X))


def tensor_vectors(e, f) -> np.ndarray:
    """Composite of vectors ``e`` (A) and ``f`` (B); A index fastest."""
    e = np.asarray(e, dtype=complex).reshape(-1)
    f = np.asarray(f, dtype=complex).reshape(-1)
    return np.kron(f, e)


def partial_trace_B(Z, shape: BipartiteShape) -> np.ndarray:
    """Sum of the diagonal B blocks; returns a d_A x d_A matrix."""
    Z = _as_bipartite(Z, shape)
    return np.einsum("kmkn->mn", _blocks(Z, shape))


def partial_trace_A(Z, shape: BipartiteShape) -> np.ndarray:
    """Blockwise trace: entry (u, nu) is tr of block Z_{u nu}."""
    Z = _as_bipartite(Z, shape)
    return np.einsum("akbk->ab", _blocks(Z, shape))


def swap_operator(N: int) -> np.ndarray:
    """Permutation matrix sum_ij |ij><ji| on an N x N bipartite system."""
    if N < 1:
        raise ShapeMismatch(f"swap operator needs N >= 1, got {N}")
    # S[j*N + i, i*N + j] = 1: the identity with its two column factors swapped
    return np.eye(N * N).reshape(N, N, N, N).transpose(0, 1, 3, 2).reshape(N * N, N * N)


def _permute(Z, shape: BipartiteShape, axes, out=None) -> np.ndarray:
    """Z checked once, its ``_blocks`` axes (mu, m, nu, n) transposed by
    ``axes`` and reshaped to the shape ``out``, Z's own by default."""
    Z = _as_bipartite(Z, shape)
    return _blocks(Z, shape).transpose(axes).reshape(out or Z.shape)


def flip(Z, shape: BipartiteShape) -> np.ndarray:
    """S Z S: entry rule F(Z)_{mu,nv} = Z_{um,vn}; requires d_A == d_B."""
    shape.require_square_subsystems()
    return _permute(Z, shape, (1, 0, 3, 2))


def flip_row(Z, shape: BipartiteShape) -> np.ndarray:
    """S Z (row flip)."""
    shape.require_square_subsystems()
    return _permute(Z, shape, (1, 0, 2, 3))


def flip_col(Z, shape: BipartiteShape) -> np.ndarray:
    """Z S (column flip)."""
    shape.require_square_subsystems()
    return _permute(Z, shape, (0, 1, 3, 2))


def partial_transpose(Z, shape: BipartiteShape, which: str = "both") -> np.ndarray:
    """Partial transposition.

    ``which='A'``: T_A(Z)_{mu,nv} = Z_{nu,mv}; ``'B'``: T_B(Z)_{mu,nv} =
    Z_{mv,nu}; ``'both'`` is the full transpose.
    """
    axes = {"A": (0, 3, 2, 1), "B": (2, 1, 0, 3), "both": (2, 3, 0, 1)}
    if not isinstance(which, str) or which not in axes:
        _as_bipartite(Z, shape)  # a bad matrix is reported before a bad which
        raise InvalidArgument(f"which must be 'A', 'B' or 'both', got {which!r}")
    return _permute(Z, shape, axes[which])


def realign(Z, shape: BipartiteShape) -> np.ndarray:
    """Realignment R: columns are the vectorized B blocks of Z.

    Entry rule ``R(Z)[n * d_A + m, nu * d_B + u] = Z[u * d_A + m, nu * d_A + n]``;
    output is ``d_A^2 x d_B^2``.  Involution for square shapes.
    """
    # blocks axes (u, m, nu, n) -> rows (n, m), cols (nu, u)
    return _permute(Z, shape, (3, 1, 2, 0), (shape.d_A ** 2, shape.d_B ** 2))


def realign_inverse(R, shape: BipartiteShape) -> np.ndarray:
    """Inverse of :func:`realign` for possibly rectangular shapes."""
    R = as_matrix(R)
    if R.shape != (shape.d_A ** 2, shape.d_B ** 2):
        raise ShapeMismatch(f"expected {(shape.d_A ** 2, shape.d_B ** 2)}, got {R.shape}")
    four = R.reshape(shape.d_A, shape.d_A, shape.d_B, shape.d_B)  # (n, m, nu, u)
    return four.transpose(3, 1, 2, 0).reshape(shape.dim, shape.dim)


def realign_prime(Z, shape: BipartiteShape) -> np.ndarray:
    """The second alignment: R'(Z)_{mn,uv} = Z_{vn,um}; needs d_A == d_B."""
    shape.require_square_subsystems()
    # R'(Z)[n*N + m, v*N + u] = Z[n*N + v, m*N + u]: blocks axes (n, v, m, u)
    return _permute(Z, shape, (0, 2, 1, 3))


def product_factorize(Z, shape: BipartiteShape, tol: Tolerance = DEFAULT_TOL):
    """Recover (X, Y) with Z = tensor(X, Y), or None if Z is not a product.

    Z is a product operator iff its realignment has rank 1 (then
    ``R(Z) = |X>><<Y*|``).  The scale split is balanced:
    ``||X||_F == ||Y||_F``.
    """
    R = realign(Z, shape)
    if not np.any(np.abs(R) > 0):
        raise ZeroMatrix("cannot factorize the zero matrix")
    U, s, Vh = np.linalg.svd(R)
    if tol.rank(s) != 1:
        return None
    # R = |X>><<Y*|, so the leading right singular vector is vec(Y*).
    x = np.sqrt(s[0]) * U[:, 0]
    y_star = np.sqrt(s[0]) * Vh[0, :].conj()
    X = devectorize(x, shape.d_A, shape.d_A)
    Y = devectorize(y_star, shape.d_B, shape.d_B).conj()
    return X, Y


def middle_swap(N: int) -> np.ndarray:
    """The I (x) S (x) I permutation on four N-dimensional factors.

    Type-I throughout: the first factor's index is fastest, so in kron
    terms this is ``kron(I, kron(S, I))`` with the identity factors on
    the outside.
    """
    S = swap_operator(N)  # first, so N < 1 raises its ShapeMismatch
    return np.kron(np.eye(N), np.kron(S, np.eye(N)))


def _middle_swapped_product(X: np.ndarray, Y: np.ndarray, x_dims, y_dims) -> np.ndarray:
    """``P kron(X, Y) Q`` with P, Q the middle swaps of the factors' axes.

    ``x_dims = (a1, a0, c1, c0)`` are the sizes of X's row pair (a1, a0)
    and column pair (c1, c0), ``y_dims = (b1, b0, d1, d0)`` those of Y.
    Entry ``[(a1,b1,a0,b0), (c1,d1,c0,d0)]`` is
    ``X[(a1,a0), (c1,c0)] * Y[(b1,b0), (d1,d0)]``, the same single
    product as in the kron, written once into the output.
    """
    x_axes = [n for size in x_dims for n in (size, 1)]
    y_axes = [n for size in y_dims for n in (1, size)]
    out = np.multiply(X.reshape(x_axes), Y.reshape(y_axes), dtype=complex)
    return out.reshape(x_dims[0] * x_dims[1] * y_dims[0] * y_dims[1], -1)


def _regroup(D: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix regrouped by subsystem: ``P D P`` with ``P = middle_swap(d)``.

    The Choi matrix of a map on a d (x) d bipartite system indexes its
    rows by (output, input) pairs; regrouping by subsystem instead is the
    middle-factor swap, applied here as one reshape-transpose.
    """
    n = d ** 4
    return D.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(n, n)
