"""Quantum channels in Kraus, Liouville and Choi (dynamical-matrix) form.

A channel ``rho -> sum_j G_j rho G_j^dag`` from a ``d_in``- to a
``d_out``-dimensional system is carried by its Liouville matrix ``L``
(``vec(sigma) = L vec(rho)``, shape ``d_out^2 x d_in^2``) as the
canonical representation.  The dynamical matrix ``D =
realign_inverse(L)`` (so ``L = realign(D)``) is a ``(d_out * d_in)``-square
bipartite operator with the output system as party A and the input
system as party B.  ``D`` is kept unnormalized: ``Tr D = d_in`` for
trace-preserving maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, NonFinite,
                     NotCompletelyPositive, ShapeMismatch)
from .numerics import (DEFAULT_TOL, Tolerance, as_matrix, eig_hermitian,
                       hermitian_gap, hs_inner, range_mask)
from .reshape import (BipartiteShape, _blocks, _middle_swapped_product, devectorize, flip,
                      flip_col, flip_row, partial_trace_B, realign, realign_inverse,
                      swap_operator, tensor, vectorize)


# Entries of L's terms that kraus_to_liouville builds at once: a 2**18-entry
# complex chunk is 4 MB, so a long set of large operators is summed a few
# operators at a time and never holds all r terms of L.
KRAUS_CHUNK_ENTRIES = 1 << 18


def _kraus_stack(operators: Sequence[np.ndarray]) -> np.ndarray:
    """A Kraus set as one ``(r, d_out, d_in)`` complex array.

    One conversion, one shape check and one finiteness pass over the
    whole set, raising the typed errors of checking each operator with
    :func:`~choiscope.numerics.as_matrix`.  Operators of different shapes
    do not stack; they are checked one by one first, so a non-matrix or
    non-finite operator is reported before the shape mismatch.
    """
    if not (isinstance(operators, np.ndarray) and operators.ndim):
        operators = list(operators)  # any iterable, as a per-operator loop takes
    try:
        K = np.asarray(operators, dtype=complex)
    except ValueError:
        for G in operators:
            as_matrix(G)
        raise ShapeMismatch("Kraus operators differ in shape") from None
    if not len(K):
        raise ShapeMismatch("empty Kraus set")
    if K.ndim != 3:
        raise ShapeMismatch(f"expected a matrix, got ndim={K.ndim - 1}")
    if not np.isfinite(K).all():
        raise NonFinite("matrix contains non-finite entries")
    return K


def _sum_in_order(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``acc + terms[0] + terms[1] + ...``, added left to right as a ``+=`` loop adds.

    ``ndarray.sum`` over axis 0 adds term by term, except when each term
    is a single entry: numpy sums a contiguous run pairwise, so those are
    added in a loop.  ``terms`` is a scratch array and is overwritten.
    """
    if acc.size == 1:
        for term in terms:
            acc = acc + term
        return acc
    terms[0] += acc
    return terms.sum(axis=0)


def _stack_liouville(K: np.ndarray) -> np.ndarray:
    """L of a stacked Kraus set; see :func:`kraus_to_liouville`."""
    r, d_out, d_in = K.shape
    L = np.zeros((d_out, d_out, d_in, d_in), dtype=complex)
    step = max(1, KRAUS_CHUNK_ENTRIES // max(1, L.size))
    for j in range(0, r, step):
        G = K[j:j + step]
        L = _sum_in_order(L, G.conj()[:, :, None, :, None] * G[:, None, :, None, :])
    return L.reshape(d_out * d_out, d_in * d_in)


def kraus_to_liouville(operators: Sequence[np.ndarray]) -> np.ndarray:
    """L = sum_j G_j (x) G_j^* (type-I tensor).

    The set is stacked once and every term is one broadcast product,
    entry ``[(u, m), (v, n)]`` of term j being ``conj(G_j[u, v]) *
    G_j[m, n]``, the operands of ``np.kron(G_j^*, G_j)`` in their order.
    The terms are added from zero in operator order, so L equals the
    per-operator kron loop bit for bit.
    """
    return _stack_liouville(_kraus_stack(operators))


def liouville_to_choi(L: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """D = :func:`~choiscope.reshape.realign_inverse` of L, output as party A."""
    return realign_inverse(L, BipartiteShape(d_out, d_in))


def choi_to_liouville(D: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """L = :func:`~choiscope.reshape.realign` of D, output as party A."""
    return realign(D, BipartiteShape(d_out, d_in))


def choi_to_kraus(D: np.ndarray, d_in: int, d_out: int,
                  tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Kraus operators from the eigendecomposition of a PSD Choi matrix.

    Eigenvalues at or below ``-tol.psd_floor(w)`` are discarded
    (:func:`range_mask`); one below :meth:`Tolerance.psd_floor` means the
    map is not CP and raises.
    """
    w, V = eig_hermitian(D, tol)
    if w[0] < (floor := tol.psd_floor(w)):
        raise NotCompletelyPositive(
            f"Choi matrix has eigenvalue {w[0]:.3e} < -(atol + rtol * max|w|) = {floor:.3e}")
    if w.size != d_out * d_in:
        raise ShapeMismatch(
            f"vector of length {w.size} cannot fill a {d_out}x{d_in} matrix")
    keep = np.flatnonzero(range_mask(w, tol))[::-1]  # largest eigenvalue first
    if not keep.size:
        return [np.zeros((d_out, d_in), dtype=complex)]
    # column j of cols is vectorize(G_j); devectorize them all in one reshape
    cols = V[:, keep] * np.sqrt(w[keep])
    return list(cols.T.reshape(keep.size, d_in, d_out).transpose(0, 2, 1))


@dataclass(frozen=True)
class Channel:
    """A linear map on states, canonically stored as its Liouville matrix.

    The Choi matrix is computed eagerly so instances are immutable and
    freely shareable; ``choi`` is the realignment of ``liouville`` (the
    index permutation of ``liouville_to_choi``), and ``validate`` relies
    on this without checking it.  ``kraus`` is kept
    when the channel was built from (or converted to) an operator-sum
    form, and when set it is an operator-sum form of ``liouville`` and
    ``choi``: ``D = sum_j vec(G_j) vec(G_j)^dag``.  ``apply``,
    ``kraus_operators`` and ``validate`` rely on this without checking it.
    ``from_kraus`` stacks the set once into an ``(r, d_out, d_in)`` array
    and ``kraus`` holds views of it, one per operator.
    """

    liouville: np.ndarray
    d_in: int
    d_out: int
    choi: np.ndarray
    kraus: Optional[tuple] = None

    @classmethod
    def from_liouville(cls, L, d_in: int, d_out: int) -> "Channel":
        D = liouville_to_choi(L, d_in, d_out)  # checks L
        return cls(np.asarray(L, dtype=complex), d_in, d_out, D)

    @classmethod
    def from_kraus(cls, operators: Sequence[np.ndarray], d_in: int = 0,
                   d_out: int = 0) -> "Channel":
        K = _kraus_stack(operators)
        _, shape_out, shape_in = K.shape
        if (d_in and d_in != shape_in) or (d_out and d_out != shape_out):
            raise DimensionMismatch(
                f"Kraus operators are {K.shape[1:]}, expected "
                f"({d_out or shape_out}, {d_in or shape_in})")
        L = _stack_liouville(K)
        return cls(L, shape_in, shape_out,
                   liouville_to_choi(L, shape_in, shape_out), kraus=tuple(K))

    @classmethod
    def from_choi(cls, D, d_in: int, d_out: int) -> "Channel":
        L = choi_to_liouville(D, d_in, d_out)  # checks D
        return cls(L, d_in, d_out, np.asarray(D, dtype=complex))

    @property
    def choi_shape(self) -> BipartiteShape:
        """Bipartite shape of the Choi matrix: A = output, B = input."""
        return BipartiteShape(self.d_out, self.d_in)

    def kraus_operators(self, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        if self.kraus is not None:
            return list(self.kraus)
        return choi_to_kraus(self.choi, self.d_in, self.d_out, tol)


def identity_channel(N: int) -> Channel:
    return Channel.from_kraus([np.eye(N)])


def transpose_channel(N: int) -> Channel:
    """The transpose map rho -> rho^t; Liouville matrix is the swap operator."""
    return Channel.from_liouville(swap_operator(N), N, N)


def apply(channel: Channel, rho, route: str = "auto") -> np.ndarray:
    """Apply the channel to a state.

    ``route`` selects the evaluation path: ``"kraus"`` (operator sum,
    default when available), ``"liouville"`` (``vec`` action) or
    ``"choi"`` (partial trace over the input copy).  The Kraus route is
    one batched product ``K rho K^dag`` over the stacked operators, its
    images added from zero in operator order.
    """
    rho = as_matrix(rho)
    if rho.shape != (channel.d_in, channel.d_in):
        raise ShapeMismatch(f"state is {rho.shape}, channel input dim is {channel.d_in}")
    if route == "auto":
        route = "kraus" if channel.kraus is not None else "liouville"
    if route == "kraus":
        K = np.asarray(channel.kraus_operators())
        return _sum_in_order(np.zeros((channel.d_out, channel.d_out), dtype=complex),
                             K @ rho @ K.conj().transpose(0, 2, 1))
    if route == "liouville":
        return devectorize(channel.liouville @ vectorize(rho),
                           channel.d_out, channel.d_out)
    if route == "choi":
        block = channel.choi @ tensor(np.eye(channel.d_out), rho.T)
        return partial_trace_B(block, channel.choi_shape)
    raise InvalidArgument(f"unknown route {route!r}")


@dataclass(frozen=True)
class ValidationReport:
    hermiticity_preserving: bool
    trace_preserving: bool
    trace_nonincreasing: bool
    completely_positive: bool
    choi_trace: float
    min_choi_eigenvalue: float

    @property
    def is_channel(self) -> bool:
        return (self.hermiticity_preserving and self.trace_preserving
                and self.completely_positive)


def validate(channel: Channel, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Diagnose the channel; never raises, the report carries the findings.

    The Hermitian gap of ``D``, taken once, is judged by
    :meth:`Tolerance.allows_gap` and its least eigenvalue by
    :meth:`Tolerance.psd_floor`.  A channel carrying r < n = d_out * d_in
    Kraus operators has ``D = K K^dag`` with r columns, PSD and singular,
    so its least eigenvalue is exactly 0 with no decomposition; every
    other channel takes the spectrum of the Hermitian part of ``D``.  The hermiticity and
    trace checks read ``D`` alone: ``D`` is the realignment of ``L``, so
    ``conj(tr_A D)`` is the dual map's image of the identity
    (``sum_j G_j^dag G_j``), and ``L`` is never read.  A ``D`` with a NaN
    or infinite entry has a non-finite gap; it is reported not hermiticity
    preserving, not trace-nonincreasing and not CP, with a NaN least
    eigenvalue, and no spectrum is taken.
    """
    D = channel.choi
    asymmetry = hermitian_gap(D)
    finite = bool(np.isfinite(asymmetry))
    hermiticity = finite and tol.allows_gap(asymmetry, D)
    # partial_trace_A without its finiteness check, which would raise on a NaN
    tr_A = np.einsum("akbk->ab", _blocks(D, channel.choi_shape))
    trace_preserving = bool(np.max(np.abs(tr_A - np.eye(channel.d_in))) <= tol.atol)
    unital_image = tr_A.conj()
    gap = np.eye(channel.d_in) - (unital_image + unital_image.conj().T) / 2.0
    trace_nonincreasing = finite and bool(np.linalg.eigvalsh(gap)[0] >= -tol.atol)
    w = np.full(1, np.nan)  # D's ascending spectrum, as far as the CP check reads it
    if finite and channel.kraus is not None and len(channel.kraus) < D.shape[0]:
        w = np.zeros(1)
    elif finite:
        w = np.linalg.eigvalsh((D + D.conj().T) / 2.0)
    min_eig = float(w[0])
    completely_positive = hermiticity and min_eig >= tol.psd_floor(w)
    return ValidationReport(
        hermiticity_preserving=hermiticity,
        trace_preserving=trace_preserving,
        trace_nonincreasing=trace_nonincreasing,
        completely_positive=completely_positive,
        choi_trace=float(np.trace(D).real),
        min_choi_eigenvalue=min_eig,
    )


def dual(channel: Channel) -> Channel:
    """Adjoint with respect to the Hilbert-Schmidt inner product."""
    kraus = None
    if channel.kraus is not None:
        kraus = tuple(np.asarray(channel.kraus).conj().transpose(0, 2, 1))
    L = channel.liouville.conj().T
    return Channel(L, channel.d_out, channel.d_in,
                   liouville_to_choi(L, channel.d_out, channel.d_in), kraus=kraus)


def compose(phi: Channel, psi: Channel) -> Channel:
    """phi after psi: L = L_phi L_psi."""
    if phi.d_in != psi.d_out:
        raise ShapeMismatch(
            f"cannot compose: inner dimensions {phi.d_in} != {psi.d_out}")
    return Channel.from_liouville(phi.liouville @ psi.liouville,
                                  psi.d_in, phi.d_out)


def compose_choi(D_phi: np.ndarray, D_psi: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix of the composition via the double-realignment formula."""
    sh = BipartiteShape(d, d)
    return realign(realign(D_phi, sh) @ realign(D_psi, sh), sh)


def mix(coeffs: Sequence[float], channels: Sequence[Channel]) -> Channel:
    if len(coeffs) != len(channels) or not channels:
        raise ShapeMismatch("need one coefficient per channel")
    d_in, d_out = channels[0].d_in, channels[0].d_out
    if any((c.d_in, c.d_out) != (d_in, d_out) for c in channels):
        raise ShapeMismatch("mixed channels must share dimensions")
    L = sum(r * c.liouville for r, c in zip(coeffs, channels))
    return Channel.from_liouville(L, d_in, d_out)


def tensor_channels(phi: Channel, psi: Channel) -> Channel:
    """Product channel phi (x) psi, phi acting on the fastest (A) factor.

    For a d1 -> d1' map phi and a d2 -> d2' map psi the product maps
    d1 d2 to d1' d2' dimensions, and
    ``L = (I(x)S(x)I)(L_phi (x) L_psi)(I(x)S(x)I)`` with the swaps on the
    factors' shaped axes, written by one broadcast product of the
    factors' entries straight into the middle-swapped layout
    (:func:`~choiscope.reshape._middle_swapped_product`); ``D`` is its
    realignment.  Kraus operators, when both factors carry them, are the
    pairwise type-I tensors, built in one broadcast over the stacked operators.
    """
    L = _middle_swapped_product(psi.liouville, phi.liouville,
                                (psi.d_out, psi.d_out, psi.d_in, psi.d_in),
                                (phi.d_out, phi.d_out, phi.d_in, phi.d_in))
    d_in, d_out = phi.d_in * psi.d_in, phi.d_out * psi.d_out
    kraus = None
    if phi.kraus is not None and psi.kraus is not None:
        G = np.asarray(phi.kraus)
        H = np.asarray(psi.kraus)
        # tensor(G_i, H_j)[(h, g), (h', g')] = H_j[h, h'] * G_i[g, g']
        pairs = H[None, :, :, None, :, None] * G[:, None, None, :, None, :]
        kraus = tuple(pairs.reshape(-1, d_out, d_in))
    return Channel(L, d_in, d_out, liouville_to_choi(L, d_in, d_out), kraus=kraus)


def transpose_conjugations(channel: Channel, mode: str) -> Channel:
    """Conjugate the channel by the transpose map.

    ``left``: T o phi (L -> S L, :func:`~choiscope.reshape.flip_row`);
    ``right``: phi o T (L -> L S, :func:`~choiscope.reshape.flip_col`);
    ``both``: T o phi o T (L -> S L S = L^*, :func:`~choiscope.reshape.flip`).
    """
    if channel.d_in != channel.d_out:
        raise ShapeMismatch("transpose conjugation requires a square channel")
    flips = {"left": flip_row, "right": flip_col, "both": flip}
    if mode not in flips:
        raise InvalidArgument(f"mode must be 'left', 'right' or 'both', got {mode!r}")
    L = flips[mode](channel.liouville, BipartiteShape(channel.d_in, channel.d_in))
    return Channel.from_liouville(L, channel.d_in, channel.d_out)


def superop_hs_inner(phi: Channel, psi: Channel) -> complex:
    """<L_phi, L_psi>, equal to <D_phi, D_psi> (the realignment is isometric)."""
    return hs_inner(phi.liouville, psi.liouville)
