"""Named and random generators for channels and states.

Fixture factory used by the CLI and the test-suite: the named maps of
the calculus (identity, transpose, depolarizing, swap conjugation) plus
seeded random CP-TP channels (Stinespring isometry) and random density
matrices.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, identity_channel, transpose_channel
from .errors import DimensionMismatch, NonFinite, ShapeMismatch
from .numerics import check_index
from .reshape import swap_operator, tensor_vectors, vectorize


def depolarizing_channel(N: int, p: float) -> Channel:
    """rho -> (1 - p) rho + p * tr(rho) I/N."""
    if N < 1:
        raise ShapeMismatch(f"depolarizing channel needs N >= 1, got {N}")
    if not np.isfinite(p):
        raise NonFinite(f"depolarizing strength must be finite, got {p!r}")
    L = (1.0 - p) * np.eye(N * N, dtype=complex)
    ident = vectorize(np.eye(N))
    L += (p / N) * np.outer(ident, ident.conj())
    return Channel.from_liouville(L, N, N)


def swap_channel(N: int) -> Channel:
    """Unitary conjugation by the swap operator on an N (x) N system."""
    return Channel.from_kraus([swap_operator(N).astype(complex)])


def random_unitary(d: int, rng) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_cp_channel(d_in: int, d_out: int, seed: int,
                      kraus_count: int = 0) -> Channel:
    """Random CP-TP channel from a Haar-ish Stinespring isometry.

    The isometry's column-orthonormality makes the Kraus blocks satisfy
    sum G^dag G = I exactly, so the result is always trace preserving.
    """
    if d_in < 1 or d_out < 1:
        raise ShapeMismatch(f"random_cp_channel needs d_in, d_out >= 1, got {d_in}, {d_out}")
    if kraus_count < 0:
        raise ShapeMismatch(f"kraus_count must be >= 0, got {kraus_count}")
    check_index(seed, "seed")
    rng = np.random.default_rng(seed)
    k = kraus_count if kraus_count > 0 else d_out
    A = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    if k * d_out < d_in:
        raise DimensionMismatch("environment too small for an isometry")
    Q, _ = np.linalg.qr(A)
    kraus = [Q[i * d_out:(i + 1) * d_out, :] for i in range(k)]
    return Channel.from_kraus(kraus, d_in=d_in, d_out=d_out)


def random_state(d: int, seed: int, rank: int = 0) -> np.ndarray:
    """Random density matrix (Wishart, normalized to unit trace); rank 0 is full rank."""
    if d < 1:
        raise ShapeMismatch(f"a state needs d >= 1, got {d}")
    if not 0 <= rank <= d:
        raise ShapeMismatch(f"rank must be in 0..{d}, got {rank}")
    check_index(seed, "seed")
    rng = np.random.default_rng(seed)
    r = rank if rank > 0 else d
    A = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def random_product_mixture(d_A: int, d_B: int, n_terms: int, seed: int) -> np.ndarray:
    """Separable state: uniform mixture of random product projectors."""
    if n_terms < 1:
        raise ShapeMismatch(f"a product mixture needs n_terms >= 1, got {n_terms}")
    if d_A < 1 or d_B < 1:
        raise ShapeMismatch(f"subsystem dimensions must be >= 1, got {d_A}, {d_B}")
    check_index(seed, "seed")
    rng = np.random.default_rng(seed)
    d = d_A * d_B
    rho = np.zeros((d, d), dtype=complex)
    for _ in range(n_terms):
        e = rng.normal(size=d_A) + 1j * rng.normal(size=d_A)
        f = rng.normal(size=d_B) + 1j * rng.normal(size=d_B)
        v = tensor_vectors(e / np.linalg.norm(e), f / np.linalg.norm(f))
        rho += np.outer(v, v.conj())
    return rho / n_terms


def werner_state(p: float) -> np.ndarray:
    """p |psi-><psi-| + (1 - p) I/4 on two qubits."""
    singlet = np.zeros(4, dtype=complex)
    singlet[2] = 1 / np.sqrt(2)   # |0>_A |1>_B at flat index 1*2+0
    singlet[1] = -1 / np.sqrt(2)  # |1>_A |0>_B at flat index 0*2+1
    return p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0


NAMED_CHANNELS = {
    "identity": identity_channel,
    "transpose": transpose_channel,
    "swap": swap_channel,
}
