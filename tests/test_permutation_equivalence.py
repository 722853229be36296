"""The channel-algebra permutations against their dense-matrix definitions.

The library applies ``middle_swap`` and ``swap_operator`` as index
permutations (reshape-transposes and broadcast products), converts
between Liouville and Choi matrices with ``realign``/``realign_inverse``,
and builds the Q coefficients and basis Gram matrices with a few matrix
products.  The references here are the dense permutation products, the
index permutations the library used before, and the per-entry loops
those are defined by: pure permutations must agree exactly, sums to
1e-12.
"""

import numpy as np
import pytest

from choiscope.bsa import _regroup, bipartite_choi
from choiscope.channels import (choi_to_liouville, liouville_to_choi,
                                tensor_channels, transpose_conjugations)
from choiscope.errors import NotOrthonormal
from choiscope.generators import random_cp_channel
from choiscope.reshape import middle_swap, swap_operator, tensor, vectorize
from choiscope.superop_space import (OperatorBasis, coefficients,
                                     elementary_basis, rotated_basis)

from oracles import (coefficients_by_entries, liouville_choi_permute,
                     swap_conjugate_by_index)

SIZES = [1, 2, 3, 4, 5]
SEEDS = [0, 1, 2]


def _pair(N, seed):
    return random_cp_channel(N, N, seed), random_cp_channel(N, N, seed + 100)


def _dense_swap_operator(N):
    S = np.zeros((N * N, N * N))
    for i in range(N):
        for j in range(N):
            S[j * N + i, i * N + j] = 1.0
    return S


def _dense_bipartite_choi(operators, d):
    P = middle_swap(d)
    E = np.zeros((d ** 4, d ** 4), dtype=complex)
    for M in operators:
        w = P @ vectorize(M)
        E += np.outer(w, w.conj())
    return E


@pytest.mark.parametrize("N", SIZES)
def test_swap_operator_matches_double_loop(N):
    S = swap_operator(N)
    assert S.dtype == np.float64
    assert np.array_equal(S, _dense_swap_operator(N))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_regroup_is_the_dense_middle_swap(d):
    rng = np.random.default_rng(d)
    D = rng.normal(size=(d ** 4, d ** 4)) + 1j * rng.normal(size=(d ** 4, d ** 4))
    P = middle_swap(d)
    assert np.array_equal(_regroup(D, d), P @ D @ P)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", SIZES)
def test_tensor_channels_matches_dense_middle_swap(N, seed):
    phi, psi = _pair(N, seed)
    product = tensor_channels(phi, psi)
    P = middle_swap(N)
    L = P @ tensor(phi.liouville, psi.liouville) @ P
    assert np.array_equal(product.liouville, L)
    assert np.array_equal(product.choi, liouville_to_choi(L, N * N, N * N))
    kraus = [tensor(G, H) for G in phi.kraus for H in psi.kraus]
    assert len(product.kraus) == len(kraus)
    assert all(np.array_equal(a, b) for a, b in zip(product.kraus, kraus))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", SIZES)
def test_bipartite_choi_matches_dense_middle_swap(N, seed):
    phi, psi = _pair(N, seed)
    kraus = tensor_channels(phi, psi).kraus
    want = _dense_bipartite_choi(kraus, N)
    assert np.max(np.abs(bipartite_choi(kraus, N) - want)) <= 1e-12
    assert np.max(np.abs(bipartite_choi(kraus, N, normalized=True)
                         - want / (N * N))) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", SIZES)
def test_transpose_conjugations_match_dense_swap(N, seed):
    phi = random_cp_channel(N, N, seed)
    S = _dense_swap_operator(N)
    L = phi.liouville
    for mode, want in (("left", S @ L), ("right", L @ S), ("both", S @ L @ S)):
        assert np.array_equal(transpose_conjugations(phi, mode).liouville, want)


@pytest.mark.parametrize("d_in,d_out", [(1, 1), (1, 3), (2, 3), (3, 2),
                                        (4, 4), (5, 5), (2, 5)])
def test_liouville_choi_conversions_match_former_permutation(d_in, d_out):
    phi = random_cp_channel(d_in, d_out, 7)
    L, D = phi.liouville, phi.choi
    assert np.array_equal(liouville_to_choi(L, d_in, d_out),
                          liouville_choi_permute(L, d_in, d_out, to_choi=True))
    assert np.array_equal(choi_to_liouville(D, d_in, d_out),
                          liouville_choi_permute(D, d_in, d_out, to_choi=False))


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_transpose_conjugations_match_former_index_map(N):
    phi = random_cp_channel(N, N, 3)
    for mode in ("left", "right", "both"):
        assert np.array_equal(transpose_conjugations(phi, mode).liouville,
                              swap_conjugate_by_index(phi.liouville, N, mode))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", SIZES)
def test_coefficients_Q_matches_entry_loop(N, seed):
    phi = random_cp_channel(N, N, seed)
    for E, F in ((elementary_basis(N), elementary_basis(N)),
                 (rotated_basis(N, seed), rotated_basis(N, seed + 1))):
        Q = coefficients(phi, E, F).Q
        _, want = coefficients_by_entries(phi.liouville, E, F)
        assert np.max(np.abs(Q - want)) <= 1e-12


@pytest.mark.parametrize("N", SIZES)
def test_non_orthonormal_basis_is_rejected(N):
    els = list(elementary_basis(N).elements)
    scaled = [2.0 * els[0]] + els[1:]
    with pytest.raises(NotOrthonormal):
        OperatorBasis(tuple(scaled))
    if N > 1:
        repeated = [els[0], els[0]] + els[2:]
        with pytest.raises(NotOrthonormal):
            OperatorBasis(tuple(repeated))
        rotated = list(rotated_basis(N, 0).elements)
        skewed = [rotated[0] + 1e-6 * rotated[1]] + rotated[1:]
        with pytest.raises(NotOrthonormal):
            OperatorBasis(tuple(skewed))
