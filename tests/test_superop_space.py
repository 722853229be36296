import numpy as np
import pytest

from choiscope.channels import Channel, identity_channel, transpose_channel
from choiscope.errors import NotOrthonormal, ShapeMismatch
from choiscope.generators import random_cp_channel, random_unitary
from choiscope.numerics import hs_inner
from choiscope.reshape import devectorize, swap_operator, tensor, vectorize
from choiscope.superop_space import (OperatorBasis, SuperopCoeffs, _columns,
                                     coefficients, convert_coeffs,
                                     delta_liouville, elementary_basis,
                                     lambda_iso, rotated_basis, superop_inner,
                                     theta_liouville)

from oracles import (basis_resolution_checks, coefficients_by_entries,
                     delta_sum, lambda_iso_sum, superop_inner_sum, theta_sum,
                     trace_kernel_convert)


def test_elementary_basis_is_orthonormal():
    E = elementary_basis(3)
    assert len(E) == 9
    for a, Ea in enumerate(E):
        for b, Eb in enumerate(E):
            assert abs(hs_inner(Ea, Eb) - (a == b)) < 1e-12


def test_rotated_basis_orthonormal_and_seeded():
    B1 = rotated_basis(2, seed=5)
    B2 = rotated_basis(2, seed=5)
    for M1, M2 in zip(B1, B2):
        assert np.allclose(M1, M2)
    G = np.array([[hs_inner(A, B) for B in B1] for A in B1])
    assert np.allclose(G, np.eye(4), atol=1e-10)


def test_operator_basis_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        OperatorBasis((np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))))


@pytest.mark.parametrize("make", [lambda: OperatorBasis(()),
                                  lambda: elementary_basis(0),
                                  lambda: rotated_basis(0, 1),
                                  lambda: elementary_basis(-1),
                                  lambda: rotated_basis(-1, 1),
                                  lambda: elementary_basis(-2)])
def test_empty_basis_is_a_shape_mismatch(make):
    with pytest.raises(ShapeMismatch, match="empty operator basis"):
        make()


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_rotated_basis_columns_are_random_unitary(N, seed):
    B = rotated_basis(N, seed)
    U = random_unitary(N * N, np.random.default_rng(seed))
    assert np.array_equal(B.columns, U)
    assert _columns(B, N) is B.columns
    for a, E in enumerate(B):
        assert np.array_equal(E, devectorize(U[:, a], N, N))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_elementary_basis_columns_are_the_identity(N):
    B = elementary_basis(N)
    assert np.array_equal(B.columns, np.eye(N * N))
    assert _columns(B, N) is B.columns
    for a, E in enumerate(B):
        assert np.array_equal(E, devectorize(B.columns[:, a], N, N))


def test_inner_product_basis_independent():
    phi = random_cp_channel(2, 2, seed=1)
    psi = random_cp_channel(2, 2, seed=2)
    values = [superop_inner(phi, psi, rotated_basis(2, seed=s)) for s in (0, 1, 2)]
    values.append(superop_inner(phi, psi, elementary_basis(2)))
    spread = max(abs(v - values[0]) for v in values)
    assert spread < 1e-8


def test_delta_theta_gram_identity():
    E = elementary_basis(2)
    F = elementary_basis(2)
    deltas = [delta_liouville(Ea, Fb) for Ea in E for Fb in F]
    thetas = [theta_liouville(Ea, Fb) for Ea in E for Fb in F]
    for fam in (deltas, thetas):
        G = np.array([[hs_inner(A, B) for B in fam] for A in fam])
        assert np.allclose(G, np.eye(16), atol=1e-9)


def test_coefficients_reconstruct():
    phi = random_cp_channel(2, 2, seed=3)
    for E, F in [(elementary_basis(2), elementary_basis(2)),
                 (rotated_basis(2, 0), rotated_basis(2, 1))]:
        co = coefficients(phi, E, F)
        assert np.allclose(co.reconstruct_from_P(), phi.liouville, atol=1e-8)
        assert np.allclose(co.reconstruct_from_Q(), phi.liouville, atol=1e-8)


def test_kernel_roundtrip():
    phi = random_cp_channel(2, 2, seed=4)
    E, F = rotated_basis(2, 7), rotated_basis(2, 8)
    co = coefficients(phi, E, F)
    Q_from_P = convert_coeffs(co.P, E, F)
    assert np.allclose(Q_from_P, co.Q, atol=1e-8)
    P_back = convert_coeffs(Q_from_P, E, F)
    assert np.allclose(P_back, co.P, atol=1e-8)


def test_kernel_trivial_for_dim_one():
    E = OperatorBasis((np.eye(1, dtype=complex),))
    C = np.array([[2.5 + 0.5j]])
    assert np.allclose(convert_coeffs(C, E, E), C)


def test_lambda_iso_preserves_inner_product():
    E, F = rotated_basis(2, 3), rotated_basis(2, 4)
    phi = random_cp_channel(2, 2, seed=5)
    psi = random_cp_channel(2, 2, seed=6)
    lhs = superop_inner(phi, psi, elementary_basis(2))
    rhs = hs_inner(lambda_iso(phi, E, F), lambda_iso(psi, E, F))
    assert abs(lhs - rhs) < 1e-8


def test_resolution_identities():
    for basis in (elementary_basis(2), rotated_basis(2, 9)):
        assert basis_resolution_checks(basis, atol=1e-9)
    # spelled out: sum E (x) E* is the vec(I) dyad, sum E (x) E^dag the swap
    E = elementary_basis(2)
    s1 = sum(tensor(M, M.conj()) for M in E)
    s2 = sum(tensor(M, M.conj().T) for M in E)
    v = vectorize(np.eye(2))
    assert np.allclose(s1, np.outer(v, v.conj()), atol=1e-12)
    assert np.allclose(s2, swap_operator(2), atol=1e-12)


def test_coefficients_rejects_mismatched_dimensions():
    # a basis of the wrong dimension, and a non-square channel: typed
    # errors, not a raw numpy shape error
    phi = random_cp_channel(2, 2, 0)
    with pytest.raises(ShapeMismatch):
        coefficients(phi, elementary_basis(3), elementary_basis(3))
    with pytest.raises(ShapeMismatch):
        coefficients(phi, elementary_basis(2), elementary_basis(3))
    with pytest.raises(ShapeMismatch):
        coefficients(random_cp_channel(2, 3, 0), elementary_basis(2),
                     elementary_basis(2))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_closed_forms_match_basis_loops(N):
    # the matrix-product forms against the sums over basis elements and
    # pairs that define them, for a CP map and for the (non-CP) transpose
    psi = random_cp_channel(N, N, N + 40)
    for phi in (random_cp_channel(N, N, N), transpose_channel(N)):
        for E, F in ((elementary_basis(N), elementary_basis(N)),
                     (rotated_basis(N, N), rotated_basis(N, N + 20))):
            co = coefficients(phi, E, F)
            P, Q = coefficients_by_entries(phi.liouville, E, F)
            pairs = [(co.P, P), (co.Q, Q),
                     (co.reconstruct_from_P(), delta_sum(co.P, E, F)),
                     (co.reconstruct_from_Q(), theta_sum(co.Q, E, F)),
                     (convert_coeffs(co.P, E, F), trace_kernel_convert(co.P, E, F)),
                     (convert_coeffs(co.Q, E, F), trace_kernel_convert(co.Q, E, F)),
                     (lambda_iso(phi, E, F), lambda_iso_sum(phi, E, F))]
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-12
            assert abs(superop_inner(phi, psi, E)
                       - superop_inner_sum(phi, psi, E)) <= 1e-12


def test_basis_maps_reject_mismatched_dimensions():
    phi = random_cp_channel(2, 2, 0)
    B2, B3 = elementary_basis(2), elementary_basis(3)
    calls = [
        lambda: superop_inner(phi, phi, B3),
        lambda: superop_inner(phi, random_cp_channel(3, 2, 0), B2),
        lambda: superop_inner(phi, random_cp_channel(2, 3, 0), B2),
        lambda: lambda_iso(phi, B3, B3),
        lambda: lambda_iso(phi, B2, B3),
        lambda: convert_coeffs(np.eye(4), B2, B3),
        lambda: convert_coeffs(np.eye(9), B2, B2),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatch):
            call()


def test_operator_basis_needs_n_squared_elements():
    with pytest.raises(ShapeMismatch, match="N\\^2 square"):
        OperatorBasis((np.eye(2), np.eye(2)))
