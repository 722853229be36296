import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiscope.errors import NonFinite, NonSquareSubsystems, ShapeMismatch, ZeroMatrix
from choiscope.numerics import svd_rank
from choiscope.reshape import (BipartiteShape, devectorize, flip, flip_col,
                               flip_row, middle_swap, partial_trace_A,
                               partial_trace_B, partial_transpose,
                               product_factorize, realign, realign_inverse,
                               realign_prime, swap_operator, tensor,
                               tensor_vectors, vectorize)

from conftest import random_complex
from oracles import realign_sandwich, tensor_vec_identity_check

SHAPES = [BipartiteShape(2, 2), BipartiteShape(2, 3), BipartiteShape(3, 2)]


def _rand_bipartite(seed, shape):
    rng = np.random.default_rng(seed)
    d = shape.dim
    return random_complex(rng, d, d)


seeds = st.integers(min_value=0, max_value=10_000)
shapes = st.sampled_from(SHAPES)


def test_vectorize_column_stacking():
    G = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vectorize(G), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(devectorize(vectorize(G), 2, 2), G)


def test_tensor_ordering_convention():
    # composite index of |m>_A |mu>_B is mu*d_A + m: the A index runs fast
    e = np.array([1, 0], dtype=complex)
    f = np.array([0, 1], dtype=complex)
    v = tensor_vectors(e, f)   # |0>_A |1>_B
    assert v[1 * 2 + 0] == 1 and np.sum(np.abs(v)) == 1
    X = np.diag([1, 2]).astype(complex)
    Y = np.diag([3, 4]).astype(complex)
    Z = tensor(X, Y)
    # Z[mu*2+m, mu*2+m] = X[m,m] Y[mu,mu]
    assert Z[1 * 2 + 0, 1 * 2 + 0] == 1 * 4


@given(seeds, shapes)
@settings(max_examples=60, deadline=None)
def test_realign_of_product_is_vec_dyad(seed, shape):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, shape.d_A, shape.d_A)
    Y = random_complex(rng, shape.d_B, shape.d_B)
    R = realign(tensor(X, Y), shape)
    assert np.allclose(R, np.outer(vectorize(X), vectorize(Y)), atol=1e-10)


@given(seeds, shapes)
@settings(max_examples=60, deadline=None)
def test_realign_inverse_roundtrip(seed, shape):
    Z = _rand_bipartite(seed, shape)
    assert np.allclose(realign_inverse(realign(Z, shape), shape), Z, atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_realign_is_involution_on_square_shapes(seed):
    shape = BipartiteShape(2, 2)
    Z = _rand_bipartite(seed, shape)
    assert np.allclose(realign(realign(Z, shape), shape), Z, atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_realign_prime_relations(seed):
    # R' = T . R . T = F . R . F on N (x) N systems
    shape = BipartiteShape(3, 3)
    Z = _rand_bipartite(seed, shape)
    Rp = realign_prime(Z, shape)
    assert np.allclose(Rp, realign(Z.T, shape).T, atol=1e-12)
    assert np.allclose(Rp, flip(realign(flip(Z, shape), shape), shape), atol=1e-12)


@given(seeds, st.sampled_from([BipartiteShape(2, 2), BipartiteShape(3, 3)]))
@settings(max_examples=40, deadline=None)
def test_realign_sandwich_oracle(seed, shape):
    Z = _rand_bipartite(seed, shape)
    assert np.allclose(realign(Z, shape), realign_sandwich(Z, shape), atol=1e-10)


def test_swap_operator_properties():
    for N in (2, 3):
        S = swap_operator(N)
        shape = BipartiteShape(N, N)
        assert np.allclose(S @ S, np.eye(N * N))
        assert np.allclose(realign(S, shape), S)
        X = np.arange(N * N, dtype=complex).reshape(N, N)
        assert np.allclose(S @ vectorize(X), vectorize(X.T))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_flip_variants(seed):
    shape = BipartiteShape(2, 2)
    Z = _rand_bipartite(seed, shape)
    S = swap_operator(2)
    assert np.allclose(flip(Z, shape), S @ Z @ S, atol=1e-12)
    assert np.allclose(flip_row(Z, shape), S @ Z, atol=1e-12)
    assert np.allclose(flip_col(Z, shape), Z @ S, atol=1e-12)


@given(seeds, shapes)
@settings(max_examples=40, deadline=None)
def test_partial_transposes(seed, shape):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, shape.d_A, shape.d_A)
    Y = random_complex(rng, shape.d_B, shape.d_B)
    Z = tensor(X, Y)
    assert np.allclose(partial_transpose(Z, shape, "A"), tensor(X.T, Y), atol=1e-12)
    assert np.allclose(partial_transpose(Z, shape, "B"), tensor(X, Y.T), atol=1e-12)
    assert np.allclose(partial_transpose(Z, shape, "both"), Z.T, atol=1e-12)


@given(seeds, shapes)
@settings(max_examples=40, deadline=None)
def test_partial_traces(seed, shape):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, shape.d_A, shape.d_A)
    Y = random_complex(rng, shape.d_B, shape.d_B)
    Z = tensor(X, Y)
    assert np.allclose(partial_trace_B(Z, shape), np.trace(Y) * X, atol=1e-10)
    assert np.allclose(partial_trace_A(Z, shape), np.trace(X) * Y, atol=1e-10)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_middle_swap_groups_vectorizations(seed):
    # vec of a type-I tensor product equals the middle-factor swap of
    # the tensor product of the vectorizations
    rng = np.random.default_rng(seed)
    N = 3
    X = random_complex(rng, N, N)
    Y = random_complex(rng, N, N)
    lhs = vectorize(tensor(X, Y))
    rhs = middle_swap(N) @ tensor_vectors(vectorize(X), vectorize(Y))
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(seeds, shapes)
@settings(max_examples=60, deadline=None)
def test_product_factorize_recovers_products(seed, shape):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, shape.d_A, shape.d_A)
    Y = random_complex(rng, shape.d_B, shape.d_B)
    Z = tensor(X, Y)
    out = product_factorize(Z, shape)
    assert out is not None
    Xr, Yr = out
    assert np.linalg.norm(Z - tensor(Xr, Yr)) <= 1e-8 * np.linalg.norm(Z)


def test_product_factorize_rejections(rng):
    shape = BipartiteShape(2, 2)
    assert product_factorize(random_complex(rng, 4, 4), shape) is None
    S = swap_operator(2)
    assert product_factorize(S, shape) is None
    assert svd_rank(realign(S, shape)) == 4
    with pytest.raises(ZeroMatrix):
        product_factorize(np.zeros((4, 4)), shape)


def test_product_factorize_takes_one_svd(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    shape = BipartiteShape(2, 3)
    product = tensor(random_complex(rng, 2, 2), random_complex(rng, 3, 3))
    for Z in (product, random_complex(rng, 6, 6)):
        calls.clear()
        product_factorize(Z, shape)
        assert calls == [True]


def test_tensor_vec_identity(rng):
    # |X (x) Y>> is the middle-swapped tensor of |X>> and |Y>>
    for N in (1, 2, 3):
        X, Y = random_complex(rng, N, N), random_complex(rng, N, N)
        assert tensor_vec_identity_check(X, Y)
    with pytest.raises(ShapeMismatch):
        tensor_vec_identity_check(np.eye(2), np.eye(3))


def test_devectorize_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ShapeMismatch, match="length 5 cannot fill a 2x3"):
        devectorize(np.ones(5), 2, 3)


def test_flip_needs_equal_parties():
    with pytest.raises(NonSquareSubsystems, match="d_A == d_B"):
        flip(np.eye(6), BipartiteShape(2, 3))


def test_partial_transpose_reports_a_bad_matrix_before_a_bad_which():
    Z = np.eye(4, dtype=complex)
    Z[1, 2] = np.nan
    with pytest.raises(NonFinite):
        partial_transpose(Z, BipartiteShape(2, 2), which="C")
