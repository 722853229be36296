"""The stacked Kraus paths against their per-operator loops, bit for bit.

``kraus_to_liouville``, ``Channel.from_kraus``, ``apply(route="kraus")``
and ``choi_to_kraus`` work on one ``(r, d_out, d_in)`` stack of the
operators; each must equal the per-operator loop in ``tests/oracles.py``
by ``tobytes()``, signed zeros included, and raise the same typed errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiscope import channels
from choiscope.bsa import bipartite_choi
from choiscope.channels import (Channel, apply, choi_to_kraus, dual,
                                kraus_to_liouville, liouville_to_choi,
                                tensor_channels)
from choiscope.errors import NonFinite, NotCompletelyPositive, ShapeMismatch
from choiscope.generators import random_cp_channel

from conftest import random_complex
from oracles import (apply_kraus_loop, choi_from_kraus_vectors,
                     choi_to_kraus_loop, kraus_to_liouville_loop)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sparse_set(rng, r, d_out, d_in):
    """Random operators with exact zeros, negative zeros and sign flips."""
    K = random_complex(rng, r, d_out, d_in)
    K[rng.random(K.shape) < 0.4] = 0
    K.real[rng.random(K.shape) < 0.2] = -0.0
    K.imag[rng.random(K.shape) < 0.2] = -0.0
    return list(K)


# r = 1, r < n and r >= n for n = d_out * d_in, square and rectangular
SHAPES = [(1, 3, 3), (2, 3, 3), (9, 3, 3), (12, 3, 3), (1, 2, 3), (4, 2, 3),
          (7, 3, 2), (5, 4, 4), (16, 4, 4), (20, 1, 1), (10, 1, 4), (3, 5, 1)]


@pytest.mark.parametrize("r,d_out,d_in", SHAPES)
def test_stacked_paths_match_per_operator_loops(rng, r, d_out, d_in):
    for ops in (list(random_complex(rng, r, d_out, d_in)),
                sparse_set(rng, r, d_out, d_in)):
        L = kraus_to_liouville_loop(ops)
        assert same_bytes(kraus_to_liouville(ops), L)
        ch = Channel.from_kraus(ops)
        assert same_bytes(ch.liouville, L)
        assert same_bytes(ch.choi, liouville_to_choi(L, d_in, d_out))
        assert all(same_bytes(G, np.asarray(H, dtype=complex))
                   for G, H in zip(ch.kraus, ops))
        rho = random_complex(rng, d_in, d_in)
        assert same_bytes(apply(ch, rho, route="kraus"), apply_kraus_loop(ops, rho))
        D = choi_from_kraus_vectors(ops)
        D = (D + D.conj().T) / 2
        got = choi_to_kraus(D, d_in, d_out)
        want = choi_to_kraus_loop(D, d_in, d_out)
        assert len(got) == len(want)
        assert all(same_bytes(G, H) for G, H in zip(got, want))


@pytest.mark.parametrize("chunk", [1, 16, 48, 112, 1 << 18])
def test_chunked_liouville_sum_keeps_the_operator_order(rng, monkeypatch, chunk):
    # 16-entry terms: chunks of 1, 1, 3, 7 and all 40 operators
    monkeypatch.setattr(channels, "KRAUS_CHUNK_ENTRIES", chunk)
    for ops in (list(random_complex(rng, 40, 2, 2)), sparse_set(rng, 40, 2, 2)):
        assert same_bytes(kraus_to_liouville(ops), kraus_to_liouville_loop(ops))


def test_single_entry_terms_are_added_in_order():
    # a pairwise sum of these 1x1 terms differs from the sequential one
    ops = [np.array([[x]]) for x in (1e16, 1.0, -1e16, 1.0, 3.0, -3.0, 1.0, 1.0, 1.0, 1.0)]
    assert same_bytes(kraus_to_liouville(ops), kraus_to_liouville_loop(ops))
    rows = [np.array([[x, 0.0]]) for x in (1e8, 1.0, -1e8, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0)]
    rho = np.eye(2)
    assert same_bytes(apply(Channel.from_kraus(rows), rho, route="kraus"),
                      apply_kraus_loop(rows, rho))


def test_any_iterable_of_operators_is_a_kraus_set(rng):
    ops = list(random_complex(rng, 3, 2, 2))
    want = kraus_to_liouville_loop(ops)
    assert same_bytes(kraus_to_liouville(G for G in ops), want)
    assert same_bytes(Channel.from_kraus(iter(ops)).liouville, want)
    assert same_bytes(kraus_to_liouville(np.stack(ops)), want)


def test_kraus_holds_views_of_one_stack(rng):
    ch = Channel.from_kraus(list(random_complex(rng, 3, 2, 2)))
    assert isinstance(ch.kraus, tuple) and len(ch.kraus) == 3
    base = ch.kraus[0].base
    assert base is not None and base.shape == (3, 2, 2)
    assert all(G.base is base for G in ch.kraus)


def test_dual_and_product_kraus_match_per_operator_forms():
    a = random_cp_channel(3, 3, seed=4)
    b = random_cp_channel(3, 3, seed=5, kraus_count=4)
    assert all(same_bytes(G, H.conj().T) for G, H in zip(dual(a).kraus, a.kraus))
    product = tensor_channels(a, b)
    want = [np.kron(H, G) for G in a.kraus for H in b.kraus]
    assert len(product.kraus) == len(want)
    assert all(same_bytes(G, H) for G, H in zip(product.kraus, want))


@pytest.mark.parametrize("operators,error,message", [
    ([], ShapeMismatch, "empty Kraus set"),
    (np.zeros((0, 2, 2)), ShapeMismatch, "empty Kraus set"),
    ([np.eye(2), np.eye(3)], ShapeMismatch, "Kraus operators differ in shape"),
    ([np.ones(3)], ShapeMismatch, "expected a matrix, got ndim=1"),
    ([np.ones((2, 2, 2))], ShapeMismatch, "expected a matrix, got ndim=3"),
    ([np.eye(2), np.full((2, 2), np.nan)], NonFinite, "non-finite"),
    ([np.eye(2), np.full((2, 2), np.inf * 1j)], NonFinite, "non-finite"),
    # a set that does not stack is checked operator by operator first
    ([np.full((2, 2), np.nan), np.eye(3)], NonFinite, "non-finite"),
    ([np.ones(3), np.eye(2)], ShapeMismatch, "expected a matrix, got ndim=1"),
])
def test_typed_errors_match_the_per_operator_checks(operators, error, message):
    calls = [kraus_to_liouville_loop, kraus_to_liouville, Channel.from_kraus,
             lambda ops: bipartite_choi(ops, 2)]
    for call in calls:
        with pytest.raises(error, match=message):
            call(operators)


def test_bipartite_choi_rejects_an_empty_set():
    with pytest.raises(ShapeMismatch, match="empty Kraus set"):
        bipartite_choi([], 2)


# parts of complex entries: exact zeros of both signs, negative and
# imaginary-only values, and arbitrary finite floats
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -0.5, 2.5]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def kraus_sets(draw):
    d_out = draw(st.integers(1, 4))
    d_in = draw(st.integers(1, 4))
    r = draw(st.integers(1, d_out * d_in + 2))
    size = 2 * (r * d_out * d_in + d_in * d_in)
    parts = np.array(draw(st.lists(_PARTS, min_size=size, max_size=size)))
    values = parts.view(complex)
    K = values[:r * d_out * d_in].reshape(r, d_out, d_in)
    rho = values[r * d_out * d_in:].reshape(d_in, d_in)
    return list(K), rho


@settings(max_examples=150, deadline=None)
@given(kraus_sets())
def test_stacked_paths_match_loops_on_drawn_sets(case):
    ops, rho = case
    d_out, d_in = ops[0].shape
    L = kraus_to_liouville_loop(ops)
    ch = Channel.from_kraus(ops)
    assert same_bytes(kraus_to_liouville(ops), L)
    assert same_bytes(ch.liouville, L)
    assert same_bytes(ch.choi, liouville_to_choi(L, d_in, d_out))
    assert same_bytes(apply(ch, rho, route="kraus"), apply_kraus_loop(ops, rho))


@settings(max_examples=60, deadline=None)
@given(kraus_sets())
def test_choi_to_kraus_matches_loop_on_drawn_sets(case):
    ops, _ = case
    d_out, d_in = ops[0].shape
    D = Channel.from_kraus(ops).choi
    D = (D + D.conj().T) / 2

    def outcome(call):
        # should rounding put the least eigenvalue below the CP floor, both
        # routes must raise the same error
        try:
            return [(G.shape, G.tobytes()) for G in call(D, d_in, d_out)]
        except NotCompletelyPositive as exc:
            return str(exc)

    assert outcome(choi_to_kraus) == outcome(choi_to_kraus_loop)
