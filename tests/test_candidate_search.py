"""The batched candidate search against a one-attempt-at-a-time reference.

``reference_candidate_products`` is the per-attempt loop that
``candidate_products`` replaced: each attempt draws its own random
product vector and runs its own alternating power iteration.  The
batched search must keep the same vectors in the same order, and the
realignment certificate may skip a search only where the loop keeps
nothing.  The same holds for the two-level certificate with which
``bsa_state`` returns Lambda = 0 before it searches.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiscope import bsa
from choiscope.bsa import (PRODUCT_OVERLAP, _best_product_overlaps, _range,
                           _product_free_certificate, _regroup,
                           _realignment_excludes_products,
                           _symmetric_realignment, bsa_operation, bsa_state,
                           candidate_products)
from choiscope.generators import random_cp_channel, random_product_mixture
from choiscope.reshape import BipartiteShape, realign, tensor_vectors
from choiscope.serialization import load_path

from conftest import random_complex
from oracles import symmetric_realignment_dense

RANGE_TOL = 1e-9


def reference_best_product_overlap(Pi4, e, f, iters=80):
    overlap = -1.0
    for _ in range(iters):
        M = np.einsum("u,umvn,v->mn", f.conj(), Pi4, f)
        _, Ve = np.linalg.eigh((M + M.conj().T) / 2.0)
        e = Ve[:, -1]
        M = np.einsum("m,umvn,n->uv", e.conj(), Pi4, e)
        wf, Vf = np.linalg.eigh((M + M.conj().T) / 2.0)
        f = Vf[:, -1]
        new = float(wf[-1].real)
        if abs(new - overlap) < 1e-13:
            overlap = new
            break
        overlap = new
    return e, f, overlap


def reference_candidate_products(rho, shape, count, seed, atol=1e-9,
                                 max_attempts=None):
    rng = np.random.default_rng(seed)
    w, V = np.linalg.eigh(np.asarray(rho, dtype=complex))
    cols = V[:, w > atol]
    Pi = cols @ cols.conj().T
    full_range = cols.shape[1] == shape.dim
    Pi4 = Pi.reshape(shape.d_B, shape.d_A, shape.d_B, shape.d_A)
    kept, kept_vecs, iterated = [], [], 0
    attempts = 0
    cap = max_attempts if max_attempts is not None else 40 * count
    while len(kept) < count and attempts < cap:
        attempts += 1
        e = rng.normal(size=shape.d_A) + 1j * rng.normal(size=shape.d_A)
        f = rng.normal(size=shape.d_B) + 1j * rng.normal(size=shape.d_B)
        e /= np.linalg.norm(e)
        f /= np.linalg.norm(f)
        from_iteration = False
        if not full_range:
            v = tensor_vectors(e, f)
            overlap = float(np.vdot(v, Pi @ v).real)
            if overlap < 1.0 - RANGE_TOL:
                e, f, overlap = reference_best_product_overlap(Pi4, e, f)
                from_iteration = True
                if overlap < 1.0 - 1e-6:
                    continue
        v = tensor_vectors(e, f)
        if any(abs(np.vdot(v, u)) ** 2 > 1.0 - 1e-8 for u in kept_vecs):
            continue
        kept.append((e / np.linalg.norm(e), f / np.linalg.norm(f)))
        kept_vecs.append(v)
        iterated += from_iteration
    return kept, iterated


def _assert_same_vectors(got, want):
    assert len(got) == len(want)
    for pv, (e, f) in zip(got, want):
        assert np.max(np.abs(pv.e - e)) < 1e-12
        assert np.max(np.abs(pv.f - f)) < 1e-12


@pytest.mark.parametrize("d_A,d_B,n_terms", [(2, 2, 2), (2, 2, 3),
                                             (2, 3, 3), (2, 3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_search_matches_reference_loop(d_A, d_B, n_terms, seed):
    shape = BipartiteShape(d_A, d_B)
    rho = random_product_mixture(d_A, d_B, n_terms, seed=100 + seed)
    assert np.linalg.matrix_rank(rho, tol=1e-9) == n_terms < shape.dim
    want, iterated = reference_candidate_products(rho, shape, 6, seed)
    got = candidate_products(rho, shape, 6, seed)
    # the random starts miss the range, so every kept vector comes out of
    # the power iteration
    assert iterated == len(want) > 0
    _assert_same_vectors(got, want)


def test_batched_search_matches_reference_with_attempt_cap():
    shape = BipartiteShape(2, 2)
    rho = random_product_mixture(2, 2, 3, seed=7)
    for cap in (1, 3, 10):
        want, _ = reference_candidate_products(rho, shape, 20, 5, max_attempts=cap)
        got = candidate_products(rho, shape, 20, 5, max_attempts=cap)
        _assert_same_vectors(got, want)


def test_batched_search_matches_reference_full_range(rng):
    shape = BipartiteShape(2, 3)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    want, iterated = reference_candidate_products(rho, shape, 25, 3)
    got = candidate_products(rho, shape, 25, 3)
    assert iterated == 0 and len(want) == 25
    _assert_same_vectors(got, want)


def _range_projector(rho, atol=1e-9):
    w, V = np.linalg.eigh(rho)
    cols = V[:, w > atol]
    return cols @ cols.conj().T


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_overlap_below_realignment_bound(d_A, d_B, seed):
    rng = np.random.default_rng(500 + seed)
    shape = BipartiteShape(d_A, d_B)
    for rank in range(1, shape.dim):
        Q, _ = np.linalg.qr(random_complex(rng, shape.dim, rank))
        Pi = Q @ Q.conj().T
        bound = np.linalg.svd(realign(Pi, shape), compute_uv=False)[0]
        e = random_complex(rng, 8, d_A)
        f = random_complex(rng, 8, d_B)
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        # random draws, then the local maxima the search iterates them to
        _, _, best = _best_product_overlaps(Pi.reshape(d_B, d_A, d_B, d_A), e, f)
        for ei, fi in zip(e, f):
            v = tensor_vectors(ei, fi)
            assert np.vdot(v, Pi @ v).real <= bound + 1e-12
        assert np.max(best) <= bound + 1e-12


@pytest.mark.parametrize("kraus_count", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_cp_choi_range_has_no_candidates(kraus_count, seed):
    shape = BipartiteShape(4, 4)
    E = _regroup(random_cp_channel(4, 4, seed, kraus_count=kraus_count).choi, 2)
    rho = (E + E.conj().T) / (2.0 * np.trace(E).real)
    if kraus_count == 2:
        # every rank-2 range among these seeds is excluded by the bound
        assert _realignment_excludes_products(_range_projector(rho), shape)
    want, _ = reference_candidate_products(rho, shape, 2, seed)
    assert want == []
    assert candidate_products(rho, shape, 2, seed) == []


@pytest.mark.parametrize("d_A,d_B,n_terms", [(2, 2, 2), (2, 2, 3), (2, 3, 3),
                                             (2, 3, 5), (3, 3, 4), (3, 3, 8)])
@pytest.mark.parametrize("seed", [0, 1])
def test_certificate_never_fires_on_product_mixtures(d_A, d_B, n_terms, seed):
    shape = BipartiteShape(d_A, d_B)
    rho = random_product_mixture(d_A, d_B, n_terms, seed=300 + seed)
    Pi = _range_projector(rho)
    assert np.linalg.matrix_rank(Pi, tol=1e-9) == n_terms < shape.dim
    # each mixed-in product vector sits in the range with overlap 1
    assert np.linalg.svd(realign(Pi, shape), compute_uv=False)[0] >= PRODUCT_OVERLAP
    assert not _realignment_excludes_products(Pi, shape)
    assert candidate_products(rho, shape, 2, seed)


def test_batch_after_an_empty_first_block_matches_reference_loop():
    shape = BipartiteShape(3, 3)
    rho = random_product_mixture(3, 3, 5, seed=0)
    first, _ = reference_candidate_products(rho, shape, 2, 3, max_attempts=2)
    assert first == []
    want, _ = reference_candidate_products(rho, shape, 2, 3)
    assert len(want) == 2
    _assert_same_vectors(candidate_products(rho, shape, 2, 3), want)


def _random_range_projector(rng, shape, rank):
    Q, _ = np.linalg.qr(random_complex(rng, shape.dim, rank))
    return Q @ Q.conj().T


def _sigma2(Pi, shape):
    return np.linalg.svd(_symmetric_realignment(Pi, shape), compute_uv=False)[0]


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_symmetric_realignment_matches_dense_oracle(d_A, d_B, seed):
    rng = np.random.default_rng(700 + seed)
    shape = BipartiteShape(d_A, d_B)
    for rank in (1, shape.dim // 2, shape.dim - 1):
        Pi = _random_range_projector(rng, shape, rank)
        got = _symmetric_realignment(Pi, shape)
        assert np.max(np.abs(got - symmetric_realignment_dense(Pi, shape))) < 1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([BipartiteShape(2, 2), BipartiteShape(2, 3),
                        BipartiteShape(3, 3), BipartiteShape(4, 4)]))
@settings(max_examples=40, deadline=None)
def test_squared_product_overlap_below_symmetric_bound(seed, shape):
    rng = np.random.default_rng(seed)
    Pi = _random_range_projector(rng, shape, int(rng.integers(1, shape.dim)))
    bound = _sigma2(Pi, shape)
    e = random_complex(rng, 8, shape.d_A)
    f = random_complex(rng, 8, shape.d_B)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    Pi4 = Pi.reshape(shape.d_B, shape.d_A, shape.d_B, shape.d_A)
    _, _, best = _best_product_overlaps(Pi4, e, f)
    for ei, fi in zip(e, f):
        v = tensor_vectors(ei, fi)
        assert np.vdot(v, Pi @ v).real ** 2 <= bound + 1e-12
    assert np.max(best) ** 2 <= bound + 1e-12


@pytest.mark.parametrize("d_A,d_B,n_terms", [(2, 2, 2), (2, 2, 3), (2, 3, 3),
                                             (2, 3, 5), (3, 3, 4), (3, 3, 8),
                                             (4, 4, 3), (4, 4, 9), (4, 4, 15)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neither_certificate_level_fires_on_product_mixtures(d_A, d_B, n_terms, seed):
    shape = BipartiteShape(d_A, d_B)
    rho = random_product_mixture(d_A, d_B, n_terms, seed=400 + seed)
    _, cols = _range(rho, 1e-9)
    assert cols.shape[1] == n_terms < shape.dim
    Pi = cols @ cols.conj().T
    # each mixed-in product vector sits in the range with overlap 1
    assert _sigma2(Pi, shape) >= PRODUCT_OVERLAP ** 2
    assert not _realignment_excludes_products(Pi, shape)
    assert _product_free_certificate(cols, shape) is None


def test_symmetric_certificate_is_skipped_beyond_its_size_gate(monkeypatch):
    shape = BipartiteShape(6, 6)  # dim Sym^2 = 21, and 21 * 21 > the gate
    assert 21 * 21 > bsa.SYMMETRIC_CERTIFICATE_MAX_DIM

    def refuse(Pi, shape):
        raise AssertionError("level 2 ran beyond its size gate")

    monkeypatch.setattr(bsa, "_symmetric_realignment", refuse)
    Q, _ = np.linalg.qr(random_complex(np.random.default_rng(3), 36, 30))
    assert not _realignment_excludes_products(Q @ Q.conj().T, shape)
    assert _product_free_certificate(Q, shape) is None


def _regrouped_choi_state(channel):
    E = _regroup(channel.choi, 2)
    return (E + E.conj().T) / (2.0 * np.trace(E).real)


@pytest.mark.parametrize("kraus_count", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bsa_state_returns_at_once_on_product_free_ranges(kraus_count, seed):
    shape = BipartiteShape(4, 4)
    channel = random_cp_channel(4, 4, seed, kraus_count=kraus_count)
    rho = _regrouped_choi_state(channel)
    dec = bsa_state(rho, shape, budget=2, seed=seed)
    assert dec.lambda_total == 0.0 and dec.terms == ()
    assert np.array_equal(dec.residual, rho)
    assert dec.candidate_set_size == 0
    if kraus_count == 2:
        assert dec.certificate == "realignment"
    else:
        assert dec.certificate in ("realignment", "symmetric_realignment")
    op = bsa_operation(channel, 2, budget=2, seed=seed)
    assert op.lam == 0.0 and op.certificate == dec.certificate
    assert op.verdict.kind == "inconclusive"
    want, _ = reference_candidate_products(rho, shape, 2, seed)
    assert want == []


def test_symmetric_certificate_decides_the_cli_fixture():
    path = Path(__file__).parent / "fixtures" / "random_cp4x4.json"
    shape = BipartiteShape(4, 4)
    rho = _regrouped_choi_state(load_path(path).to_channel())
    Pi = _range_projector(rho)
    # level 1 cannot decide this rank-4 range; level 2 can
    assert not _realignment_excludes_products(Pi, shape)
    assert _sigma2(Pi, shape) < 0.99
    assert bsa_state(rho, shape, budget=5, seed=0).certificate == "symmetric_realignment"


def test_no_certificate_on_full_range_or_separable_inputs():
    shape = BipartiteShape(2, 2)
    assert bsa_state(np.eye(4) / 4.0, shape, budget=5, seed=0).certificate is None
    rho = random_product_mixture(2, 2, 3, seed=7)
    assert bsa_state(rho, shape, budget=5, seed=0).certificate is None
