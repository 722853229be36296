"""The batched candidate search against a one-attempt-at-a-time reference.

``reference_candidate_products`` is the per-attempt loop that
``candidate_products`` replaced: each attempt draws its own random
product vector and runs its own alternating power iteration.  The
batched search must keep the same vectors in the same order, and the
realignment certificate may skip a search only where the loop keeps
nothing.  The same holds for the two-level certificate with which
``bsa_state`` returns Lambda = 0 before it searches, whose second level
is checked against the dense matrices of ``oracles``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiscope import bsa
from choiscope.bsa import (OVERLAP_ROUNDING, PRODUCT_OVERLAP,
                           _best_product_overlaps, _check_state,
                           _product_free_certificate, _regroup,
                           _realignment_excludes_products,
                           _symmetric_extension_bound, bsa_operation,
                           bsa_state, candidate_products, max_lambda,
                           max_pair, osa_fixed_set)
from choiscope.generators import random_cp_channel, random_product_mixture
from choiscope.numerics import Tolerance
from choiscope.reshape import BipartiteShape, realign, tensor_vectors
from choiscope.serialization import load_path

from conftest import random_complex
from oracles import symmetric_extension_dense, symmetric_realignment_dense

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


@pytest.mark.parametrize("kraus_count", [2, 3, 4])
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


def _random_range(rng, shape, rank):
    """Orthonormal basis of a random rank-dimensional subspace, and its projector."""
    Q, _ = np.linalg.qr(random_complex(rng, shape.dim, rank))
    return Q, Q @ Q.conj().T


def _extension_gate(shape):
    """Largest rank at which the extension level runs."""
    d_small, d_big = sorted((shape.d_A, shape.d_B))
    return d_small * (d_big - 1) // 2


def _dense_extension_bound(Pi, shape):
    return np.linalg.eigvalsh(symmetric_extension_dense(Pi, shape))[-1]


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                                     (4, 2), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_symmetric_extension_matches_dense_oracle(d_A, d_B, seed):
    rng = np.random.default_rng(700 + seed)
    shape = BipartiteShape(d_A, d_B)
    for rank in (1, _extension_gate(shape), shape.dim // 2, shape.dim - 1):
        cols, Pi = _random_range(rng, shape, rank)
        got = _symmetric_extension_bound(cols, shape)
        assert abs(got - _dense_extension_bound(Pi, shape)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([BipartiteShape(2, 2), BipartiteShape(2, 3),
                        BipartiteShape(3, 2), BipartiteShape(3, 3),
                        BipartiteShape(4, 4)]))
@settings(max_examples=40, deadline=None)
def test_product_overlap_below_symmetric_extension_bound(seed, shape):
    rng = np.random.default_rng(seed)
    cols, Pi = _random_range(rng, shape, int(rng.integers(1, shape.dim)))
    bound = _symmetric_extension_bound(cols, shape)
    e = random_complex(rng, 8, shape.d_A)
    f = random_complex(rng, 8, shape.d_B)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    Pi4 = Pi.reshape(shape.d_B, shape.d_A, shape.d_B, shape.d_A)
    _, _, best = _best_product_overlaps(Pi4, e, f)
    for ei, fi in zip(e, f):
        v = tensor_vectors(ei, fi)
        assert np.vdot(v, Pi @ v).real <= bound + 1e-12
    assert np.max(best) <= bound + 1e-12


@pytest.mark.parametrize("d_A,d_B,n_terms", [(2, 2, 2), (2, 2, 3), (2, 3, 3),
                                             (2, 3, 5), (3, 3, 4), (3, 3, 8),
                                             (4, 4, 3), (4, 4, 9), (4, 4, 15)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neither_certificate_level_fires_on_product_mixtures(d_A, d_B, n_terms, seed):
    shape = BipartiteShape(d_A, d_B)
    rho = random_product_mixture(d_A, d_B, n_terms, seed=400 + seed)
    _, cols = _check_state(rho, Tolerance(1e-9, 1e-9)).range
    assert cols.shape[1] == n_terms < shape.dim
    Pi = cols @ cols.conj().T
    # each mixed-in product vector sits in the range with overlap 1
    assert _symmetric_extension_bound(cols, shape) >= PRODUCT_OVERLAP
    assert not _realignment_excludes_products(Pi, shape)
    assert _product_free_certificate(cols, Pi, shape) is None


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])
def test_symmetric_extension_bound_is_one_above_its_gate(d_A, d_B):
    rng = np.random.default_rng(800)
    shape = BipartiteShape(d_A, d_B)
    for rank in range(_extension_gate(shape) + 1, shape.dim):
        _, Pi = _random_range(rng, shape, rank)
        assert _dense_extension_bound(Pi, shape) >= 1.0 - 1e-12


def test_symmetric_extension_is_skipped_beyond_its_gate(monkeypatch):
    shape = BipartiteShape(4, 4)
    rank = _extension_gate(shape) + 1

    def refuse(cols, shape):
        raise AssertionError("level 2 ran beyond its gate")

    monkeypatch.setattr(bsa, "_symmetric_extension_bound", refuse)
    cols, Pi = _random_range(np.random.default_rng(3), shape, rank)
    assert not _realignment_excludes_products(Pi, shape)
    assert _product_free_certificate(cols, Pi, shape) is None


@pytest.mark.parametrize("d", [3, 4, 5])
def test_symmetric_extension_decides_the_antisymmetric_subspace(d):
    shape = BipartiteShape(d, d)
    i, j = np.triu_indices(d, 1)
    cols = np.zeros((d * d, i.size))
    cols[i * d + j, np.arange(i.size)] = np.sqrt(0.5)
    cols[j * d + i, np.arange(i.size)] = -np.sqrt(0.5)
    Pi = cols @ cols.T
    assert not _realignment_excludes_products(Pi, shape)
    assert _product_free_certificate(cols, Pi, shape) == "symmetric_extension"
    dec = bsa_state(Pi / i.size, shape, budget=5, seed=0)
    assert dec.certificate == "symmetric_extension" and dec.lambda_total == 0.0


def test_realignment_decides_a_range_the_extension_cannot():
    # span{|0>|1> + |1>|0> + |2>|0>, |0>|0> - |1>|1> + |2>|1>} at 3x3, A ket
    # first: the best product overlap is 2/3 and sigma_max(R(Pi)) = sqrt(2/3),
    # but the level-2 bound is 1, so only level 1 proves Lambda = 0 here
    shape = BipartiteShape(3, 3)
    I = np.eye(3)

    def ket(m, u):
        return tensor_vectors(I[m], I[u])

    cols, _ = np.linalg.qr(np.stack([ket(0, 1) + ket(1, 0) + ket(2, 0),
                                     ket(0, 0) - ket(1, 1) + ket(2, 1)], axis=1))
    Pi = cols @ cols.T
    sigma = np.linalg.svd(realign(Pi, shape), compute_uv=False)[0]
    assert abs(sigma - np.sqrt(2 / 3)) <= 1e-12
    assert abs(_symmetric_extension_bound(cols, shape) - 1.0) <= 1e-12
    rng = np.random.default_rng(77)
    best = max(reference_best_product_overlap(Pi.reshape(3, 3, 3, 3),
                                              random_complex(rng, 3),
                                              random_complex(rng, 3))[2]
               for _ in range(20))
    assert abs(best - 2 / 3) <= 1e-9
    assert _product_free_certificate(cols, Pi, shape) == "realignment"
    dec = bsa_state(Pi / 2, shape, budget=5, seed=0)
    assert dec.certificate == "realignment" and dec.lambda_total == 0.0


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_symmetric_extension_decides_what_two_copies_decide(d_A, d_B):
    rng = np.random.default_rng(900)
    shape = BipartiteShape(d_A, d_B)
    decided = 0
    for rank in range(1, shape.dim):
        for _ in range(4):
            cols, Pi = _random_range(rng, shape, rank)
            sigma2 = np.linalg.svd(symmetric_realignment_dense(Pi, shape),
                                   compute_uv=False)[0]
            if sigma2 < (PRODUCT_OVERLAP - OVERLAP_ROUNDING) ** 2:
                decided += 1
                assert _product_free_certificate(cols, Pi, shape) is not None
    assert decided > 0


@pytest.mark.parametrize("kraus_count", [2, 3, 4, 5, 6, 7])
def test_certificate_on_seeded_random_cp_ranges(kraus_count):
    shape = BipartiteShape(4, 4)
    fired = 0
    for seed in range(40):
        E = _regroup(random_cp_channel(4, 4, seed, kraus_count=kraus_count).choi, 2)
        _, cols = _check_state((E + E.conj().T) / (2.0 * np.trace(E).real),
                               Tolerance(1e-9, 1e-9)).range
        assert cols.shape[1] == kraus_count
        fired += _product_free_certificate(cols, cols @ cols.conj().T, shape) is not None
    # measured on these seeds; 7 is above the extension's gate at 4x4
    assert fired == (40 if kraus_count <= _extension_gate(shape) else 0)


def _regrouped_choi_state(channel):
    E = _regroup(channel.choi, 2)
    return (E + E.conj().T) / (2.0 * np.trace(E).real)


@pytest.mark.parametrize("kraus_count", [2, 3, 4])
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
        assert dec.certificate in ("realignment", "symmetric_extension")
    op = bsa_operation(channel, 2, budget=2, seed=seed)
    assert op.lam == 0.0 and op.certificate == dec.certificate
    assert op.verdict.kind == "inconclusive"
    want, _ = reference_candidate_products(rho, shape, 2, seed)
    assert want == []


def test_symmetric_certificate_decides_the_cli_fixture():
    path = Path(__file__).parent / "fixtures" / "random_cp4x4.json"
    shape = BipartiteShape(4, 4)
    rho = _regrouped_choi_state(load_path(path).to_channel())
    _, cols = _check_state(rho, Tolerance(1e-9, 1e-9)).range
    # level 1 cannot decide this rank-4 range; level 2 can
    assert not _realignment_excludes_products(cols @ cols.conj().T, shape)
    assert _symmetric_extension_bound(cols, shape) < 0.99
    assert bsa_state(rho, shape, budget=5, seed=0).certificate == "symmetric_extension"


def test_no_certificate_on_full_range_or_separable_inputs():
    shape = BipartiteShape(2, 2)
    assert bsa_state(np.eye(4) / 4.0, shape, budget=5, seed=0).certificate is None
    rho = random_product_mixture(2, 2, 3, seed=7)
    assert bsa_state(rho, shape, budget=5, seed=0).certificate is None


def test_bsa_state_factors_rho_once(monkeypatch):
    # each search of bsa_state reuses its range basis: one eigh of rho
    # outside the ascent (whose first sweep meets rho itself) and one SVD,
    # the level-1 certificate, however many refinement rounds search again;
    # the floor comes from that eigh, so no eigvalsh of rho runs anywhere,
    # and each barrier rescale takes one eigvalsh on this rank-3 mixture
    shape = BipartiteShape(2, 2)
    rho = random_product_mixture(2, 2, 3, seed=7)
    calls = {"eigh": 0, "eigvalsh_rho": 0, "svd": 0, "search": 0}
    in_ascent, in_scale = [0], [False]
    scale_calls = []
    eigh, eigvalsh, svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd
    ascend, search, psd_scale = bsa._ascend, bsa._search_products, bsa._psd_scale

    def is_rho(a):
        a = np.asarray(a)
        return a.shape == rho.shape and np.allclose(a, rho, rtol=0.0, atol=1e-14)

    def counting_eigh(a, *args, **kwargs):
        if not in_ascent[0] and is_rho(a):
            calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        if is_rho(a):
            calls["eigvalsh_rho"] += 1
        if in_scale[0]:
            scale_calls[-1] += 1
        return eigvalsh(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        calls["svd"] += 1
        return svd(a, *args, **kwargs)

    def marked_ascend(*args, **kwargs):
        in_ascent[0] += 1
        try:
            return ascend(*args, **kwargs)
        finally:
            in_ascent[0] -= 1

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        return search(*args, **kwargs)

    def counting_psd_scale(*args, **kwargs):
        scale_calls.append(0)
        in_scale[0] = True
        try:
            return psd_scale(*args, **kwargs)
        finally:
            in_scale[0] = False

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(bsa, "_ascend", marked_ascend)
    monkeypatch.setattr(bsa, "_search_products", counting_search)
    monkeypatch.setattr(bsa, "_psd_scale", counting_psd_scale)
    dec = bsa_state(rho, shape, budget=6, seed=0)
    assert dec.certificate is None and dec.lambda_total > 0.99
    assert calls["search"] >= 2
    assert calls["eigh"] == 1 and calls["svd"] == 1
    assert calls["eigvalsh_rho"] == 0
    assert scale_calls and set(scale_calls) == {1}


def _count_decompositions(monkeypatch, matches):
    """Count eigh and eigvalsh calls outside ``_ascend`` on matrices that
    ``matches`` accepts."""
    calls = {"eigh": 0, "eigvalsh": 0}
    in_ascent = [0]
    ascend = bsa._ascend

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            if not in_ascent[0] and matches(np.asarray(a)):
                calls[name] += 1
            return original(a, *args, **kwargs)
        return wrapper

    def marked_ascend(*args, **kwargs):
        in_ascent[0] += 1
        try:
            return ascend(*args, **kwargs)
        finally:
            in_ascent[0] -= 1

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    monkeypatch.setattr(bsa, "_ascend", marked_ascend)
    return calls


def test_each_bsa_entry_point_factors_its_input_once(monkeypatch):
    # one eigh of rho serves the state check and the range; no eigvalsh
    shape = BipartiteShape(2, 2)
    rho = random_product_mixture(2, 2, 3, seed=7)
    V = candidate_products(rho, shape, 4, seed=0)
    psi = V[0].vector
    entry_points = {
        "max_lambda": lambda: max_lambda(rho, psi),
        "candidate_products": lambda: candidate_products(rho, shape, 4, seed=1),
        "max_pair": lambda: max_pair(rho, psi, V[1].vector),
        "osa_fixed_set": lambda: osa_fixed_set(rho, V, seed=0),
        "bsa_state": lambda: bsa_state(rho, shape, budget=6, seed=0),
    }
    for name, call in entry_points.items():
        calls = _count_decompositions(
            monkeypatch, lambda a: a.shape == rho.shape
            and np.allclose(a, rho, rtol=0.0, atol=1e-14))
        call()
        assert calls == {"eigh": 1, "eigvalsh": 0}, name
        monkeypatch.undo()


@pytest.mark.parametrize("kraus_count,level,decompositions",
                         [(2, "realignment", 1), (4, "symmetric_extension", 2)])
def test_bsa_operation_factors_the_regrouped_choi_once(monkeypatch, kraus_count,
                                                       level, decompositions):
    # one eigh serves the CP check, the state BSA and the verdict; level 2
    # of the certificate adds the eigvalsh of its 16 x 16 Gram matrix
    channel = random_cp_channel(4, 4, 0, kraus_count=kraus_count)
    calls = _count_decompositions(monkeypatch, lambda a: a.shape == (16, 16))
    op = bsa_operation(channel, 2, budget=2, seed=0)
    assert op.lam == 0.0 and op.certificate == level
    assert calls["eigh"] + calls["eigvalsh"] == decompositions
    assert calls["eigh"] == 1
