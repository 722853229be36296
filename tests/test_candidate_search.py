"""The batched candidate search against a one-attempt-at-a-time reference.

``reference_candidate_products`` is the per-attempt loop that
``candidate_products`` replaced: each attempt draws its own random
product vector and runs its own alternating power iteration.  The
batched search must keep the same vectors in the same order.
"""

import numpy as np
import pytest

from choiscope.bsa import candidate_products
from choiscope.generators import random_product_mixture
from choiscope.reshape import BipartiteShape, tensor_vectors

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
    assert len(got) == len(want)
    for pv, (e, f) in zip(got, want):
        assert np.max(np.abs(pv.e - e)) < 1e-12
        assert np.max(np.abs(pv.f - f)) < 1e-12


def test_batched_search_matches_reference_with_attempt_cap():
    shape = BipartiteShape(2, 2)
    rho = random_product_mixture(2, 2, 3, seed=7)
    for cap in (1, 3, 10):
        want, _ = reference_candidate_products(rho, shape, 20, 5, max_attempts=cap)
        got = candidate_products(rho, shape, 20, 5, max_attempts=cap)
        assert len(got) == len(want)
        for pv, (e, f) in zip(got, want):
            assert np.max(np.abs(pv.e - e)) < 1e-12
            assert np.max(np.abs(pv.f - f)) < 1e-12


def test_batched_search_matches_reference_full_range(rng):
    shape = BipartiteShape(2, 3)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    want, iterated = reference_candidate_products(rho, shape, 25, 3)
    got = candidate_products(rho, shape, 25, 3)
    assert iterated == 0 and len(want) == 25
    assert len(got) == len(want)
    for pv, (e, f) in zip(got, want):
        assert np.max(np.abs(pv.e - e)) < 1e-12
        assert np.max(np.abs(pv.f - f)) < 1e-12
