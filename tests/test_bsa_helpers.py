"""The merged BSA helpers against independent references in ``oracles``.

``_improve_term`` runs the shared batched eigenvector loop with one row;
it must return the product vector of the single-vector loop it replaced.
``max_pair`` must reach the closed-form pair optimum, and no bisected
point may beat it.
"""

import numpy as np
import pytest

from choiscope.bsa import (ASCENT_FLOOR, ProductVector, _check_state, _improve_term,
                           _max_lambda_raw, _psd_scale, _shifted_factor,
                           max_lambda_bisection, max_pair)
from choiscope.errors import NotAState
from choiscope.numerics import DEFAULT_TOL, range_mask
from choiscope.reshape import BipartiteShape

from conftest import random_complex, random_density
from oracles import pair_optimum_closed_form, reference_improve_term


@pytest.mark.parametrize("d_A,d_B", [(2, 2), (2, 3), (4, 4)])
@pytest.mark.parametrize("full_rank", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_improve_term_matches_single_vector_loop(d_A, d_B, full_rank, seed):
    rng = np.random.default_rng(1000 + seed)
    shape = BipartiteShape(d_A, d_B)
    rank = shape.dim if full_rank else shape.dim // 2
    rho_a = random_density(rng, shape.dim, rank)
    pv = ProductVector(random_complex(rng, d_A), random_complex(rng, d_B))
    got = _improve_term(_shifted_factor(rho_a, ASCENT_FLOOR), pv, shape)
    e, f = reference_improve_term(rho_a, pv.e, pv.f, shape, ASCENT_FLOOR)
    assert np.max(np.abs(got.projector - ProductVector(e, f).projector)) < 1e-12


def test_improve_term_on_zero_residual():
    # a matrix at or below the ascent floor has no shifted factor, so the
    # ascent skips its term; a zero residual, just above it, grants -floor
    for M in (ASCENT_FLOOR * np.eye(4), np.diag([1.0, 1.0, 1.0, 2.0 * ASCENT_FLOOR])):
        assert _shifted_factor(M, ASCENT_FLOOR) is None
    shape = BipartiteShape(2, 2)
    pv = ProductVector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    factor = _shifted_factor(np.zeros((4, 4)), ASCENT_FLOOR)
    got = _improve_term(factor, pv, shape)
    assert abs(_max_lambda_raw(factor, got.vector) + ASCENT_FLOOR) < 1e-22


@pytest.mark.parametrize("seed", range(6))
def test_psd_scale_puts_the_residual_on_the_floor(seed):
    # the closed form against the predicate it solves: rho - t*sigma stays
    # above the floor, and a step 1e-6 past t < 1 falls below it
    rng = np.random.default_rng(seed)
    d = 6
    rho = random_density(rng, d, d if seed % 2 else 3)
    A = random_complex(rng, d, 2)
    sigma = (1e-3, 1e-1, 2.0)[seed // 2] * (A @ A.conj().T) / np.trace(A @ A.conj().T).real
    inp = _check_state(rho, DEFAULT_TOL)
    eig = np.linalg.eigh(inp.rho)
    floor, shifted = inp.floor, inp.shifted
    assert floor == min(0.0, eig[0][0]) + ASCENT_FLOOR
    t = _psd_scale(shifted, sigma)
    assert 0.0 < t <= 1.0
    assert np.linalg.eigvalsh(rho - t * sigma)[0] >= floor - 1e-12
    if t < 1.0:
        assert np.linalg.eigvalsh(rho - (1.0 + 1e-6) * t * sigma)[0] < floor
    assert _psd_scale(shifted, 0.0 * sigma) == 1.0


@pytest.mark.parametrize("kind", ["full_rank", "rank_deficient", "slightly_negative"])
@pytest.mark.parametrize("seed", range(4))
def test_checked_input_derives_every_fact_from_one_factor(kind, seed):
    # range, projector, floor and shifted factor all come from the eigh of
    # the Hermitian part, the one the state check takes
    rng = np.random.default_rng(seed)
    d = 6
    M = random_density(rng, d, d if kind == "full_rank" else 3)
    if kind == "slightly_negative":
        # a least eigenvalue inside the -1e-8 input tolerance
        w, U = np.linalg.eigh(M)
        w[0] = -5e-9
        M = (U * w) @ U.conj().T
    inp = _check_state(M, DEFAULT_TOL)
    assert np.array_equal(inp.rho, (M + M.conj().T) / 2.0)
    w, V = np.linalg.eigh(inp.rho)
    assert np.array_equal(inp.w, w)
    mask = range_mask(w, DEFAULT_TOL)
    assert np.array_equal(inp.range[0], w[mask])
    assert np.array_equal(inp.range[1], V[:, mask])
    cols = inp.range[1]
    assert cols.shape[1] == {"full_rank": d}.get(kind, 3)
    assert np.array_equal(inp.Pi, cols @ cols.conj().T)
    assert np.max(np.abs(inp.Pi @ inp.Pi - inp.Pi)) < 1e-12
    assert inp.floor == min(0.0, w[0]) + ASCENT_FLOOR
    # a rank-deficient input's zero eigenvalues round to either sign
    least = -5e-9 if kind == "slightly_negative" else 0.0
    assert abs(inp.floor - ASCENT_FLOOR - least) < 1e-15
    S, B = inp.shifted
    assert np.array_equal(B, V)
    assert np.max(np.abs((B * S) @ B.conj().T - (inp.rho - inp.floor * np.eye(d)))) < 1e-12


def test_checked_input_tests_the_dimension_after_the_state():
    shape = BipartiteShape(2, 2)
    with pytest.raises(NotAState, match="expected dim 4"):
        _check_state(np.eye(6) / 6.0, DEFAULT_TOL, shape=shape)
    with pytest.raises(NotAState, match="min eigenvalue"):
        _check_state(-np.eye(6) / 6.0, DEFAULT_TOL, shape=shape)
    assert _check_state(np.eye(4) / 4.0, DEFAULT_TOL, shape=shape).range[0].size == 4


def _pair_instance(seed):
    """A seeded (rho, psi1, psi2, inside): d in {4, 6, 9}, rank 2..d, and
    each vector inside or outside range(rho) when the rank leaves room."""
    rng = np.random.default_rng(seed)
    d = (4, 6, 9)[seed % 3]
    rank = int(rng.integers(2, d + 1))
    A = random_complex(rng, d, rank)
    rho = A @ A.conj().T
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    cols = np.linalg.eigh(rho)[1][:, d - rank:]
    inside = (seed % 4 != 3 or rank == d, seed % 5 != 4 or rank == d)
    psi1, psi2 = (cols @ random_complex(rng, rank) if ok
                  else random_complex(rng, d) for ok in inside)
    return rho, psi1, psi2, inside


@pytest.mark.parametrize("block", range(4))
def test_max_pair_matches_closed_form(block):
    kinds = set()
    for seed in range(30 * block, 30 * (block + 1)):
        rho, psi1, psi2, inside = _pair_instance(seed)
        want = sum(pair_optimum_closed_form(rho, psi1, psi2))
        l1, l2 = max_pair(rho, psi1, psi2)
        got = l1 + l2
        assert abs(got - want) <= 1e-9 * want, (seed, got, want)
        P1 = np.outer(psi1, psi1.conj()) / np.vdot(psi1, psi1).real
        P2 = np.outer(psi2, psi2.conj()) / np.vdot(psi2, psi2).real
        assert np.linalg.eigvalsh(rho - l1 * P1 - l2 * P2)[0] >= -1e-9, seed
        # independent optimality: t + (largest feasible l2 at l1 = t) is
        # concave in t, so the bisected sums on a grid and next to l1 must
        # not beat l1 + l2
        top = max_lambda_bisection(rho, psi1)
        h = 1e-3 * top
        for t in [*np.linspace(0.0, top, 9), l1 - h, l1 + h]:
            if 0.0 <= t <= top:
                other = t + max_lambda_bisection(rho - t * P1, psi2)
                assert other <= got + 1e-9 * max(got, 1.0), (seed, t, other, got)
        kinds.add(sum(inside))
    # every block has pairs in the range, and pairs with a vector outside
    assert 2 in kinds and kinds & {0, 1}
