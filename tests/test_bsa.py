import numpy as np
import pytest

from choiscope.bsa import (ASCENT_FLOOR, RESIDUAL_MIN_EIG, ProductVector, _regroup, _verdict,
                           bipartite_choi, bsa_operation, bsa_state, candidate_products,
                           is_separable_operation, kraus_factor_split,
                           max_lambda, max_lambda_bisection, max_pair,
                           osa_fixed_set)
from choiscope.channels import Channel, identity_channel, mix
from choiscope.errors import (CandidateOutsideRange, DimensionMismatch,
                              NonConvergence, NonFinite, NotAState,
                              NotCompletelyPositive, ShapeMismatch, ZeroMatrix)
from choiscope.generators import (depolarizing_channel, random_cp_channel,
                                  random_product_mixture, random_state,
                                  swap_channel, werner_state)
from choiscope.numerics import DEFAULT_TOL, Tolerance
from choiscope.reshape import (BipartiteShape, swap_operator, tensor,
                               tensor_vectors, vectorize)
from choiscope.reshape import middle_swap as choi_regroup_permutation

from conftest import random_complex, random_density

SH22 = BipartiteShape(2, 2)
E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
SINGLET = (tensor_vectors(E0, E1) - tensor_vectors(E1, E0)) / np.sqrt(2)


def test_max_lambda_anchors(rng):
    psi = random_complex(rng, 4)
    psi /= np.linalg.norm(psi)
    P = np.outer(psi, psi.conj())
    assert abs(max_lambda(P, psi) - 1.0) < 1e-12
    assert abs(max_lambda(np.eye(4) / 4, psi) - 0.25) < 1e-12
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert max_lambda(rho, np.array([0, 0, 1, 0], dtype=complex)) == 0.0


def test_max_lambda_matches_bisection(rng):
    for d in (4, 9):
        for _ in range(20):
            rho = random_density(rng, d)
            psi = random_complex(rng, d)
            assert abs(max_lambda(rho, psi)
                       - max_lambda_bisection(rho, psi)) < 1e-8


def test_max_lambda_rejects_non_states(rng):
    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(NotAState):
        max_lambda(np.diag([1.0, -0.5, 0, 0]), psi)
    with pytest.raises(NotAState):
        max_lambda(random_complex(rng, 4, 4), psi)


def test_max_lambda_leaves_a_psd_residual_near_the_range():
    eps = 1e-9
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    psi = np.array([np.sqrt(1 - eps), 0, np.sqrt(eps), 0], dtype=complex)
    # the range closed form alone grants 0.5 and leaves -1.58e-5; the
    # bisection gives 1.0e-4
    lam = max_lambda(rho, psi)
    residual = rho - lam * np.outer(psi, psi.conj())
    assert np.linalg.eigvalsh(residual)[0] >= RESIDUAL_MIN_EIG


def test_max_pair_leaves_a_psd_residual_near_the_range():
    # the range optimum alone is (0.5, 0.5) and leaves -1.58e-5
    eps = 1e-9
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    psi1 = np.array([np.sqrt(1 - eps), 0, np.sqrt(eps), 0], dtype=complex)
    psi2 = np.array([0, 1, 0, 0], dtype=complex)
    l1, l2 = max_pair(rho, psi1, psi2)
    residual = rho - l1 * np.outer(psi1, psi1.conj()) - l2 * np.outer(psi2, psi2.conj())
    assert np.linalg.eigvalsh(residual)[0] >= ASCENT_FLOOR - 1e-12
    assert l2 == pytest.approx(0.5) and 0.0 < l1 < 0.5


def test_max_pair_mutual_maximality(rng):
    rho = random_density(rng, 4)
    psi1 = random_complex(rng, 4)
    psi1 /= np.linalg.norm(psi1)
    psi2 = random_complex(rng, 4)
    psi2 /= np.linalg.norm(psi2)
    l1, l2 = max_pair(rho, psi1, psi2)
    P1 = np.outer(psi1, psi1.conj())
    P2 = np.outer(psi2, psi2.conj())
    assert abs(l1 - max_lambda(rho - l2 * P2, psi1)) < 1e-6
    assert abs(l2 - max_lambda(rho - l1 * P1, psi2)) < 1e-6
    assert np.linalg.eigvalsh(rho - l1 * P1 - l2 * P2)[0] >= -1e-8


def test_max_pair_against_grid_scan(rng):
    rho = random_density(rng, 4)
    psi1 = random_complex(rng, 4)
    psi1 /= np.linalg.norm(psi1)
    psi2 = random_complex(rng, 4)
    psi2 /= np.linalg.norm(psi2)
    l1, l2 = max_pair(rho, psi1, psi2)
    P1 = np.outer(psi1, psi1.conj())
    P2 = np.outer(psi2, psi2.conj())
    hi1 = max_lambda(rho, psi1)
    hi2 = max_lambda(rho, psi2)
    best = 0.0
    for a in np.linspace(0, hi1, 200):
        for b in np.linspace(0, hi2, 200):
            if a + b > best and np.linalg.eigvalsh(rho - a * P1 - b * P2)[0] >= -1e-9:
                best = a + b
    assert l1 + l2 >= best - 1e-2 * max(best, 1.0)


def test_max_pair_rejects_equal_projectors():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        max_pair(np.eye(4) / 4, psi, psi)


BAD_PSI = [
    (np.zeros(4), ZeroMatrix),
    (np.array([1.0, np.nan, 0.0, 0.0]), NonFinite),
    (np.array([1.0, 0.0, np.inf, 0.0]), NonFinite),
    (np.ones(3), ShapeMismatch),
]
BAD_PSI_IDS = ["zero", "nan", "inf", "length3"]


@pytest.mark.parametrize("psi,error", BAD_PSI, ids=BAD_PSI_IDS)
def test_max_lambda_rejects_bad_vectors(psi, error):
    rho = np.eye(4) / 4
    with pytest.raises(error):
        max_lambda(rho, psi)
    with pytest.raises(error):
        max_lambda_bisection(rho, psi)


@pytest.mark.parametrize("psi,error", BAD_PSI, ids=BAD_PSI_IDS)
def test_max_pair_rejects_bad_vectors(psi, error):
    rho = np.eye(4) / 4
    good = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(error):
        max_pair(rho, psi, good)
    with pytest.raises(error):
        max_pair(rho, good, psi)


def test_candidate_products_full_range_count():
    V = candidate_products(np.eye(4, dtype=complex) / 4, SH22, 30, seed=0)
    assert len(V) == 30
    for pv in V:
        assert abs(np.linalg.norm(pv.vector) - 1) < 1e-12


def test_candidate_products_restricted_range():
    v1 = tensor_vectors(E0, E0)
    v2 = tensor_vectors(E1, E1)
    rho = 0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj())
    V = candidate_products(rho, SH22, 20, seed=1)
    assert 1 <= len(V) <= 2
    for pv in V:
        best = max(abs(np.vdot(pv.vector, v1)) ** 2,
                   abs(np.vdot(pv.vector, v2)) ** 2)
        assert best > 1 - 1e-6


def test_osa_two_term_diagonal():
    v1 = tensor_vectors(E0, E0)
    v2 = tensor_vectors(E1, E1)
    rho = 0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj())
    dec = osa_fixed_set(rho, [ProductVector(E0, E0), ProductVector(E1, E1)])
    assert dec.lambda_total > 1 - 1e-9
    assert np.linalg.norm(dec.residual) < 1e-8


def test_osa_empty_set_on_singlet():
    rho = np.outer(SINGLET, SINGLET.conj())
    dec = osa_fixed_set(rho, [])
    assert dec.lambda_total == 0.0
    assert np.allclose(dec.residual, rho)


def test_osa_rejects_out_of_range_candidates():
    rho = np.outer(SINGLET, SINGLET.conj())
    with pytest.raises(CandidateOutsideRange):
        osa_fixed_set(rho, [ProductVector(E0, E0)])


def test_osa_rejects_candidates_of_the_wrong_dimension():
    with pytest.raises(ShapeMismatch):
        osa_fixed_set(random_state(4, 0), [ProductVector(np.ones(3), np.ones(3))])


@pytest.mark.parametrize("e,error", [(np.zeros(2), ZeroMatrix),
                                     (np.array([np.nan, 1.0]), NonFinite),
                                     (np.array([np.inf, 0.0]), NonFinite)])
def test_product_vector_rejects_zero_and_non_finite_factors(e, error):
    with pytest.raises(error):
        ProductVector(e, E1)
    with pytest.raises(error):
        ProductVector(E1, e)


def test_osa_invariants(rng):
    rho = random_density(rng, 4)
    V = candidate_products(rho, SH22, 40, seed=2)
    trace = []
    dec = osa_fixed_set(rho, V, seed=3, trace=trace)
    # total nondecreasing across sweeps, residual PSD
    assert all(b - a >= -1e-10 for a, b in zip(trace, trace[1:]))
    assert np.linalg.eigvalsh(dec.residual)[0] >= -1e-8
    # every weight is singly maximal against its own complement
    for lam, pv in dec.terms:
        rho_a = dec.residual + lam * pv.projector
        assert abs(lam - max_lambda(rho_a, pv.vector)) < 1e-7


@pytest.mark.parametrize("max_sweeps", [0, 1])
def test_osa_sweep_cap_raises_nonconvergence(rng, max_sweeps):
    rho = random_density(rng, 4)
    V = candidate_products(rho, SH22, 40, seed=2)
    # a negative sweep tolerance never counts as converged
    with pytest.raises(NonConvergence) as info:
        osa_fixed_set(rho, V, max_sweeps=max_sweeps, sweep_tol=-1.0, seed=3)
    best = info.value.best
    assert best is not None and best.lambda_total > 0
    assert np.linalg.eigvalsh(best.residual)[0] >= -1e-8


def test_osa_monotone_under_set_growth(rng):
    rho = random_density(rng, 4)
    V = candidate_products(rho, SH22, 30, seed=4)
    small = osa_fixed_set(rho, V[:10], seed=5)
    large = osa_fixed_set(rho, V, seed=5)
    assert large.lambda_total >= small.lambda_total - 1e-9


def test_bsa_state_pure_shortcuts():
    rho_prod = np.outer(tensor_vectors(E0, E1), tensor_vectors(E0, E1).conj())
    dec = bsa_state(rho_prod, SH22, budget=20, seed=0)
    assert dec.lambda_total == 1.0
    assert np.linalg.norm(dec.residual) < 1e-12
    rho_ent = np.outer(SINGLET, SINGLET.conj())
    dec = bsa_state(rho_ent, SH22, budget=20, seed=0)
    assert dec.lambda_total == 0.0
    assert np.allclose(dec.residual, rho_ent)


def test_bsa_state_rejects_unnormalized():
    with pytest.raises(NotAState):
        bsa_state(np.eye(4, dtype=complex), SH22, budget=10, seed=0)
    with pytest.raises(NotAState):
        bsa_state(np.zeros((4, 4)), SH22, budget=10, seed=0)


def test_bsa_state_separable_mixture():
    rho = random_product_mixture(2, 2, 6, seed=42)
    dec = bsa_state(rho, SH22, budget=150, seed=0)
    assert dec.lambda_total >= 0.99
    recon = dec.lambda_total * dec.separable_part + dec.residual
    assert np.allclose(recon, rho, atol=1e-8)


# rank-deficient product mixtures whose residuals a range cut per sweep
# left below the floor: -4.5e-6 at (2, 2, 3), seed 6
@pytest.mark.parametrize("d_A,d_B,n,s", [(2, 2, 3, 6), (2, 3, 4, 4), (3, 3, 6, 4)])
def test_bsa_state_residual_stays_above_the_ascent_floor(d_A, d_B, n, s):
    rho = random_product_mixture(d_A, d_B, n, 1000 + s)
    dec = bsa_state(rho, BipartiteShape(d_A, d_B), budget=20, seed=s)
    assert np.linalg.eigvalsh(dec.residual)[0] >= ASCENT_FLOOR - 1e-12


def test_osa_residual_stays_above_the_ascent_floor():
    shape = BipartiteShape(2, 3)
    rho = random_product_mixture(2, 3, 4, 2003)
    dec = osa_fixed_set(rho, candidate_products(rho, shape, 10, seed=3), seed=3)
    assert np.linalg.eigvalsh(dec.residual)[0] >= ASCENT_FLOOR - 1e-12


def test_bsa_state_werner_value():
    dec = bsa_state(werner_state(0.5), SH22, budget=200, seed=1)
    # exact value for this family is 3(1-p)/2
    assert abs(dec.lambda_total - 0.75) < 5e-3


def test_bipartite_choi_is_permuted_choi(rng):
    P = choi_regroup_permutation(2)
    for seed in range(10):
        ch = random_cp_channel(4, 4, seed)
        ops = ch.kraus_operators()
        assert np.max(np.abs(bipartite_choi(ops, 2) - P @ ch.choi @ P)) < 1e-10
    ops = [random_complex(rng, 4, 4)]
    assert np.allclose(bipartite_choi(ops, 2, normalized=True),
                       bipartite_choi(ops, 2) / 4, atol=1e-12)


def test_bipartite_choi_identity_dyad():
    E = bipartite_choi([np.eye(4)], 2)
    w = vectorize(np.eye(4))
    P = choi_regroup_permutation(2)
    assert np.allclose(E, np.outer(P @ w, (P @ w).conj()), atol=1e-12)


def test_kraus_factor_split_examples(rng):
    S = swap_operator(2).astype(complex)
    prod, rest = kraus_factor_split([np.eye(4) / np.sqrt(2), S / np.sqrt(2)], SH22)
    assert len(prod) == 1 and len(rest) == 1
    assert np.allclose(prod[0], np.eye(4) / np.sqrt(2))
    all_prod = [tensor(random_complex(rng, 2, 2), random_complex(rng, 2, 2))
                for _ in range(3)]
    prod, rest = kraus_factor_split(all_prod, SH22)
    assert len(prod) == 3 and not rest


def test_kraus_factor_split_counts_a_zero_operator_as_product():
    S = swap_operator(2).astype(complex)
    prod, rest = kraus_factor_split([np.zeros((4, 4)), S], SH22)
    assert len(prod) == 1 and not np.any(prod[0]) and len(rest) == 1


def test_bipartite_choi_rejects_operators_of_the_wrong_size():
    with pytest.raises(DimensionMismatch):
        bipartite_choi([np.eye(3)], 2)


@pytest.mark.parametrize("channel", [identity_channel(3),
                                     Channel.from_kraus([np.ones((9, 4)) / 6.0])],
                         ids=["3->3", "4->9"])
def test_bsa_operation_rejects_a_map_not_on_d_by_d(channel):
    with pytest.raises(DimensionMismatch):
        bsa_operation(channel, 2, budget=2, seed=0)


def test_bsa_operation_rejects_the_zero_map():
    with pytest.raises(NotCompletelyPositive, match="zero map"):
        bsa_operation(Channel.from_kraus([np.zeros((4, 4))]), 2, budget=2, seed=0)


def test_bsa_operation_identity():
    res = bsa_operation(identity_channel(4), 2, budget=50, seed=0)
    assert abs(res.lam - 1.0) < 1e-10
    assert np.linalg.norm(res.ent_part.choi) < 1e-10
    assert np.allclose(res.bsa_part.choi + res.ent_part.choi,
                       identity_channel(4).choi, atol=1e-8)


def test_bsa_operation_product_kraus(rng):
    ops = [tensor(random_complex(rng, 2, 2), random_complex(rng, 2, 2))
           for _ in range(3)]
    ch = Channel.from_kraus(ops)
    res = bsa_operation(ch, 2, budget=200, seed=0)
    assert (np.linalg.norm(res.ent_part.choi)
            <= 1e-2 * np.linalg.norm(ch.choi))


def test_bsa_operation_swap_bounded_by_state_value():
    ch = swap_channel(2)
    res = bsa_operation(ch, 2, budget=50, seed=0)
    P = choi_regroup_permutation(2)
    rho = P @ ch.choi @ P / np.trace(ch.choi).real
    state_dec = bsa_state(rho, BipartiteShape(4, 4), budget=50, seed=0)
    assert res.lam <= state_dec.lambda_total + 1e-9


def test_separability_verdicts(rng):
    U = np.linalg.qr(random_complex(rng, 2, 2))[0]
    W = np.linalg.qr(random_complex(rng, 2, 2))[0]
    local = Channel.from_kraus([tensor(U, W)])
    assert is_separable_operation(local, 2, budget=50, seed=0).kind == "separable"
    assert is_separable_operation(swap_channel(2), 2, budget=50, seed=0).kind == "entangled"
    weak = mix([1e-3, 1 - 1e-3],
               [swap_channel(2), depolarizing_channel(4, 1.0)])
    verdict = is_separable_operation(weak, 2, budget=20, seed=0)
    assert verdict.kind == "inconclusive"


def test_verdict_ignores_rank_one_residual_when_lambda_is_positive():
    # the regrouped Choi matrix of full depolarization is (t/16) I on 4 (x) 4;
    # (t/16)(I - Phi+) is isotropic with fidelity 0, hence separable, so a
    # split leaving the entangled pure residual (t/16) Phi+ proves nothing
    D = depolarizing_channel(4, 1.0).choi
    t = float(np.trace(D).real)
    assert np.allclose(_regroup(D, 2), t / 16 * np.eye(16), atol=1e-12)
    phi = np.eye(4).reshape(-1) / 2.0
    Phi = np.outer(phi, phi)
    sep = Channel.from_choi(_regroup(t / 16 * (np.eye(16) - Phi), 2), 4, 4)
    ent = Channel.from_choi(_regroup(t / 16 * Phi, 2), 4, 4)
    # the factor of that residual is what the lambda = 0 rule would read
    residual_eig = np.linalg.eigh(_regroup(ent.choi, 2))
    verdict = _verdict(D, sep, ent, BipartiteShape(4, 4), DEFAULT_TOL, 15 / 16,
                       residual_eig)
    assert verdict.kind == "inconclusive"


def test_is_separable_operation_is_bsa_operation_verdict(rng):
    U = np.linalg.qr(random_complex(rng, 2, 2))[0]
    W = np.linalg.qr(random_complex(rng, 2, 2))[0]
    for ch in (identity_channel(4), Channel.from_kraus([tensor(U, W)]),
               swap_channel(2)):
        verdict = is_separable_operation(ch, 2, budget=30, seed=4)
        want = bsa_operation(ch, 2, budget=30, seed=4).verdict
        assert verdict.kind == want.kind
        assert verdict.ent_fraction == want.ent_fraction
        assert (verdict.witness_kraus is None) == (want.witness_kraus is None)
        if want.witness_kraus is not None:
            assert len(verdict.witness_kraus) == len(want.witness_kraus)
            for A, B in zip(verdict.witness_kraus, want.witness_kraus):
                assert np.array_equal(A, B)


def _anti_hermitian(rng, d, size):
    """An anti-Hermitian d x d matrix whose largest entry is ``size``."""
    A = random_complex(rng, d, d)
    A = (A - A.conj().T) / 2.0
    return size * A / np.max(np.abs(A))


def test_bsa_hermiticity_checks_follow_tolerance(rng):
    # max |M - M^dag| is 2e-7: above the 1e-8 floor, below a loose atol
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    rho = random_density(rng, 4) + _anti_hermitian(rng, 4, 1e-7)
    psi = tensor_vectors(E0, E1)
    with pytest.raises(NotAState):
        max_lambda(rho, psi)
    assert max_lambda(rho, psi, tol=loose) > 0
    ch = Channel.from_choi(identity_channel(4).choi
                           + _anti_hermitian(rng, 16, 1e-7), 4, 4)
    with pytest.raises(NotCompletelyPositive):
        bsa_operation(ch, 2, budget=5, seed=0)
    assert abs(bsa_operation(ch, 2, budget=5, seed=0, tol=loose).lam - 1.0) < 1e-6


def test_bsa_state_check_uses_hermitian_part(rng):
    # a state that is Hermitian only within tolerance and its adjoint are
    # the same state: both reduce to their Hermitian part
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    M = random_density(rng, 4) + _anti_hermitian(rng, 4, 2e-7)
    psi = random_complex(rng, 4)
    assert max_lambda(M, psi, tol=loose) == max_lambda(M.conj().T, psi, tol=loose)


def test_bsa_state_floor_follows_tolerance():
    # least eigenvalue -6.1e-8: below the 1e-8 floor, above a loose atol
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    U = np.linalg.qr(random_complex(np.random.default_rng(5), 4, 4))[0]
    w = np.array([-6.1e-8, 0.2, 0.3, 0.5 + 6.1e-8])
    rho = (U * w) @ U.conj().T
    psi = U[:, 3]
    for call in (lambda tol: max_lambda(rho, psi, tol=tol),
                 lambda tol: bsa_state(rho, SH22, budget=5, seed=0, tol=tol)):
        with pytest.raises(NotAState):
            call(DEFAULT_TOL)
        call(loose)
    assert abs(max_lambda(rho, psi, tol=loose) - w[3]) < 1e-12


@pytest.mark.parametrize("budget", [-1, -5])
def test_negative_budget_is_rejected_before_any_work(budget):
    # a certified map would return lambda = 0 and a Werner state would fail
    # deep inside the barrier ascent; both must name the argument instead
    with pytest.raises(ValueError, match="budget"):
        bsa_state(werner_state(0.5), SH22, budget=budget, seed=0)
    with pytest.raises(ValueError, match="budget"):
        bsa_operation(random_cp_channel(4, 4, 1, kraus_count=2), 2,
                      budget=budget, seed=0)


@pytest.mark.parametrize("min_eig,error", [(-1e-6, NotCompletelyPositive),
                                           (-5e-10, NotAState)])
def test_operation_checks_cp_before_the_state_floor(min_eig, error):
    # Choi trace 1e-3, so normalizing scales the least eigenvalue by 1e3:
    # -1e-6 fails the CP floor (atol) and the state floor (1e-8) both and
    # must be reported as not CP; -5e-10 passes the CP floor and fails only
    # the normalized one
    rng = np.random.default_rng(11)
    U = np.linalg.qr(random_complex(rng, 16, 16))[0]
    w = np.full(16, 1e-3 / 15)
    w[0] = min_eig
    w[1:] -= min_eig / 15
    ch = Channel.from_choi((U * w) @ U.conj().T, 4, 4)
    with pytest.raises(error):
        bsa_operation(ch, 2, budget=2, seed=0)
