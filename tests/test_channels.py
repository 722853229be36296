import numpy as np
import pytest

from choiscope.channels import (Channel, apply, choi_to_kraus,
                                choi_to_liouville, compose,
                                compose_choi, dual, identity_channel,
                                kraus_to_liouville, liouville_to_choi, mix,
                                superop_hs_inner, tensor_channels,
                                transpose_channel, transpose_conjugations,
                                validate)
from choiscope.errors import (DimensionMismatch, NonFinite, NotCompletelyPositive,
                              ShapeMismatch)
from choiscope.generators import (depolarizing_channel, random_cp_channel,
                                  random_product_mixture, random_state,
                                  swap_channel)
from choiscope.numerics import hs_inner, min_eigenvalue
from choiscope.reshape import (BipartiteShape, partial_trace_A,
                               partial_trace_B, realign, swap_operator,
                               tensor, vectorize)
from choiscope.reshape import middle_swap

from conftest import large_kraus_set, random_complex, random_density
from oracles import (choi_from_definition, realign_image_identity_check,
                     tensor_choi_broadcast)


def random_channel(seed, d_in=2, d_out=2):
    return random_cp_channel(d_in, d_out, seed)


def test_identity_channel_choi():
    ch = identity_channel(2)
    v = vectorize(np.eye(2))
    assert np.allclose(ch.choi, np.outer(v, v.conj()))
    assert abs(np.trace(ch.choi) - 2) < 1e-12


def test_transpose_channel_choi_is_swap():
    ch = transpose_channel(2)
    assert np.allclose(ch.choi, swap_operator(2))
    w = np.linalg.eigvalsh(ch.choi)
    assert abs(w[0] + 1) < 1e-10
    rep = validate(ch)
    assert rep.hermiticity_preserving and rep.trace_preserving
    assert not rep.completely_positive
    assert abs(rep.min_choi_eigenvalue + 1) < 1e-10


def test_choi_equals_definition(rng):
    for seed in range(5):
        ch = random_channel(seed)
        assert np.allclose(ch.choi, choi_from_definition(ch.kraus_operators()),
                           atol=1e-10)


def test_kraus_roundtrip_action():
    for seed in range(10):
        ch = random_channel(seed, 3, 2)
        back = Channel.from_kraus(choi_to_kraus(ch.choi, 3, 2), d_in=3, d_out=2)
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3), dtype=complex)
                E[i, j] = 1.0
                assert np.allclose(apply(ch, E), apply(back, E), atol=1e-8)


@pytest.mark.parametrize("count", [18, 2])
def test_choi_to_kraus_bounds_scale_with_the_matrix(count):
    # entries ~1e7: the rounding of D's Hermitian gap (18 operators) and
    # of its null eigenvalues (2 operators) exceeds an absolute 1e-9
    D = Channel.from_kraus(large_kraus_set(count)).choi
    back = Channel.from_kraus(choi_to_kraus(D, 4, 4)).choi
    assert np.max(np.abs(back - D)) <= 1e-12 * np.max(np.abs(D))


def test_choi_to_kraus_rejects_transpose():
    with pytest.raises(NotCompletelyPositive):
        choi_to_kraus(swap_operator(2), 2, 2)


def test_apply_routes_agree(rng):
    ch = random_channel(3, 2, 3)
    rho = random_density(rng, 2)
    out_k = apply(ch, rho, route="kraus")
    out_l = apply(ch, rho, route="liouville")
    out_c = apply(ch, rho, route="choi")
    assert np.allclose(out_k, out_l, atol=1e-10)
    assert np.allclose(out_k, out_c, atol=1e-10)


def test_cptp_choi_constraints():
    for seed in range(20):
        ch = random_channel(seed)
        D = ch.choi
        assert np.max(np.abs(D - D.conj().T)) < 1e-10
        assert min_eigenvalue(D) >= -1e-9
        # trace preservation shows up as the input-side partial trace
        assert np.allclose(partial_trace_A(D, ch.choi_shape), np.eye(2), atol=1e-9)
        assert abs(np.trace(D).real - 2) < 1e-9


def test_inner_product_transfer(rng):
    # <L_phi, L_psi> = <D_phi, D_psi>, and the action pairing via the Choi
    phi, psi = random_channel(1), random_channel(2)
    assert abs(superop_hs_inner(phi, psi)
               - hs_inner(phi.choi, psi.choi)) < 1e-9
    X = random_complex(rng, 2, 2)
    Y = random_complex(rng, 2, 2)
    lhs = hs_inner(Y, apply(phi, X))
    rhs = hs_inner(tensor(Y, X.conj()), phi.choi)
    assert abs(lhs - rhs) < 1e-9


def test_dual_adjoint_identity(rng):
    phi = random_channel(7, 2, 3)
    phi_d = dual(phi)
    X = random_complex(rng, 2, 2)
    Y = random_complex(rng, 3, 3)
    assert abs(hs_inner(Y, apply(phi, X)) - hs_inner(apply(phi_d, Y), X)) < 1e-9


def test_compose_choi_formula():
    for seed in range(10):
        a, b = random_channel(seed), random_channel(seed + 100)
        direct = compose(a, b)
        via_choi = compose_choi(a.choi, b.choi, 2)
        assert np.allclose(direct.choi, via_choi, atol=1e-9)


def test_mix_linearity_of_choi():
    a, b = random_channel(5), random_channel(6)
    m = mix([0.3, 0.7], [a, b])
    assert np.allclose(m.choi, 0.3 * a.choi + 0.7 * b.choi, atol=1e-12)


def test_half_transpose_mix_is_not_cp():
    # the equal mixture of identity and transpose sits strictly outside
    # the CP cone: its Choi operator has eigenvalue -1/2
    m = mix([0.5, 0.5], [identity_channel(2), transpose_channel(2)])
    w = np.linalg.eigvalsh(m.choi)
    assert abs(w[0] + 0.5) < 1e-10
    rep = validate(m)
    assert not rep.completely_positive
    assert abs(rep.min_choi_eigenvalue + 0.5) < 1e-10


def test_boundary_mix_depolarizing_transpose():
    # 2/3 depolarizing + 1/3 transpose touches the CP boundary
    m = mix([2 / 3, 1 / 3], [depolarizing_channel(2, 1.0), transpose_channel(2)])
    w = np.linalg.eigvalsh(m.choi)
    assert abs(w[0]) < 1e-10
    kraus = choi_to_kraus(m.choi, 2, 2)
    assert len(kraus) == 3
    back = Channel.from_kraus(kraus)
    assert np.allclose(back.choi, m.choi, atol=1e-9)


def test_tensor_channels_routes_agree():
    for seed in range(10):
        a, b = random_channel(seed), random_channel(seed + 50)
        t = tensor_channels(a, b)
        kraus = [tensor(G, H) for G in a.kraus_operators()
                 for H in b.kraus_operators()]
        assert np.allclose(t.liouville, kraus_to_liouville(kraus), atol=1e-9)


def test_realign_image_identity(rng):
    # sigma = (phi (x) psi)(rho) realigns as L_phi R(rho) L_psi^T
    for seed in range(5):
        phi, psi = random_channel(seed), random_channel(seed + 10)
        rho = random_density(rng, 4)
        assert realign_image_identity_check(phi, psi, rho, atol=1e-9)


def test_realign_positivity_of_cp_pair_images(rng):
    # R(sigma) R(sigma)^dag built from CP pairs stays PSD
    shape = BipartiteShape(2, 2)
    for seed in range(10):
        phi, psi = random_channel(seed), random_channel(seed + 30)
        rho = random_density(rng, 4)
        sigma = apply(tensor_channels(phi, psi), rho)
        R = realign(sigma, shape)
        assert min_eigenvalue(R @ R.conj().T) >= -1e-9


@pytest.mark.parametrize("d_in,d_out", [(0, 2), (-2, -1), (3, 2), (2, 1)])
def test_conversions_reject_dimensions_that_do_not_fit(d_in, d_out):
    with pytest.raises(ShapeMismatch):
        liouville_to_choi(np.eye(4), d_in, d_out)
    with pytest.raises(ShapeMismatch):
        choi_to_liouville(np.eye(4), d_in, d_out)
    with pytest.raises(ShapeMismatch):
        choi_to_kraus(np.eye(4), d_in, d_out)


@pytest.mark.parametrize("make", [lambda: depolarizing_channel(0, 0.5),
                                  lambda: random_product_mixture(2, 2, 0, 1),
                                  lambda: random_product_mixture(2, 2, -1, 1),
                                  lambda: swap_operator(0),
                                  lambda: middle_swap(0),
                                  lambda: middle_swap(-1),
                                  lambda: transpose_channel(0),
                                  lambda: swap_channel(0),
                                  lambda: identity_channel(0),
                                  lambda: random_state(0, 1),
                                  lambda: random_state(3, 1, rank=-2),
                                  lambda: random_state(3, 1, rank=4),
                                  lambda: random_product_mixture(0, 2, 3, 1),
                                  lambda: random_product_mixture(2, 0, 3, 1),
                                  lambda: random_cp_channel(2, 2, 1, kraus_count=-1),
                                  lambda: BipartiteShape(2.5, 2),
                                  lambda: BipartiteShape(2, 2.0),
                                  lambda: random_cp_channel(3, 0, 1),
                                  lambda: random_cp_channel(0, 2, 1),
                                  lambda: random_cp_channel(0, 0, 1)])
def test_generators_reject_empty_sizes(make):
    # not a ZeroDivisionError, nor an all-NaN or zero "state"
    with pytest.raises(ShapeMismatch):
        make()


def test_shapes_accept_numpy_integers_and_full_rank_default():
    assert BipartiteShape(np.int64(2), np.intp(3)).dim == 6
    assert np.linalg.matrix_rank(random_state(3, 1, rank=0)) == 3
    assert np.linalg.matrix_rank(random_state(3, 1, rank=3)) == 3
    assert np.linalg.matrix_rank(random_state(3, 1, rank=1)) == 1


def test_transpose_conjugations():
    for seed in range(5):
        phi = random_channel(seed)
        T = transpose_channel(2)
        both = transpose_conjugations(phi, "both")
        assert np.allclose(both.liouville,
                           compose(T, compose(phi, T)).liouville, atol=1e-12)
        left = transpose_conjugations(phi, "left")
        assert np.allclose(left.liouville, compose(T, phi).liouville, atol=1e-12)
        right = transpose_conjugations(phi, "right")
        assert np.allclose(right.liouville, compose(phi, T).liouville, atol=1e-12)


def test_validate_trace_nonincreasing():
    G = np.diag([0.5, 0.5]).astype(complex)
    sub = Channel.from_kraus([G])
    rep = validate(sub)
    assert rep.trace_nonincreasing and not rep.trace_preserving
    assert rep.completely_positive


def any_two_channels():
    # (2->3)(x)(3->2), (2->5)(x)(1->3), and square maps of dimensions 4 and 2
    return [(random_cp_channel(2, 3, 0), random_cp_channel(3, 2, 1)),
            (random_cp_channel(2, 5, 2), random_cp_channel(1, 3, 3)),
            (swap_channel(2), random_cp_channel(2, 2, 0))]


def test_tensor_channels_of_any_two_channels():
    pairs = any_two_channels()
    for k, (phi, psi) in enumerate(pairs):
        product = tensor_channels(phi, psi)
        assert (product.d_in, product.d_out) == (phi.d_in * psi.d_in,
                                                 phi.d_out * psi.d_out)
        rho_a, rho_b = random_state(phi.d_in, k), random_state(psi.d_in, 10 + k)
        want = tensor(apply(phi, rho_a), apply(psi, rho_b))
        for route in ("kraus", "liouville", "choi"):
            got = apply(product, tensor(rho_a, rho_b), route=route)
            assert np.max(np.abs(got - want)) < 1e-14, (k, route)
        report = validate(product)
        assert report.trace_preserving and report.completely_positive, k


def test_tensor_channels_choi_is_the_factor_broadcast():
    # realigning the product's L gives D byte for byte: each entry is the
    # same single product of two factor entries
    pairs = any_two_channels() + [
        (random_cp_channel(N, N, 2 * N), random_cp_channel(N, N, 2 * N + 1))
        for N in range(2, 6)]
    for phi, psi in pairs:
        D = tensor_channels(phi, psi).choi
        want = tensor_choi_broadcast(phi, psi)
        assert D.shape == want.shape
        assert D.tobytes() == want.tobytes()


@pytest.mark.parametrize("d_in,d_out", [(3, 0), (0, 2), (0, 0)])
def test_random_cp_channel_names_itself_in_its_size_errors(d_in, d_out):
    with pytest.raises(ShapeMismatch, match="random_cp_channel"):
        random_cp_channel(d_in, d_out, 1)


def test_random_cp_channel_needs_an_environment_for_its_isometry():
    # two 1 x 4 Kraus blocks stack to a 2 x 4 matrix, which has no orthonormal columns
    with pytest.raises(DimensionMismatch, match="environment too small"):
        random_cp_channel(4, 1, 1, kraus_count=2)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
def test_depolarizing_strength_must_be_finite(p):
    with pytest.raises(NonFinite, match="depolarizing strength"):
        depolarizing_channel(2, p)


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: Channel.from_kraus([np.eye(2)], d_in=3), DimensionMismatch, "expected (2, 3)"),
    (lambda: Channel.from_kraus([np.ones((3, 2))], d_out=2), DimensionMismatch, "expected (2, 2)"),
    (lambda: apply(identity_channel(2), np.eye(3)), ShapeMismatch, "channel input dim is 2"),
    (lambda: compose(random_cp_channel(3, 2, 1), identity_channel(2)), ShapeMismatch,
     "inner dimensions 3 != 2"),
    (lambda: mix([1.0], [identity_channel(2), identity_channel(2)]), ShapeMismatch,
     "one coefficient per channel"),
    (lambda: mix([0.5, 0.5], [identity_channel(2), identity_channel(3)]), ShapeMismatch,
     "share dimensions"),
    (lambda: transpose_conjugations(random_cp_channel(2, 3, 1), "left"), ShapeMismatch,
     "square channel"),
])
def test_channel_calculus_raises_typed_errors(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)
