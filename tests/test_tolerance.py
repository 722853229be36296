"""One tolerance rule: every Hermitian and PSD/CP check allows ``Tolerance.bound``.

The rounding of a Hermitian gap or of a null eigenvalue grows with the
matrix's entries, so a check with an absolute bound calls a valid map
with large entries invalid.  Each check reads ``atol + rtol * scale``
with the matrix's own scale, so scaling a CP map by ``c > 0`` keeps its
verdicts.  The rank cuts (the BSA's range, the Kraus operators of a Choi
matrix and the inverted eigenvalues of a pseudo-inverse) keep the
eigenvalues above the same bound, so they keep no rounding noise.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from choiscope.bsa import _check_state, bsa_operation
from choiscope.channels import Channel, choi_to_kraus, validate
from choiscope.errors import NotPsd
from choiscope.generators import random_cp_channel, random_state
from choiscope.numerics import Tolerance, is_psd, pseudo_inverse, validate_state
from choiscope.serialization import parse_text

from conftest import FIXTURES, large_kraus_set, random_complex
from oracles import inspect_state_report

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8)


def test_bound_is_atol_plus_rtol_times_scale():
    tol = Tolerance(atol=1e-9, rtol=1e-6)
    assert tol.bound(0.0) == 1e-9
    assert tol.bound(1e3) == 1e-9 + 1e-3
    assert type(tol.bound(np.float64(2.0))) is float


def test_validate_large_entry_map_is_cp():
    # entries ~1e7: the Choi matrix's Hermitian gap is 7.5e-9, above atol
    report = validate(Channel.from_kraus(large_kraus_set(18)))
    assert report.hermiticity_preserving
    assert report.completely_positive


@pytest.mark.parametrize("count", [2, 3])
def test_bsa_operation_accepts_large_entry_maps(count):
    # rank 2 or 3 of 16: the null eigenvalues' rounding is far above atol
    result = bsa_operation(Channel.from_kraus(large_kraus_set(count)), 2,
                           budget=3, seed=0)
    assert result.lam == 0.0
    assert result.certificate is not None


@pytest.mark.parametrize("build", ["liouville", "kraus"])
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("N", [2, 3, 4])
def test_validate_verdicts_are_scale_invariant(N, seed, build):
    phi = random_cp_channel(N, N, seed, kraus_count=N * N)
    for c in SCALES:
        if build == "liouville":
            scaled = Channel.from_liouville(c * phi.liouville, N, N)
        else:
            scaled = Channel.from_kraus([np.sqrt(c) * G for G in phi.kraus])
        report = validate(scaled)
        assert report.hermiticity_preserving, c
        assert report.completely_positive, c


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kraus_count", [2, 4])
def test_bsa_operation_certificate_is_scale_invariant(kraus_count, seed):
    # certified maps only: a full-rank map runs the search, whose lambda
    # is not invariant under scaling
    phi = random_cp_channel(4, 4, seed, kraus_count=kraus_count)
    certificate = bsa_operation(phi, 2, budget=3, seed=0).certificate
    assert certificate is not None
    for c in (1e-6, 1e3, 1e8):
        result = bsa_operation(Channel.from_liouville(c * phi.liouville, 4, 4),
                               2, budget=3, seed=0)
        assert (result.lam, result.certificate) == (0.0, certificate), c


@pytest.mark.parametrize("seed", range(10))
def test_psd_checks_scale_with_the_spectrum(seed):
    # 1e8 |psi><psi|: its null eigenvalues round to about -3e-9
    psi = np.linalg.eigh(random_state(4, seed))[1][:, -1]
    M = 1e8 * np.outer(psi, psi.conj())
    assert is_psd(M)
    pseudo_inverse(M)  # raises NotPsd below the floor
    assert not is_psd(M - 100 * np.eye(4))
    with pytest.raises(NotPsd):
        pseudo_inverse(M - 100 * np.eye(4))


def test_bsa_operation_tests_hermiticity_once(monkeypatch):
    import choiscope.bsa as bsa
    import choiscope.numerics as numerics
    calls = []
    gap = numerics.hermitian_gap

    def counting_gap(M):
        calls.append(M.shape)
        return gap(M)

    monkeypatch.setattr(numerics, "hermitian_gap", counting_gap)
    # a direct import into bsa would bypass the patch above
    monkeypatch.setattr(bsa, "hermitian_gap", counting_gap, raising=False)
    bsa_operation(random_cp_channel(4, 4, 0, kraus_count=2), 2, budget=3, seed=0)
    assert calls == [(16, 16)]


def test_choi_to_kraus_keeps_no_noise_operators():
    # two operators of scale 1e3: D's null eigenvalues round to up to 6e-9, above atol
    D = Channel.from_kraus(large_kraus_set(2)).choi
    assert len(choi_to_kraus(D, 4, 4)) == 2


@pytest.mark.parametrize("seed", range(10))
def test_pseudo_inverse_inverts_no_rounding_noise(seed):
    psi = np.linalg.eigh(random_state(4, seed))[1][:, -1]
    P = np.outer(psi, psi.conj())
    assert np.max(np.abs(pseudo_inverse(1e8 * P) - 1e-8 * P)) <= 1e-20


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("seed", range(10))
def test_range_rank_is_scale_invariant(seed, c):
    rho = c * random_state(4, seed, rank=2)
    w, cols = _check_state(rho, Tolerance()).range
    assert w.size == cols.shape[1] == 2


TOLERANCES = (Tolerance(), Tolerance(atol=1e-9, rtol=1e-6), Tolerance(atol=1e-5, rtol=1e-5))
SKEW = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
SKEW[0, 2] = 0.2  # not Hermitian, and its Hermitian part is not PSD
NEGATIVE = np.diag([0.6, 0.401, 0.0, -1e-3]).astype(complex)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e8])
@pytest.mark.parametrize("seed", range(10))
def test_tolerance_rules_equal_the_expressions_they_replace(seed, c):
    rng = np.random.default_rng(seed)
    M = c * random_complex(rng, 5, 5)
    w = np.sort(c * rng.normal(size=6))  # ascending, of either sign
    s = np.sort(c * np.abs(rng.normal(size=6)))[::-1]  # descending
    s[3:] *= 1e-10  # singular values on both sides of the cut
    for tol in TOLERANCES:
        scale = float(np.max(np.abs(M)))
        for gap in (0.0, tol.atol, 2 * tol.atol, tol.bound(scale), 1.01 * tol.bound(scale)):
            want = gap <= tol.atol or gap <= tol.atol + tol.rtol * scale
            assert tol.allows_gap(gap, M) is want
        assert tol.psd_floor(w) == -(tol.atol + tol.rtol * max(-w[0], w[-1]))
        assert tol.rank(s) == int(np.sum(s > tol.atol + tol.rtol * s[0]))
        if tol.bound(c) < c:  # a singular value at the cut itself is not kept
            assert tol.rank(np.array([c, tol.bound(c)])) == 1


def test_gap_allowance_reads_the_matrix_only_past_atol():
    tol = Tolerance()
    assert tol.allows_gap(0.5e-9, None)  # None has no max|M|: it is never read
    with pytest.raises(TypeError):
        tol.allows_gap(2e-9, None)
    assert not tol.allows_gap(float("nan"), np.eye(2))
    assert not tol.allows_gap(float("nan"), np.full((2, 2), np.inf))


def _state_cases():
    for name in ("maxmixed.json", "singlet.json"):
        yield name, parse_text((FIXTURES / name).read_text(encoding="utf-8")).to_state()
    golden = Path(__file__).parent / "golden" / "gen_random_state_5.json"
    yield "random_state_5", parse_text(golden.read_text(encoding="utf-8")).to_state()
    for c in (1e-6, 1.0, 1e8):
        for seed in range(10):
            yield f"{c:g}*random_state(4, {seed})", c * random_state(4, seed)
    yield "non-hermitian", SKEW
    yield "negative", NEGATIVE


@pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "rtol1e-6", "loose"])
def test_validate_state_matches_the_inline_inspect_report(tol):
    for name, rho in _state_cases():
        got = dataclasses.asdict(validate_state(rho, tol))
        assert got == inspect_state_report(rho, tol), name
        assert all(type(got[k]) is bool for k in ("hermitian", "positive_semidefinite"))


def test_validate_state_reports_each_failure():
    report = validate_state(NEGATIVE)
    assert report.hermitian and not report.positive_semidefinite
    assert report.min_eigenvalue == -1e-3
    report = validate_state(SKEW)
    assert not report.hermitian and not report.positive_semidefinite


@pytest.mark.parametrize("build", ["kraus", "liouville"])
def test_validate_takes_the_hermitian_gap_once(monkeypatch, build):
    import choiscope.channels as channels
    calls = []
    gap = channels.hermitian_gap

    def counting_gap(M):
        calls.append(M.shape)
        return gap(M)

    monkeypatch.setattr(channels, "hermitian_gap", counting_gap)
    channel = random_cp_channel(3, 3, 0, kraus_count=2)
    if build == "liouville":
        channel = Channel.from_liouville(channel.liouville, 3, 3)
    assert (channel.kraus is None) == (build == "liouville")
    assert validate(channel).completely_positive
    assert calls == [(9, 9)]
