"""One tolerance rule: every Hermitian and PSD/CP check allows ``Tolerance.bound``.

The rounding of a Hermitian gap or of a null eigenvalue grows with the
matrix's entries, so a check with an absolute bound calls a valid map
with large entries invalid.  Each check reads ``atol + rtol * scale``
with the matrix's own scale, so scaling a CP map by ``c > 0`` keeps its
verdicts.  The rank cuts (the BSA's range, the Kraus operators of a Choi
matrix and the inverted eigenvalues of a pseudo-inverse) keep the
eigenvalues above the same bound, so they keep no rounding noise.
"""

import numpy as np
import pytest

from choiscope.bsa import _range, bsa_operation
from choiscope.channels import Channel, choi_to_kraus, validate
from choiscope.errors import NotPsd
from choiscope.generators import random_cp_channel, random_state
from choiscope.numerics import Tolerance, is_psd, pseudo_inverse

from conftest import large_kraus_set

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
    w, cols = _range(rho, Tolerance())
    assert w.size == cols.shape[1] == 2
