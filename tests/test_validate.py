"""The operator-sum invariant of ``Channel`` and the two paths of ``validate``.

A channel carrying r < n = d_out * d_in Kraus operators is validated
without a decomposition (its Choi matrix is K K^dag, PSD and singular);
every other channel takes the dense spectrum.  Forcing the dense path by
rebuilding the channel from its Liouville matrix must give the same
report.  ``validate`` reads only the Choi matrix; the oracle that reads
the dual map's image of the identity from the Liouville matrix must
give the same report, field for field.
"""

import numpy as np
import pytest

from choiscope.channels import (Channel, compose, dual, identity_channel, mix,
                                tensor_channels, transpose_conjugations,
                                validate)
from choiscope.generators import random_cp_channel, swap_channel
from choiscope.serialization import dump_channel, parse_text

from oracles import choi_from_kraus_vectors, validate_via_liouville

DECOMPOSITIONS = ("eig", "eigh", "eigvals", "eigvalsh", "svd")


def _kraus_channels():
    a = random_cp_channel(3, 2, 7)
    b = random_cp_channel(2, 2, 8, kraus_count=3)
    return {
        "from_kraus": Channel.from_kraus(a.kraus),
        "dual": dual(a),
        "tensor_channels": tensor_channels(b, random_cp_channel(2, 2, 9)),
        "random_cp_channel": a,
        "swap_channel": swap_channel(2),
        "identity_channel": identity_channel(3),
        "serialization": parse_text(dump_channel(b, "kraus")).to_channel(),
    }


@pytest.mark.parametrize("name", sorted(_kraus_channels()))
def test_kraus_is_an_operator_sum_form_of_choi(name):
    ch = _kraus_channels()[name]
    assert ch.kraus is not None
    assert all(G.shape == (ch.d_out, ch.d_in) for G in ch.kraus)
    err = np.max(np.abs(ch.choi - choi_from_kraus_vectors(ch.kraus)))
    assert err <= 1e-12


def _dense(ch):
    """The same map without Kraus operators, so validate takes the dense path."""
    return Channel.from_liouville(ch.liouville, ch.d_in, ch.d_out)


def _assert_reports_agree(ch):
    got, want = validate(ch), validate(_dense(ch))
    for field in ("hermiticity_preserving", "trace_preserving",
                  "trace_nonincreasing", "completely_positive"):
        assert getattr(got, field) == getattr(want, field), field
    assert abs(got.min_choi_eigenvalue - want.min_choi_eigenvalue) <= 1e-12
    assert got.choi_trace == want.choi_trace


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_kraus_and_dense_paths_agree(N):
    for k in range(1, N * N + 1):
        ch = random_cp_channel(N, N, 1000 * N + k, kraus_count=k)
        _assert_reports_agree(ch)
        _assert_reports_agree(dual(ch))
        assert validate(ch).is_channel
        _assert_reports_agree(tensor_channels(ch, dual(ch)))


def _oracle_cases():
    cases = {}
    for N in (2, 3, 4, 5):
        a = random_cp_channel(N, N, 40 + N)
        b = random_cp_channel(N, N, 50 + N, kraus_count=N * N)
        cases[f"random_cp_channel N={N}"] = a
        cases[f"dual N={N}"] = dual(a)
        cases[f"full-rank dual N={N}"] = dual(b)
        cases[f"compose N={N}"] = compose(a, b)
        cases[f"mix N={N}"] = mix([0.25, 0.75], [a, b])
        for mode in ("left", "right", "both"):
            cases[f"transpose_conjugations {mode} N={N}"] = transpose_conjugations(a, mode)
        cases[f"scaled N={N}"] = Channel.from_liouville(1.5 * a.liouville, N, N)
        rng = np.random.default_rng(N)
        M = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        cases[f"random complex N={N}"] = Channel.from_liouville(M, N, N)
        if N <= 4:
            cases[f"tensor_channels N={N}"] = tensor_channels(a, dual(a))
    return cases


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_validate_matches_the_liouville_oracle(name):
    ch = _oracle_cases()[name]
    report = validate(ch)
    assert report == validate_via_liouville(ch)
    if name.startswith("random complex"):
        assert not report.hermiticity_preserving
    if name.startswith("scaled"):
        assert report.hermiticity_preserving and not report.trace_nonincreasing


@pytest.mark.parametrize("kraus", [True, False])
def test_validate_reports_a_nan_choi_entry(kraus):
    ch = random_cp_channel(5, 5, 3)
    n = ch.choi.shape[0]
    # the first and the last row strip, off and on the traced diagonal
    for i, j in ((0, 1), (n - 1, n - 2), (0, 0), (n - 1, 0)):
        D = ch.choi.copy()
        D[i, j] = np.nan
        broken = Channel(ch.liouville, 5, 5, D, kraus=ch.kraus if kraus else None)
        report = validate(broken)
        assert not report.hermiticity_preserving
        assert not report.completely_positive
        assert not report.trace_nonincreasing
        assert np.isnan(report.min_choi_eigenvalue)


def test_validate_reports_an_infinite_choi_entry():
    # an infinite gap is not below bound(max|D|) = inf
    c = identity_channel(2)
    D = c.choi.copy()
    D[0, 1] = np.inf
    report = validate(Channel(c.liouville, 2, 2, D))
    assert not report.hermiticity_preserving
    assert not report.completely_positive


class _Recorder:
    """Wraps numpy.linalg's decompositions and records each input's shape."""

    def __init__(self, monkeypatch):
        self.shapes = []
        for name in DECOMPOSITIONS:
            monkeypatch.setattr(np.linalg, name, self._wrap(getattr(np.linalg, name)))

    def _wrap(self, fn):
        def recorded(a, *args, **kwargs):
            self.shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return recorded


def test_validate_decomposes_nothing_larger_than_d_in_for_few_kraus(monkeypatch):
    a = random_cp_channel(3, 3, 21)
    b = random_cp_channel(3, 3, 22, kraus_count=2)
    product = tensor_channels(a, b)
    assert len(product.kraus) < product.choi.shape[0]
    rec = _Recorder(monkeypatch)
    report = validate(product)
    assert report.is_channel and report.min_choi_eigenvalue == 0.0
    assert rec.shapes and all(max(s) <= product.d_in for s in rec.shapes)


@pytest.mark.parametrize("N", [2, 3])
def test_full_kraus_rank_takes_the_dense_path(monkeypatch, N):
    ch = random_cp_channel(N, N, 31, kraus_count=N * N)
    rec = _Recorder(monkeypatch)
    report = validate(ch)
    assert (N * N, N * N) in rec.shapes
    assert report.is_channel
