from pathlib import Path

import numpy as np
import pytest

from choiscope.cli import EXIT_INVALID, EXIT_OK

FIXTURES = Path(__file__).parent / "fixtures"

# Every golden report: (argv, golden under tests/golden, exit code).  A
# ``.json`` argument names a file under tests/fixtures (``fixture_argv``).
# test_cli.py runs each row in-process with --out, test_entry_point.py
# through the console script's stdout.
GOLDEN_RUNS = [
    (["inspect", "identity2.json"], "inspect_identity2.json", EXIT_OK),
    (["inspect", "transpose2.json"], "inspect_transpose2.json", EXIT_INVALID),
    (["inspect", "maxmixed.json"], "inspect_maxmixed.json", EXIT_OK),
    (["convert", "identity2.json", "choi"], "convert_identity2_choi.json", EXIT_OK),
    (["convert", "depolarizing2.json", "liouville"],
     "convert_depolarizing2_liouville.json", EXIT_OK),
    # inexact Kraus entries: L and D are sums of non-trivial products
    (["convert", "random_cp4x4.json", "liouville"],
     "convert_random_cp4x4_liouville.json", EXIT_OK),
    (["convert", "random_cp4x4.json", "choi"], "convert_random_cp4x4_choi.json", EXIT_OK),
    # the left map is the identity, so the Liouville product is exact on any BLAS
    (["compose", "identity2.json", "random_cp2.json"],
     "compose_identity2_random_cp2.json", EXIT_OK),
    # one elementwise product per entry
    (["tensor", "random_cp2.json", "depolarizing2.json"],
     "tensor_random_cp2_depolarizing2.json", EXIT_OK),
    (["gen", "random-cp", "2", "3", "--seed", "1"], "gen_random_cp_2_3_1.json", EXIT_OK),
    (["gen", "random-state", "2", "2", "--seed", "5"], "gen_random_state_5.json", EXIT_OK),
    (["bsa", "singlet.json", "--seed", "0", "--budget", "50"], "bsa_singlet.json", EXIT_OK),
    (["bsa", "maxmixed.json", "--seed", "0", "--budget", "100"], "bsa_maxmixed.json", EXIT_OK),
    (["bsa", "random_cp4x4.json", "--seed", "0", "--operation", "--budget", "5"],
     "bsa_operation_random_cp4x4.json", EXIT_OK),
]


def fixture_argv(argv):
    """``argv`` with each ``.json`` argument made a path under tests/fixtures."""
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_psd(rng, d, rank=0):
    r = rank if rank else d
    A = random_complex(rng, d, r)
    return A @ A.conj().T


def random_density(rng, d, rank=0):
    rho = random_psd(rng, d, rank)
    return rho / np.trace(rho).real


def large_kraus_set(count):
    """``count`` random complex 4x4 operators of scale 1e3: D has entries ~1e7."""
    return list(1e3 * random_complex(np.random.default_rng(3), count, 4, 4))
