import numpy as np
import pytest


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
