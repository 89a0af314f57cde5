import numpy as np
import pytest

from fracext import Generator, random_generator


def relerr(value, reference):
    ref = np.linalg.norm(np.atleast_1d(reference))
    return float(np.linalg.norm(np.atleast_1d(value) - np.atleast_1d(reference)) / max(ref, 1e-300))


def nonnormal_factors():
    """``V`` and ``lam`` of the 48 x 48 non-normal complex generator ``V diag(lam) V^{-1}``."""
    rng = np.random.default_rng(12)
    dim = 48
    lam = -np.linspace(0.5, 10.0, dim) + 1j * rng.permutation(np.linspace(-10.0, 10.0, dim))
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vecs = np.eye(dim) + 0.25 * noise / np.sqrt(2.0)
    return vecs, lam


@pytest.fixture
def diag_gen():
    return Generator(np.diag([-1.0, -4.0]))


@pytest.fixture
def scalar_gen():
    return Generator(np.diag([-1.0]))


@pytest.fixture
def rand8():
    return random_generator(8, 3)


@pytest.fixture
def rand8_u():
    return np.random.default_rng(42).standard_normal(8) + 0j
