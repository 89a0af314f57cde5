"""Oracles for the per-mode extension layer that share nothing with the eigendecomposition.

Per mode the extension profile has the Bessel-K closed form
``U = (2/Gamma(s)) (z/2)^s K_s(z)`` with ``z = sqrt(-lam) y``, and
``dU/dy = -(2/Gamma(s)) 2^{-s} z^s K_{s-1}(z) sqrt(-lam)``.  The stiff case
takes its modes from the closed-form sine basis of ``laplacian1d:256``; the
non-normal case from the factors its matrix was built from.
"""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gamma, kv

from fracext import (
    Generator,
    build_profile,
    extend_explicit,
    extend_subordination,
    initial_condition_suite,
    radial_power,
    trace_neumann,
    y_derivatives_upto,
)
from fracext.cli import builtin_matrix
from fracext.extension import _taylor_remainders, weighted_extension_derivative
from fracext.verify import dirichlet_sine_power

from conftest import relerr

S_VALUES = (0.3, 1.5, 2.7)
Y_VALUES = (0.005, 0.05, 0.5)


def sine_modes(n):
    """Orthonormal sine basis and eigenvalues of ``laplacian1d:n``, in closed form."""
    k = np.arange(1, n + 1)
    basis = np.sin(np.outer(k, k) * np.pi / (n + 1)) * np.sqrt(2.0 / (n + 1))
    lam = -4.0 * (n + 1) ** 2 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
    return basis, lam


def bessel_k_modes(s, lam, y):
    """Per-mode ``U(y)`` and ``dU/dy`` from the Bessel-K closed forms."""
    root = np.sqrt(-np.asarray(lam, dtype=complex))
    z = root * y
    value = 2.0 / gamma(s) * (z / 2.0) ** s * kv(s, z)
    deriv = -2.0 / gamma(s) * 2.0**-s * z**s * kv(s - 1.0, z) * root
    return value, deriv


@pytest.fixture(scope="module")
def lap256():
    basis, lam = sine_modes(256)
    gen = builtin_matrix("laplacian1d:256")
    rng = np.random.default_rng(17)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return gen, basis, lam, u


@pytest.fixture(scope="module")
def nonnormal32():
    """``V diag(lam) V^{-1}`` with a complex spectrum and a non-unitary ``V``."""
    rng = np.random.default_rng(23)
    m = 32
    noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    vecs = np.eye(m) + 0.3 * noise / np.sqrt(m)
    lam = -(rng.uniform(0.5, 50.0, m) + 1j * rng.uniform(-10.0, 10.0, m))
    gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return gen, vecs, lam, u


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", Y_VALUES)
def test_profile_matches_bessel_k_on_sine_basis(lap256, s, y):
    gen, basis, lam, u = lap256
    value, deriv = bessel_k_modes(s, lam, y)
    coords = basis @ u
    ref_value, ref_deriv = basis @ (value * coords), basis @ (deriv * coords)
    assert relerr(extend_subordination(gen, s, u, y), ref_value) <= 1e-10
    derivs = y_derivatives_upto(gen, s, u, 1, y)
    assert relerr(derivs[0], ref_value) <= 1e-10
    assert relerr(derivs[1], ref_deriv) <= 1e-10


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", Y_VALUES)
def test_profile_matches_bessel_k_on_nonnormal_complex_spectrum(nonnormal32, s, y):
    gen, vecs, lam, u = nonnormal32
    value, deriv = bessel_k_modes(s, lam, y)
    coords = np.linalg.solve(vecs, u)
    ref_value, ref_deriv = vecs @ (value * coords), vecs @ (deriv * coords)
    assert relerr(extend_subordination(gen, s, u, y), ref_value) <= 1e-9
    derivs = y_derivatives_upto(gen, s, u, 1, y)
    assert relerr(derivs[0], ref_value) <= 1e-9
    assert relerr(derivs[1], ref_deriv) <= 1e-9


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", (0.005, 0.05))
def test_radial_power_representations_agree_on_stiff_laplacian(lap256, s, y):
    gen, _, _, u = lap256
    for m in range(int(s) + 2):
        from_u = radial_power(gen, s, u, m, y, mode="from_u")
        from_f = radial_power(gen, s, u, m, y, mode="from_f")
        assert relerr(from_u, from_f) <= 1e-8, m


def test_trace_neumann_raises_no_runtime_warning(lap256):
    gen, _, _, u = lap256
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        estimate = trace_neumann(gen, 2.7, u)
    assert estimate.converged
    assert relerr(estimate.value, dirichlet_sine_power(256, 2.7, u)) <= 1e-10


def test_initial_condition_suite_raises_no_runtime_warning():
    gen = builtin_matrix("laplacian1d:128")
    u = np.random.default_rng(5).standard_normal(128) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = initial_condition_suite(gen, 2.7, u)
    assert report.lines


def test_extension_never_applies_dense_semigroup(lap256, monkeypatch):
    """Every integrand works on eigencoordinates; none calls ``semigroup_batch``."""
    gen, _, _, u = lap256

    def forbidden(*args, **kwargs):
        raise AssertionError("semigroup_batch called")

    monkeypatch.setattr(Generator, "semigroup_batch", forbidden)
    build_profile(gen, 1.5, u, [0.05, 0.1])
    radial_power(gen, 1.5, u, 1, 0.05, mode="from_f")
    weighted_extension_derivative(gen, 2.7, u, 2, 0.01, form="operator")
    for form in ("r", "t"):
        extend_explicit(gen, 0.3, u, 0.05, form=form)


def test_taylor_remainders_against_high_precision():
    z = np.array([-1.0, -0.5, -1e-3, -1e-8, 0.3 + 0.9j, -0.7 - 0.7j, 1e-6j,
                  -3.0, -40.0, -1e4, 5.0 + 20.0j])
    small = np.abs(z) <= 1.0
    for top in range(-1, 4):
        for bottom in range(-1, top + 1):
            rems = _taylor_remainders(z, top, bottom, small)
            assert sorted(rems) == list(range(bottom, top + 1))
            for i, got in rems.items():
                with mpmath.workdps(100):
                    exact = np.array([
                        complex(mpmath.exp(mpmath.mpc(w))
                                - sum(mpmath.mpc(w) ** k / mpmath.factorial(k) for k in range(i + 1)))
                        for w in z
                    ])
                err = np.abs(got - exact) / np.maximum(np.abs(exact), 1e-300)
                assert err.max() <= 1e-14, (top, bottom, i)
