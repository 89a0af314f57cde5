"""Cross-module sweep on a real nonsymmetric generator with complex eigenpairs.

Rotation-type matrices keep everything honest: spectral factors, resolvents,
remainder chains and series all run through genuinely complex arithmetic.
The extension routes are also run on nearly imaginary modes, whose semigroup
factor turns up to 173 times per decay length.
"""

import numpy as np
import pytest
from scipy.special import gamma, kv

from fracext import (
    BesselParams,
    FracOrder,
    Generator,
    balakrishnan_general,
    bbw_frac_power,
    build_profile,
    extend_explicit,
    extend_subordination,
    initial_condition_suite,
    ode_cross_solve,
    pde_residual,
    resolvent_frac_power,
    trace_constants,
    trace_incremental,
    trace_neumann,
)

from conftest import relerr


@pytest.fixture
def spiral_gen():
    # eigenvalues -1 +/- 2i
    return Generator(np.array([[-1.0, 2.0], [-2.0, -1.0]]))


@pytest.fixture
def spiral_u():
    return np.array([1.0, -0.5], dtype=complex)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.5, 2.7])
def test_constructions_reconcile(spiral_gen, spiral_u, s):
    oracle = spiral_gen.frac_power(s, spiral_u)
    order = FracOrder(s)
    assert relerr(balakrishnan_general(spiral_gen, order, spiral_u), oracle) <= 1e-7
    assert relerr(bbw_frac_power(spiral_gen, order, order.n + 1, spiral_u), oracle) <= 1e-4
    assert trace_neumann(spiral_gen, order, spiral_u).oracle_err <= 1e-5
    if order.n <= 1:
        assert trace_incremental(spiral_gen, order, spiral_u).oracle_err <= 1e-3
    back = resolvent_frac_power(spiral_gen, 0.0, s, oracle)
    assert relerr(back, spiral_u) <= 1e-8


def test_representations_and_residuals(spiral_gen, spiral_u):
    for y in (0.1, 1.0):
        explicit = extend_explicit(spiral_gen, 2.5, spiral_u, y)
        subord = extend_subordination(spiral_gen, 2.5, spiral_u, y)
        assert relerr(explicit, subord) <= 1e-8
        assert pde_residual(spiral_gen, 2.5, spiral_u, y, kind="higher") <= 1e-7


def test_series_reconstruction(spiral_gen, spiral_u):
    s = 0.4
    order = FracOrder(s)
    a = 1.0 - 2.0 * s
    data = trace_constants(order).c_s * spiral_gen.frac_power(s, spiral_u)
    params = BesselParams(a=a)
    for y in np.linspace(0.05, 1.5, 8):
        rebuilt = ode_cross_solve(spiral_gen, a, spiral_u, data, float(y), params)
        direct = extend_subordination(spiral_gen, order, spiral_u, float(y))
        assert relerr(rebuilt, direct) <= 1e-6


# diag(lam, conj(lam), -1) with lam = rho e^{i(pi - phi)}: |Im lam / Re lam| = tan(phi), from 32
# to 173; on the real r-axis e^{t lam} turns that many times per decay length
OSCILLATORY = [pytest.param(rho * np.exp(1j * (np.pi - phi)), id=f"phi={phi}-rho={rho:g}")
               for phi in (1.54, 1.56, 1.565) for rho in (1.0, 10.0, 100.0)]
OSCILLATORY.append(pytest.param(-0.1 + 10j, id="-0.1+10i"))


@pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
@pytest.mark.parametrize("lam", OSCILLATORY)
def test_extension_routes_on_oscillatory_modes(lam, s):
    """Profile, Neumann trace and initial-condition suite on nearly imaginary modes.

    The profile matches the per-mode Bessel-K form ``(2/Gamma(s)) (z/2)^s
    K_s(z)``, ``z = sqrt(-lam) y``, from ``y = 1e-3`` to 5; ``u`` is the
    eigencoordinate vector itself.
    """
    gen = Generator(np.diag([lam, np.conj(lam), -1.0]))
    u = np.ones(3, dtype=complex)
    ys = np.geomspace(1e-3, 5.0, 8)
    root = np.sqrt(-gen.eigenvalues)
    profile = build_profile(gen, s, u, ys)
    for y, value in zip(ys, profile.values):
        z = root * y
        assert relerr(value, 2.0 / gamma(s) * (z / 2.0) ** s * kv(s, z)) <= 1e-12, y
    trace = trace_neumann(gen, s, u)
    assert trace.converged and trace.oracle_err <= 1e-12
    report = initial_condition_suite(gen, s, u)
    assert report.all_passed, [(line.m, line.kind, line.error) for line in report.lines]
