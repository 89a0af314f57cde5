from dataclasses import fields

import numpy as np
import pytest

from fracext.quadrature import (
    ConvergenceError,
    QuadratureSpec,
    extrapolation_spread,
    integrate_unit,
    richardson,
    richardson_table,
    tanh_sinh_rule,
    trapezoid_refine,
)


def test_spec_validation():
    assert [f.name for f in fields(QuadratureSpec)] == ["nodes", "tol"]
    assert QuadratureSpec() == QuadratureSpec(128, 1e-12)
    QuadratureSpec(32, 1e-10)
    with pytest.raises(ValueError, match="nodes"):
        QuadratureSpec(4, 1e-10)
    with pytest.raises(ValueError, match="tolerance"):
        QuadratureSpec(32, -1.0)


def test_tanh_sinh_nodes_inside_interval():
    x, w = tanh_sinh_rule(0.125)
    assert np.all(x > 0) and np.all(x < 1) and np.all(w > 0)


def test_integrate_unit_power_singularities():
    # int_0^1 x^p dx = 1/(1+p), handled exactly by the power substitution
    for p in (-0.5, -0.9, -0.999, 0.7):
        val = integrate_unit(lambda x: np.ones_like(x), 1e-13, singular_power=p)
        assert abs(val - 1.0 / (1.0 + p)) < 1e-12


def test_integrate_unit_log_endpoint():
    # int_0^1 x^{-1/2} log(1/x)-free smooth part: use sin for a generic check
    val = integrate_unit(np.sin, 1e-13)
    assert abs(val - (1.0 - np.cos(1.0))) < 1e-12


def test_integrate_unit_vector_valued():
    val = integrate_unit(lambda x: np.stack([x, x**2], axis=1), 1e-13)
    assert np.allclose(val, [0.5, 1.0 / 3.0], atol=1e-12)


def test_trapezoid_refine_gaussian():
    val = trapezoid_refine(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-13)
    assert abs(val - np.sqrt(np.pi)) < 1e-12


def test_refinement_failure_raises():
    # a jump defeats both rules: neither converges within its level budget
    def jump(x):
        return (x > 1.0 / 3.0).astype(float)

    with pytest.raises(ConvergenceError, match="trapezoid") as err:
        trapezoid_refine(jump, 0.0, 1.0, 1e-13)
    assert 1e-4 < err.value.achieved < 1e-1
    with pytest.raises(ConvergenceError, match="tanh-sinh") as err:
        integrate_unit(jump, 1e-13)
    assert 1e-4 < err.value.achieved < 1e-1


def test_richardson_eliminates_prescribed_powers():
    # synthetic data V + a y^0.7 + b y^2 on a geometric sequence
    limit = 3.0
    ys = 0.5 * 0.5 ** np.arange(8)
    vals = limit + 2.0 * ys**0.7 - 1.4 * ys**2
    est = richardson(list(vals), [0.7, 2.0])
    assert abs(est - limit) < 1e-12


def test_richardson_table_shapes():
    vals = [np.array([v, 2 * v]) for v in (4.0, 2.0, 1.0)]
    table = richardson_table(vals, [1.0, 2.0])
    assert len(table) == 3
    assert len(table[0]) == 3 and len(table[-1]) == 1


def test_extrapolation_spread():
    table = [[np.array([1.0]), np.array([1.5]), np.array([1.75])], [np.array([2.0]), np.array([2.0])]]
    assert extrapolation_spread(table) == 0.0
    assert np.isinf(extrapolation_spread([[np.array([1.0])]]))
