from dataclasses import fields

import numpy as np
import pytest

from fracext.quadrature import (
    ConvergenceError,
    QuadratureSpec,
    _tanh_sinh_odd,
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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_spec_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        QuadratureSpec(32, tol)


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


def recording(f):
    """``f`` wrapped to keep a copy of every node array it is called on."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    return g, calls


def test_tanh_sinh_odd_part_completes_the_coarser_rule():
    for h in (0.5, 0.125, 0.1, 1.0 / 48.0):
        coarse_x, coarse_w = tanh_sinh_rule(h)
        odd_x, odd_w = _tanh_sinh_odd(0.5 * h)
        fine_x, fine_w = tanh_sinh_rule(0.5 * h)
        x = np.concatenate([coarse_x, odd_x])
        w = np.concatenate([0.5 * coarse_w, odd_w])
        order = np.argsort(x)
        assert np.array_equal(x[order], fine_x), h
        assert np.array_equal(w[order], fine_w), h


def test_tanh_sinh_nodes_strictly_increase():
    # nodes next to 1 that would round onto a neighbour are dropped, each evaluated once
    for j in range(3, 9):
        h = 2.0**-j
        x, w = tanh_sinh_rule(h)
        assert np.all(np.diff(x) > 0.0), h
        assert np.all(np.diff(_tanh_sinh_odd(h)[0]) > 0.0), h
        assert abs(np.sum(w) - 1.0) <= 1e-14, h


def test_trapezoid_levels_evaluate_each_node_once():
    lo, hi, h0 = -40.0, 40.3, 1.0
    g, calls = recording(lambda x: 1.0 / np.cosh(x))
    val = trapezoid_refine(g, lo, hi, 1e-13, h0=h0)
    assert len(calls) >= 3
    nodes = np.concatenate(calls)
    count = int(np.ceil((hi - lo) / h0 - 0.5)) * 2 ** (len(calls) - 1)
    h = h0 / 2 ** (len(calls) - 1)
    finest = lo + h * np.arange(count + 1)
    assert len(nodes) == len(finest) == len(np.unique(nodes))
    assert np.array_equal(np.sort(nodes), finest)
    weights = np.full(len(finest), h)
    weights[[0, -1]] *= 0.5
    reference = np.sum(weights / np.cosh(finest))
    assert abs(val - reference) <= 1e-15 * abs(reference)


def test_integrate_unit_levels_evaluate_each_node_once():
    g, calls = recording(np.cos)
    val = integrate_unit(g, 1e-14, nodes0=16)
    assert len(calls) >= 3
    nodes = np.concatenate(calls)
    finest_x, finest_w = tanh_sinh_rule(0.5 / 2 ** (len(calls) - 1))
    assert len(nodes) == len(finest_x)
    assert np.array_equal(np.sort(nodes), np.sort(finest_x))
    reference = np.sum(finest_w * np.cos(finest_x))
    assert abs(val - reference) <= 1e-15 * abs(reference)


def test_nested_vector_values_match_the_direct_sum():
    def f(x):
        return np.stack([np.exp(-x * x), 1j * x * np.exp(-x * x), np.exp(-x * x + 0.5j * x)], axis=1)

    g, calls = recording(f)
    val = trapezoid_refine(g, -7.0, 7.0, 1e-13, h0=1.0)
    assert len(calls) >= 3
    h = 1.0 / 2 ** (len(calls) - 1)
    finest = -7.0 + h * np.arange(round(14.0 / h) + 1)
    weights = np.full(len(finest), h)
    weights[[0, -1]] *= 0.5
    reference = weights @ f(finest)
    assert val.shape == (3,)
    assert np.linalg.norm(val - reference) <= 1e-15 * np.linalg.norm(reference)

    g, calls = recording(lambda x: f(x).reshape(-1, 3, 1))
    val = integrate_unit(g, 1e-13, singular_power=-0.5, nodes0=16)
    assert len(calls) >= 3
    w_nodes, weights = tanh_sinh_rule(0.5 / 2 ** (len(calls) - 1))
    reference = 2.0 * (weights @ f(w_nodes**2))
    assert val.shape == (3, 1)
    assert np.linalg.norm(val[:, 0] - reference) <= 1e-15 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    "lo, hi, h0",
    [(0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (-np.inf, 1.0, 0.25), (0.0, np.inf, 0.25),
     (np.nan, 1.0, 0.25), (0.0, 1.0, np.inf)],
)
def test_trapezoid_rejects_bad_window(lo, hi, h0):
    with pytest.raises(ValueError, match=r"probe: trapezoid window"):
        trapezoid_refine(np.exp, lo, hi, 1e-12, h0=h0, name="probe")


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
