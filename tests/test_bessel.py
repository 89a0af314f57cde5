import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, iv

from fracext import (
    BesselParams,
    ConvergenceError,
    FracOrder,
    extend_subordination,
    ivp_classify,
    ode_cross_solve,
    phi,
    phi_op,
    trace_constants,
)
from fracext.cli import builtin_matrix

from conftest import relerr


class TestParams:
    def test_validation(self):
        BesselParams(a=0.5, lam=2.0)
        with pytest.raises(ValueError, match="a < 1"):
            BesselParams(a=1.0)
        with pytest.raises(ValueError, match="resonant"):
            BesselParams(a=-1.0)
        with pytest.raises(ValueError, match="resonant"):
            BesselParams(a=-3.0)
        with pytest.raises(ValueError):
            BesselParams(a=0.5, trunc_tol=0.0)


class TestScalarSeries:
    def test_value_at_origin(self):
        p = BesselParams(a=0.5, lam=3.0)
        assert phi(1, 0.0, p) == 1.0
        assert phi(2, 0.0, p) == 0.0

    def test_second_solution_asymptotics(self):
        a = 0.5
        p = BesselParams(a=a, lam=1.0)
        y = 1e-4
        ratio = phi(2, y, p) / (y ** (1.0 - a) / (1.0 - a))
        assert abs(ratio - 1.0) <= 1e-6

    @pytest.mark.parametrize("y", [0.4, 1.0, 2.3])
    def test_ode_residual_exact_series(self, y):
        a, lam = 0.5, 2.0
        p = BesselParams(a=a, lam=lam)
        for kind in (1, 2):
            val = phi(kind, y, p)
            d1 = phi(kind, y, p, deriv=1)
            d2 = phi(kind, y, p, deriv=2)
            assert abs(d2 + (a / y) * d1 - lam * val) <= 1e-10 * max(1.0, abs(val))

    def test_modified_bessel_identity(self):
        a, lam = 0.5, 1.0
        nu = (1.0 - a) / 2.0
        p = BesselParams(a=a, lam=lam)
        for y in (0.3, 1.0, 2.5):
            lhs = phi(1, y, p)
            rhs = gamma(1.0 - nu) * (np.sqrt(lam) * y / 2.0) ** nu * iv(-nu, np.sqrt(lam) * y)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_tiny_lam_huge_y_matches_bessel_i(self):
        """``lam y^2 = 1`` with ``y^2`` past the float range: each term is the previous one's ratio."""
        nu = 0.3
        rhs = gamma(1.0 - nu) * 0.5**nu * iv(-nu, 1.0)
        assert abs(phi(1, 1e150, BesselParams(a=0.4, lam=1e-300)) - rhs) <= 1e-13 * rhs

    def test_entire_series_budget(self):
        # doubling the budget changes converged values by less than trunc_tol
        for lam in (1.0, 25.0, 100.0):
            lean = BesselParams(a=0.5, lam=lam, max_terms=200)
            rich = BesselParams(a=0.5, lam=lam, max_terms=400)
            assert abs(phi(1, 1.0, lean) - phi(1, 1.0, rich)) <= lean.trunc_tol

    def test_budget_exhaustion_raises(self):
        p = BesselParams(a=0.5, lam=1e4, max_terms=6)
        with pytest.raises(ConvergenceError, match="budget"):
            phi(1, 10.0, p)

    @pytest.mark.parametrize("kind, deriv", [(1, 0), (2, 1)])
    def test_overflow_raises_instead_of_returning_inf(self, kind, deriv):
        """At ``lam y^2 = 1.5e7`` the terms pass the float range; the series raises, as ``phi_op`` does."""
        p = BesselParams(a=0.4, lam=16900.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=f"phi_{kind} series: term \\d+ overflows"):
                phi(kind, 30.0, p, deriv=deriv)

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_power_overflow_raises_instead_of_overflow_error(self, kind, deriv):
        """A tiny ``lam`` and a huge ``y``: ``y**power`` leaves the float range before the sum does."""
        p = BesselParams(a=0.4, lam=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=f"phi_{kind} series: term \\d+ overflows"):
                phi(kind, 1e200, p, deriv=deriv)

    def test_boundary_data_matrix_is_identity(self):
        a = 0.5
        p = BesselParams(a=a, lam=1.0)
        y = 1e-4
        mat = np.array(
            [
                [phi(1, y, p), phi(2, y, p) / (y ** (1.0 - a) / (1.0 - a))],
                [y**a * phi(1, y, p, deriv=1), y**a * phi(2, y, p, deriv=1)],
            ]
        )
        assert np.abs(mat - np.array([[1.0, 1.0], [0.0, 1.0]])).max() <= 1e-6


class TestOperatorSeries:
    def test_zero_map(self):
        a = 0.3
        p = BesselParams(a=a)
        u = np.array([1.0, -2.0], dtype=complex)
        zero = np.zeros((2, 2))
        assert np.allclose(phi_op(1, 0.7, zero, a, u, p), u)
        expected = 0.7 ** (1.0 - a) / (1.0 - a) * u
        assert np.allclose(phi_op(2, 0.7, zero, a, u, p), expected)

    def test_scalar_reduction(self):
        a, lam = 0.5, 2.0
        p = BesselParams(a=a, lam=lam)
        mat = np.array([[lam]])
        one = np.ones(1, dtype=complex)
        for kind in (1, 2):
            for y in (0.3, 1.0, 2.0):
                assert relerr(phi_op(kind, y, mat, a, one, p), phi(kind, y, p) * one) <= 1e-12

    def test_tiny_operator_huge_y_matches_bessel_i(self):
        """``T = [[1e-300]]``, ``y = 1e150``: ``T^k u`` underflows, the whole terms do not."""
        nu = 0.3
        rhs = gamma(1.0 - nu) * 0.5**nu * iv(-nu, 1.0)
        one = np.ones(1, dtype=complex)
        got = phi_op(1, 1e150, np.array([[1e-300]]), 0.4, one, BesselParams(a=0.4))
        assert abs(got[0] - rhs) <= 1e-13 * rhs

    def test_weighted_derivative_boundary_data(self):
        a = 0.5
        p = BesselParams(a=a)
        mat = np.diag([1.0, 4.0])
        v = np.array([1.0, -0.5], dtype=complex)
        y = 1e-3
        got = y**a * phi_op(2, y, mat, a, v, p, deriv=1)
        assert relerr(got, v) <= 1e-4

    def test_shape_mismatch(self):
        p = BesselParams(a=0.5)
        with pytest.raises(ValueError, match="mismatch"):
            phi_op(1, 0.5, np.eye(3), 0.5, np.ones(2, dtype=complex), p)

    @pytest.mark.parametrize("y", [-0.5, np.nan, np.inf])
    def test_rejects_negative_and_non_finite_y(self, y):
        """The scalar series refuses ``y < 0``; the operator series does the same."""
        p = BesselParams(a=0.4)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            phi_op(1, y, np.diag([1.0, 4.0]), 0.4, np.ones(2, dtype=complex), p)

    @pytest.mark.parametrize("y", [0.05, 0.4, 3.0])
    def test_stiff_operator_converges_or_raises_without_warnings(self, y):
        """``||T|| y^2`` is 42, 2.7e3 and 1.5e5: ``T^k u`` overflows on the last two, and the
        series must stop with ``ConvergenceError`` instead of warning its way to the budget."""
        mat = -builtin_matrix("laplacian1d:64").matrix
        u = np.ones(64, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = phi_op(1, y, mat, 0.4, u, BesselParams(a=0.4))
            except ConvergenceError:
                assert y > 0.05
                return
        lam, vec = np.linalg.eigh(mat)
        modes = np.array([phi(1, y, BesselParams(a=0.4, lam=mu)) for mu in lam])
        assert relerr(got, vec @ (modes * (vec.T @ u))) <= 1e-10


class TestClassifier:
    def test_paper_table(self):
        assert ivp_classify(0.5, 0.5) == "unique"
        assert ivp_classify(-1.0, -1.0) == "unique"
        assert ivp_classify(0.5, 0.7) == "non_unique"
        assert ivp_classify(0.5, 0.2) == "forced_data"
        assert ivp_classify(-1.5, -1.5) == "forced_data"

    def test_rejects_large_a(self):
        with pytest.raises(ValueError):
            ivp_classify(1.0, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=-3.0, max_value=0.999),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_rule(self, a, b):
        verdict = ivp_classify(a, b)
        if b > a:
            assert verdict == "non_unique"
        elif b < a:
            assert verdict == "forced_data"
        else:
            assert verdict == ("unique" if -1.0 <= a else "forced_data")


class TestCrossSolve:
    def test_zero_data(self, diag_gen):
        zero = np.zeros(2, dtype=complex)
        out = ode_cross_solve(diag_gen, 0.2, zero, zero, 1.0)
        assert np.linalg.norm(out) == 0.0

    def test_scalar_exponential(self, scalar_gen):
        # a = 0: solutions exp(+-y); data (1, -1) selects exp(-y)
        got = ode_cross_solve(
            scalar_gen, 0.0, np.ones(1, dtype=complex), -np.ones(1, dtype=complex), 0.8
        )
        assert abs(got[0] - np.exp(-0.8)) <= 1e-9 * np.exp(-0.8)

    def test_budget_guard(self, diag_gen):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="budget"):
            ode_cross_solve(diag_gen, 0.2, u, u, 6.0)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -0.5])
    def test_non_finite_y_rejected(self, diag_gen, y):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            ode_cross_solve(diag_gen, 0.2, u, u, y)

    def test_reconstructs_extension_profile(self, diag_gen):
        s = 0.4
        order = FracOrder(s)
        a = 1.0 - 2.0 * s
        u = np.array([1.0, 1.0], dtype=complex)
        data = trace_constants(order).c_s * diag_gen.frac_power(s, u)
        p = BesselParams(a=a)
        for y in np.linspace(0.05, 1.5, 12):
            rebuilt = ode_cross_solve(diag_gen, a, u, data, float(y), p)
            direct = extend_subordination(diag_gen, order, u, float(y))
            assert relerr(rebuilt, direct) <= 1e-6
