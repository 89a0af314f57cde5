import csv
import io
import time
import warnings
from math import factorial

import numpy as np
import pytest
from scipy.special import gamma, kv

import fracext
from fracext import (
    FracOrder,
    Generator,
    build_profile,
    exp_tail,
    explicit_poly_part,
    extend_explicit,
    extend_subordination,
    normalization_check,
    pde_residual,
    radial_power,
    trace_neumann,
    y_derivative,
    y_derivatives_upto,
)
from fracext.cli import builtin_matrix
from fracext.extension import _log_window, extension_operator_power

from conftest import relerr


def bessel_k_profile(s, lam, y):
    """Scalar closed form of the extension: ``(2/Gamma(s)) (y sqrt(lam)/2)^s K_s(y sqrt(lam))``."""
    z = y * np.sqrt(lam)
    return 2.0 / gamma(s) * (z / 2.0) ** s * kv(s, z)


class TestExpTail:
    def test_base_cases(self):
        r = np.array([0.0, 0.3, 2.0])
        assert np.allclose(exp_tail(0, r), np.exp(-r) - 1.0, atol=1e-15)
        assert exp_tail(0, 0.0) == 0.0
        assert np.allclose(exp_tail(-1, r), np.exp(-r))

    def test_leading_order_at_zero(self):
        import mpmath

        mpmath.mp.dps = 50
        r = 1e-4
        for n in (0, 1, 2, 3):
            # high-precision Taylor-remainder oracle
            exact = mpmath.exp(-r) - sum(mpmath.mpf(-r) ** k / mpmath.factorial(k) for k in range(n + 1))
            ratio = exp_tail(n, r) / r ** (n + 1)
            assert abs(ratio - float(exact) / r ** (n + 1)) <= 1e-6 * abs(ratio)
            # and the ratio approaches the limit at rate O(r)
            lead = (-1.0) ** (n + 1) / factorial(n + 1)
            assert abs(ratio - lead) <= r

    def test_derivative_recursion(self):
        h = 1e-6
        for n in (1, 2, 3):
            for r in (0.05, 0.4, 1.0, 4.0):
                diff = (exp_tail(n, r + h) - exp_tail(n, r - h)) / (2 * h)
                assert abs(diff + exp_tail(n - 1, r)) <= 1e-8

    def test_no_cancellation_in_tail_region(self):
        # direct difference at r = 1e-5, n = 3 would lose ~20 digits
        r = 1e-5
        two_terms = (-r) ** 4 / factorial(4) + (-r) ** 5 / factorial(5)
        assert abs(exp_tail(3, r) - two_terms) <= 1e-10 * abs(two_terms)

    def test_no_overflow_past_the_last_subtracted_term(self):
        # at r = e^300 the first omitted term r^3/3! overflows; F_2 itself is about -r^2/2
        r = np.exp(300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = exp_tail(2, np.array([r]))[0]
        assert abs(got + r * r / 2.0) <= 1e-15 * r * r / 2.0


def _log_weight(k, alpha, x):
    """``log |F_k(e^x) e^{alpha x}|`` in high precision, at any ``x``."""
    import mpmath

    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        r = mpmath.exp(x)
        if k < 0:
            tail = mpmath.exp(-r)
        elif r <= 1:
            tail = sum((-r) ** j / mpmath.factorial(j) for j in range(k + 1, k + 40))
        else:
            tail = mpmath.exp(-r) - sum((-r) ** j / mpmath.factorial(j) for j in range(k + 1))
        return float(mpmath.log(abs(tail)) + alpha * x)


@pytest.mark.parametrize("k", (-1, 0, 1, 2))
def test_log_window_edges_sit_on_the_weight_envelope(k):
    """At each finite window edge the weight ``F_k(e^x) e^{alpha x}`` is <= 1e-23 of its peak."""
    if k < 0:
        alphas = np.linspace(-2.9, 7.9, 28)
    else:
        alphas = -k - np.array([1.9, 1.5, 1.1, 0.9, 0.7, 0.5, 0.3, 0.1, 0.02])
    for alpha in alphas:
        lo, hi = _log_window(alpha, k)
        x = np.linspace(max(lo, -60.0), min(hi, 60.0), 4001)
        peak = np.max(np.log(np.abs(exp_tail(k, np.exp(x)))) + alpha * x)
        for edge in (lo, hi):
            if np.isfinite(edge):
                assert _log_weight(k, alpha, edge) - peak <= np.log(1e-23), (alpha, edge)


class TestPolyPart:
    def test_derivative_identity(self, diag_gen):
        order = FracOrder(2.5)
        u = np.array([1.0, -0.5], dtype=complex)
        h = 1e-5
        for start in (0, 1):
            for r in (0.2, 1.0, 3.0):
                diff = (
                    explicit_poly_part(diag_gen, order, u, start, order.n, r + h)
                    - explicit_poly_part(diag_gen, order, u, start, order.n, r - h)
                ) / (2 * h)
                target = -explicit_poly_part(diag_gen, order, u, start + 1, order.n, r)
                assert np.linalg.norm(diff - target) <= 1e-8

    def test_array_r_matches_scalar_calls_bitwise(self, rand8, rand8_u):
        order = FracOrder(2.7)
        r = np.array([0.0, 1e-6, 0.2, 1.0, 3.0])
        for start in (0, 1, 2, 3):
            rows = explicit_poly_part(rand8, order, rand8_u, start, order.n, r)
            assert rows.shape == (r.size, rand8.dim)
            single = [explicit_poly_part(rand8, order, rand8_u, start, order.n, x) for x in r]
            assert np.array_equal(rows, np.array(single))


class TestSubordination:
    def test_zero_input(self, diag_gen):
        out = extend_subordination(diag_gen, 0.5, np.zeros(2, dtype=complex), 0.7)
        assert np.all(out == 0)

    def test_scalar_closed_form(self, scalar_gen):
        got = extend_subordination(scalar_gen, 0.5, np.ones(1, dtype=complex), 0.7)
        assert abs(got[0] - np.exp(-0.7)) <= 1e-8

    def test_componentwise_scalar_oracle(self, diag_gen):
        # per-eigenvalue Bessel-K closed form, assembled componentwise
        u = np.array([1.0, 1.0], dtype=complex)
        got = extend_subordination(diag_gen, 2.7, u, 1.0)
        expected = np.array([bessel_k_profile(2.7, 1.0, 1.0), bessel_k_profile(2.7, 4.0, 1.0)])
        assert relerr(got, expected) <= 1e-10

    def test_boundary_value(self, diag_gen):
        u = np.array([0.3, -1.0], dtype=complex)
        assert np.array_equal(extend_subordination(diag_gen, 0.5, u, 0.0), u)
        with pytest.raises(ValueError):
            extend_subordination(diag_gen, 0.5, u, -1.0)

    def test_bounded_by_semigroup_constant(self, rand8, rand8_u):
        scale = np.linalg.norm(rand8_u)
        for y in (0.1, 0.5, 1.0, 3.0, 10.0):
            val = extend_subordination(rand8, 0.7, rand8_u, y)
            assert np.linalg.norm(val) <= rand8.bound_M * scale * (1 + 1e-12)

    def test_continuity_at_zero_monotone(self, diag_gen):
        u = np.array([1.0, 0.5], dtype=complex)
        gaps = [
            np.linalg.norm(extend_subordination(diag_gen, 0.7, u, 2.0**-j) - u)
            for j in range(11)
        ]
        assert all(gaps[i + 1] < gaps[i] for i in range(10))

    def test_commutation_with_negative_power(self, rand8, rand8_u):
        s, y = 0.7, 0.8
        left = extend_subordination(rand8, s, rand8.frac_power(-s, rand8_u), y)
        right = rand8.frac_power(-s, extend_subordination(rand8, s, rand8_u, y))
        assert relerr(left, right) <= 1e-9


class TestExplicit:
    def test_boundary_value(self, diag_gen):
        u = np.array([2.0, -1.0], dtype=complex)
        assert np.array_equal(extend_explicit(diag_gen, 2.5, u, 0.0), u)

    def test_scalar_closed_form(self, scalar_gen):
        got = extend_explicit(scalar_gen, 0.5, np.ones(1, dtype=complex), 0.7)
        assert abs(got[0] - np.exp(-0.7)) <= 1e-8

    def test_agrees_with_subordination(self):
        gen = Generator(np.diag([-0.5, -1.0, -2.0, -4.0]))
        u = np.array([1.0, -1.0, 0.5, 2.0], dtype=complex)
        for y in (0.1, 1.0, 3.0):
            got = extend_explicit(gen, 2.5, u, y)
            ref = extend_subordination(gen, 2.5, u, y)
            assert relerr(got, ref) <= 1e-8

    def test_reports_its_cancellation(self):
        # on a stiff Laplacian the polynomial part cancels against the tail integral: at y = 1
        # about 8e-4 of U is lost, and both explicit routes refuse to return it
        gen = builtin_matrix("laplacian1d:256")
        u = np.random.default_rng(0).standard_normal(gen.dim) + 0j
        for call in (lambda y: extend_explicit(gen, 2.7, u, y),
                     lambda y: radial_power(gen, 2.7, u, 0, y, mode="from_f")):
            with pytest.raises(fracext.ConvergenceError, match="cancels") as info:
                call(1.0)
            assert info.value.required == 1e-9 and 1e-4 < info.value.achieved < 1e-2

    def test_cancellation_check_changes_no_bits(self, monkeypatch):
        # where the estimated loss is below 1e-9 the check passes the result through untouched
        gen = builtin_matrix("laplacian1d:256")
        u = np.random.default_rng(0).standard_normal(gen.dim) + 0j
        ys = (0.001, 0.01)
        checked = [extend_explicit(gen, 2.7, u, y) for y in ys]
        grid = radial_power(gen, 2.7, u, 0, np.array(ys), mode="from_f")
        monkeypatch.setattr(fracext.extension, "_EXPLICIT_LOSS", np.inf)
        for y, got in zip(ys, checked):
            assert np.array_equal(got, extend_explicit(gen, 2.7, u, y))
            assert relerr(got, extend_subordination(gen, 2.7, u, y)) <= 1e-13
        assert np.array_equal(grid, radial_power(gen, 2.7, u, 0, np.array(ys), mode="from_f"))


class TestYDerivative:
    def test_order_zero_is_value(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        a = y_derivative(diag_gen, 2.5, u, 0, 0.8)
        b = extend_subordination(diag_gen, 2.5, u, 0.8)
        assert relerr(a, b) <= 1e-12

    def test_scalar_first_derivative(self, scalar_gen):
        got = y_derivative(scalar_gen, 0.5, np.ones(1, dtype=complex), 1, 0.7)
        assert abs(got[0] + np.exp(-0.7)) <= 1e-8

    def test_against_central_differences(self, diag_gen):
        u = np.array([1.0, -0.5], dtype=complex)
        s, y, h = 1.5, 1.0, 1e-3
        stencil = [
            (extend_subordination(diag_gen, s, u, y + k * h)) * c
            for k, c in ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))
        ]
        numeric = sum(stencil) / h
        exact = y_derivative(diag_gen, s, u, 1, y)
        assert np.linalg.norm(numeric - exact) <= 1e-6

    def test_cap_enforced(self, diag_gen):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="cap"):
            y_derivative(diag_gen, 0.5, u, 7, 1.0)


class TestRadialPower:
    def test_order_zero(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        a = radial_power(diag_gen, 2.5, u, 0, 0.5)
        b = extend_subordination(diag_gen, 2.5, u, 0.5)
        assert relerr(a, b) <= 1e-11

    def test_modes_agree(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        for m in (1, 2):
            from_u = radial_power(diag_gen, 2.5, u, m, 0.5, mode="from_u")
            from_f = radial_power(diag_gen, 2.5, u, m, 0.5, mode="from_f")
            assert relerr(from_u, from_f) <= 1e-7

    @pytest.mark.parametrize("s", [1.1, 2.2])
    def test_from_f_taylor_tail_is_warning_free(self, diag_gen, s):
        u = np.array([1.0, 1.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            from_f = radial_power(diag_gen, s, u, 0, 0.5, mode="from_f")
        assert relerr(from_f, radial_power(diag_gen, s, u, 0, 0.5)) <= 1e-10

    @pytest.mark.parametrize("s", [1.07, 2.03])
    def test_taylor_tail_overflow_names_sigma(self, diag_gen, s):
        """The window of F_[s] reaches r = e^{55/sigma}, where r^[s] overflows."""
        with pytest.raises(ValueError, match="sigma"):
            radial_power(diag_gen, s, np.ones(2, dtype=complex), 0, 0.5, mode="from_f")

    @pytest.mark.parametrize("call", [
        lambda gen, u: radial_power(gen, 1.000001, u, 1, 0.5, mode="from_f"),
        lambda gen, u: extend_explicit(gen, 1e-6, u, 0.5),
    ], ids=["radial_power", "extend_explicit"])
    def test_wide_taylor_tail_window_names_sigma(self, diag_gen, call):
        """F_0 never overflows, but its window up to r = e^{55/sigma} would need ~1e8 nodes."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="sigma"):
            call(diag_gen, np.ones(2, dtype=complex))
        assert time.perf_counter() - start < 1.0

    def test_zero_index_tail_past_float_max_is_warning_free(self, diag_gen):
        """At sigma = 0.05 the F_0 window passes r = e^709.8, where e^r overflows and F_0 = -1."""
        u = np.ones(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            explicit = extend_explicit(diag_gen, 0.05, u, 0.5)
        assert relerr(explicit, extend_subordination(diag_gen, 0.05, u, 0.5)) <= 1e-14

    def test_small_y_limit(self, scalar_gen):
        # limit Gamma(s-m)/Gamma(s) L^m u = -2/3 at s=2.5, m=1, L=-1
        got = radial_power(scalar_gen, 2.5, np.ones(1, dtype=complex), 1, 1e-3)
        assert abs(got[0] + 2.0 / 3.0) <= 1e-3

    def test_range_checked(self, diag_gen):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="radial power"):
            radial_power(diag_gen, 0.5, u, 3, 0.5)


class TestNormalization:
    def test_reference_points(self):
        assert abs(normalization_check(0.5, 1.0) - 1.0) <= 1e-10
        assert abs(normalization_check(2.7, 0.1) - 1.0) <= 1e-10

    def test_grid(self):
        for s in (0.3, 1.5):
            for y in (0.1, 1.0, 10.0):
                assert abs(normalization_check(s, y) - 1.0) <= 1e-10


class TestPdeResidual:
    def test_scalar_half(self, scalar_gen):
        assert pde_residual(scalar_gen, 0.5, np.ones(1, dtype=complex), 0.7) <= 1e-10

    def test_random_second_order(self, rand8, rand8_u):
        for y in (0.1, 1.0, 5.0):
            assert pde_residual(rand8, 0.3, rand8_u, y) <= 1e-8

    def test_higher_order(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        assert pde_residual(diag_gen, 1.5, u, 1.0, kind="higher") <= 1e-7

    def test_zero_input(self, diag_gen):
        assert pde_residual(diag_gen, 0.5, np.zeros(2, dtype=complex), 1.0) == 0.0


class TestOperatorPower:
    def test_reduces_to_value_at_m0(self, diag_gen):
        u = np.array([1.0, -1.0], dtype=complex)
        a = extension_operator_power(diag_gen, 2.5, u, 0, 0.7)
        b = extend_subordination(diag_gen, 2.5, u, 0.7)
        assert relerr(a, b) <= 1e-11

    def test_true_coefficient_annihilates(self, rand8, rand8_u):
        # with a = 1-2s the extension ODE makes (L + a/y d/dy + d2/dy2) U vanish
        s, y = 1.5, 0.8
        lhs = extension_operator_power(rand8, s, rand8_u, 1, y, a=1.0 - 2.0 * s)
        assert np.linalg.norm(lhs) / np.linalg.norm(rand8_u) <= 1e-8


class TestProfile:
    def test_build_and_csv(self, diag_gen, tmp_path):
        u = np.array([1.0, 0.5], dtype=complex)
        ygrid = np.array([0.25, 0.5, 1.0])
        profile = build_profile(diag_gen, 1.5, u, ygrid, max_deriv=2)
        assert len(profile.values) == 3
        for j in range(3):
            assert np.array_equal(profile.derivs[j][0], profile.values[j])
        target = tmp_path / "profile.csv"
        profile.to_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "# s=1.5, dim=2"
        header = lines[1].split(",")
        assert header[:3] == ["y", "re_U1", "im_U1"]
        assert "re_dU1" in header and "re_d2U1" in header
        first = lines[2].split(",")
        assert abs(float(first[0]) - 0.25) < 1e-15
        assert abs(float(first[1]) - profile.values[0][0].real) < 1e-12

    def test_csv_bytes_are_those_of_csv_writer(self, diag_gen):
        """Rows formatted in one operation each match per-number ``csv.writer`` fields."""
        u = np.array([1.0, 0.5], dtype=complex)
        profile = build_profile(diag_gen, 1.5, u, np.array([0.25, 0.5]), max_deriv=2)
        profile.derivs[0][1] = np.array([complex(-0.0, np.nan), complex(np.inf, 5e-324)])
        reference = io.StringIO(newline="")
        reference.write("# s=1.5, dim=2\n")
        writer = csv.writer(reference)
        tags = ("U", "dU", "d2U")
        writer.writerow(["y"] + [f"{p}_{t}{i}" for t in tags for i in (1, 2) for p in ("re", "im")])
        for y, derivs in zip(profile.ygrid, profile.derivs):
            numbers = [f"{part:.17g}" for vec in derivs for z in vec for part in (z.real, z.imag)]
            writer.writerow([f"{y:.17g}"] + numbers)
        written = io.StringIO(newline="")
        profile.to_csv(written)
        assert written.getvalue() == reference.getvalue()

    def test_grid_validation(self, diag_gen):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="increasing"):
            build_profile(diag_gen, 0.5, u, [1.0, 0.5])
        with pytest.raises(ValueError, match="increasing"):
            build_profile(diag_gen, 0.5, u, [-1.0, 0.5])


def test_y_arrays_validated(diag_gen):
    u = np.array([1.0, -0.5], dtype=complex)
    with pytest.raises(ValueError, match="1-d"):
        radial_power(diag_gen, 0.5, u, 0, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="1-d"):
        extend_subordination(diag_gen, 0.5, u, [])
    with pytest.raises(ValueError, match="y > 0"):
        y_derivatives_upto(diag_gen, 0.5, u, 1, [0.5, 0.0])
    rows = extend_subordination(diag_gen, 0.5, u, [0.0, 0.7])
    assert np.array_equal(rows[0], u)
    assert relerr(rows[1], extend_subordination(diag_gen, 0.5, u, 0.7)) <= 1e-12


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_non_finite_y_rejected(diag_gen, bad):
    # NaN must not take the y = 0 branch (which returns u), nor inf reach the window rule
    u = np.array([1.0, -0.5], dtype=complex)
    calls = (
        lambda: extend_subordination(diag_gen, 0.5, u, bad),
        lambda: extend_subordination(diag_gen, 0.5, u, [0.0, 0.5, bad]),
        lambda: extend_explicit(diag_gen, 0.5, u, bad),
        lambda: normalization_check(0.5, bad),
        lambda: radial_power(diag_gen, 1.5, u, 1, bad),
        lambda: build_profile(diag_gen, 1.5, u, [0.1, 0.5, bad]),
        lambda: trace_neumann(diag_gen, 0.5, u, ysched=[bad, 1.0]),
        lambda: trace_neumann(diag_gen, 0.5, u, ysched=[0.4, 0.2, bad]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_derivatives_shared_rule_consistency(rand8, rand8_u):
    # all orders from one call agree with the order-by-order evaluations
    derivs = y_derivatives_upto(rand8, 1.5, rand8_u, 4, 0.9)
    for m in range(5):
        single = y_derivative(rand8, 1.5, rand8_u, m, 0.9)
        assert relerr(derivs[m], single) <= 1e-12


def test_first_power_integration_by_parts_identity(diag_gen):
    """L U(y) equals the kernel-differentiated integral against v(t) = int_0^t e^{rL}u dr.

    The first-power identity behind the domain-mapping property: integrating
    the kernel derivative (with the Bessel coefficient 1-2s) against the
    semigroup antiderivative reproduces -L U(y).
    """
    s, y = 0.7, 0.8
    u = np.array([1.0, -0.5], dtype=complex)
    lam = diag_gen.eigenvalues
    coords = diag_gen.eigvecs_inv @ u

    def kernel_bessel(t):
        # ((1-2s)/y d/dy + d2/dy2)(y^{2s} e^{-y^2/(4t)}), differentiated by hand
        first = 2 * s * y ** (2 * s - 1) - y ** (2 * s + 1) / (2 * t)
        second = (
            2 * s * (2 * s - 1) * y ** (2 * s - 2)
            - (4 * s + 1) * y ** (2 * s) / (2 * t)
            + y ** (2 * s + 2) / (4 * t**2)
        )
        return ((1.0 - 2.0 * s) / y * first + second) * np.exp(-y * y / (4.0 * t))

    def integrand_v(x):
        # against the antiderivative v(t) = int_0^t e^{rL}u dr: recovers U(y)
        t = np.exp(x)
        v_coords = (np.exp(np.multiply.outer(t, lam)) - 1.0) / lam * coords
        v_states = v_coords @ diag_gen.eigvecs.T
        weight = kernel_bessel(t) * t ** (-s)  # dt/t^{1+s} on the log axis
        return weight[:, None] * v_states

    def integrand_semigroup(x):
        # against e^{tL}u itself: recovers L U(y)
        t = np.exp(x)
        states = np.exp(np.multiply.outer(t, lam)) * coords @ diag_gen.eigvecs.T
        weight = kernel_bessel(t) * t ** (-s)
        return weight[:, None] * states

    from fracext.quadrature import trapezoid_refine

    c = y * y / 4.0
    lo, hi = np.log(c / 55.0) - 1.0, 60.0 / (1.0 + s)
    profile_val = extend_subordination(diag_gen, s, u, y)
    via_v = -trapezoid_refine(integrand_v, lo, hi, 1e-12) / (4.0**s * gamma(s))
    assert relerr(via_v, profile_val) <= 1e-8
    via_semigroup = -trapezoid_refine(integrand_semigroup, lo, hi, 1e-12) / (
        4.0**s * gamma(s)
    )
    assert relerr(via_semigroup, diag_gen.apply(profile_val)) <= 1e-8


def test_quadrature_results_bitwise_deterministic(rand8, rand8_u):
    from fracext import balakrishnan_general, trace_neumann

    first = balakrishnan_general(rand8, 0.3, rand8_u)
    second = balakrishnan_general(rand8, 0.3, rand8_u)
    assert np.array_equal(first, second)
    a = extend_subordination(rand8, 1.5, rand8_u, 0.7)
    b = extend_subordination(rand8, 1.5, rand8_u, 0.7)
    assert np.array_equal(a, b)


def test_chains_real_eigvecs_match_complex_product():
    """``_eval_chains`` maps back with the real ``V`` of a real symmetric ``L``; forcing the complex product agrees."""
    u = np.random.default_rng(9).standard_normal(64) + 0j
    ys = np.array([0.01, 0.3, 2.0])
    real_v = builtin_matrix("laplacian1d:64")
    complex_v = builtin_matrix("laplacian1d:64")
    complex_v._v = complex_v.eigvecs  # a complex V takes the complex product
    assert real_v._v.dtype == np.float64
    got = y_derivatives_upto(real_v, 2.7, u, 4, ys)
    assert relerr(got, y_derivatives_upto(complex_v, 2.7, u, 4, ys)) <= 1e-14


def test_y_marching_oracle_reproduces_profile(diag_gen):
    """March the second-order ODE in y from exact data and compare profiles.

    A finite-difference-style oracle: the profile must solve
    ``U'' = -L U - ((1-2s)/y) U'`` when advanced from its own initial data.
    """
    from scipy.integrate import solve_ivp

    s = 0.7
    u = np.array([1.0, -0.5], dtype=complex)
    y0, y1 = 0.4, 1.6
    start = y_derivatives_upto(diag_gen, s, u, 1, y0)

    def rhs(y, state):
        val, slope = state[:2], state[2:]
        return np.concatenate(
            [slope, -diag_gen.apply(val) - ((1.0 - 2.0 * s) / y) * slope]
        )

    probe = np.linspace(y0, y1, 7)
    sol = solve_ivp(
        rhs,
        (y0, y1),
        np.concatenate([start[0], start[1]]),
        t_eval=probe,
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success
    for i, y in enumerate(probe):
        marched = sol.y[:2, i]
        direct = extend_subordination(diag_gen, s, u, float(y))
        assert relerr(marched, direct) <= 1e-8


def test_radial_power_top_order_modes_agree(diag_gen):
    # m = [s]+1 is the top allowed radial power; the polynomial part is empty there
    u = np.array([1.0, 1.0], dtype=complex)
    from_u = radial_power(diag_gen, 2.5, u, 3, 0.5, mode="from_u")
    from_f = radial_power(diag_gen, 2.5, u, 3, 0.5, mode="from_f")
    assert relerr(from_u, from_f) <= 1e-7


@pytest.mark.parametrize("name", ["weighted_extension_derivative", "extension_operator_power"])
def test_package_exports_extension_route(name):
    assert name in fracext.__all__
    assert getattr(fracext, name) is getattr(fracext.extension, name)
