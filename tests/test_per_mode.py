"""Oracles for the per-mode extension layer that share nothing with the eigendecomposition.

Per mode the extension profile has the Bessel-K closed form
``U = (2/Gamma(s)) (z/2)^s K_s(z)`` with ``z = sqrt(-lam) y``, and
``dU/dy = -(2/Gamma(s)) 2^{-s} z^s K_{s-1}(z) sqrt(-lam)``; radial powers
``(2/y d/dy)^m U`` follow from DLMF 10.29.4, and the extension-operator powers
are combinations of them.  The stiff cases take their modes from the
closed-form sine basis of ``laplacian1d:n``; the non-normal case from the
factors its matrix was built from.
"""

import warnings
from math import factorial

import mpmath
import numpy as np
import pytest
from scipy.special import gamma, kv

from fracext import (
    FracOrder,
    Generator,
    build_profile,
    extend_explicit,
    extend_subordination,
    initial_condition_suite,
    radial_power,
    trace_incremental,
    trace_constants,
    trace_neumann,
    y_derivatives_upto,
)
from fracext import extension
from fracext.cli import builtin_matrix
from fracext.extension import (
    exp_tail,
    extension_operator_power,
    weighted_extension_derivative,
)
from fracext.verify import _sine_modes, dirichlet_sine_power

from conftest import relerr

S_VALUES = (0.3, 1.5, 2.7)
Y_VALUES = (0.005, 0.05, 0.5)


def bessel_k_modes(s, lam, y):
    """Per-mode ``U(y)`` and ``dU/dy`` from the Bessel-K closed forms."""
    root = np.sqrt(-np.asarray(lam, dtype=complex))
    z = root * y
    value = 2.0 / gamma(s) * (z / 2.0) ** s * kv(s, z)
    deriv = -2.0 / gamma(s) * 2.0**-s * z**s * kv(s - 1.0, z) * root
    return value, deriv


@pytest.fixture(scope="module")
def lap256():
    basis, mu = _sine_modes(256)
    gen = builtin_matrix("laplacian1d:256")
    rng = np.random.default_rng(17)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return gen, basis, -mu, u


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


def plain_modes(s, m, lam, y):
    """Per-mode ``d^m U/dy^m = 2^{1-s}/Gamma(s) sqrt(a)^m d^m/dz^m [z^s K_s(z)]``, ``a = -lam``.

    ``z = sqrt(a) y``.  With ``G_nu = z^nu K_nu``, ``d/dz G_nu = -z G_{nu-1}``
    (DLMF 10.29.4), so a term ``(p, nu) -> c``, standing for ``c z^p G_nu``,
    differentiates to ``(p - 1, nu) -> p c`` and ``(p + 1, nu - 1) -> -c``.
    """
    root = np.sqrt(-np.asarray(lam, dtype=complex))
    z = root * y
    terms = {(0, s): 1.0}
    for _ in range(m):
        new = {}
        for (p, nu), c in terms.items():
            if p:
                new[(p - 1, nu)] = new.get((p - 1, nu), 0.0) + p * c
            new[(p + 1, nu - 1)] = new.get((p + 1, nu - 1), 0.0) - c
        terms = new
    total = sum(c * z ** (p + nu) * kv(nu, z) for (p, nu), c in terms.items())
    return 2.0 ** (1.0 - s) / gamma(s) * root**m * total


@pytest.mark.parametrize("s", (1.5, 2.7))
@pytest.mark.parametrize("y", (0.05, 0.3))
def test_higher_plain_derivatives_match_bessel_k_on_nonnormal_complex_spectrum(nonnormal32, s, y):
    """Every order up to ``2([s]+1)``, which ``build_profile`` writes by default."""
    gen, vecs, lam, u = nonnormal32
    coords = np.linalg.solve(vecs, u)
    mmax = 2 * (int(s) + 1)
    derivs = y_derivatives_upto(gen, s, u, mmax, y)
    for m in range(mmax + 1):
        ref = vecs @ (plain_modes(s, m, lam, y) * coords)
        assert relerr(derivs[m], ref) <= 1e-10, m


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", (0.005, 0.05))
def test_radial_power_representations_agree_on_stiff_laplacian(lap256, s, y):
    gen, _, _, u = lap256
    for m in range(int(s) + 2):
        from_u = radial_power(gen, s, u, m, y, mode="from_u")
        from_f = radial_power(gen, s, u, m, y, mode="from_f")
        assert relerr(from_u, from_f) <= 1e-8, m


WIDE_Y = (1e-6, 1e-3, 0.1, 1.0, 5.0)


@pytest.fixture(scope="module", params=(64, 256), ids=lambda n: f"laplacian1d:{n}")
def lap(request):
    n = request.param
    basis, mu = _sine_modes(n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return builtin_matrix(f"laplacian1d:{n}"), basis, -mu, u


def radial_modes(s, m, lam, y):
    """Per-mode ``R^m U = (-2a)^m 2^{1-s}/Gamma(s) z^{s-m} K_{s-m}(z)``, ``R = 2/y d/dy``.

    ``a = -lam`` and ``z = sqrt(a) y`` (DLMF 10.29.4).
    """
    a = -np.asarray(lam)
    z = np.sqrt(a) * y
    return (-2.0 * a) ** m * 2.0 ** (1.0 - s) / gamma(s) * z ** (s - m) * kv(s - m, z)


def operator_modes(s, m, lam, y, weighted=False):
    """Per-mode ``(lam + B)^m U`` with ``B = ((a+1)/2) R + (y^2/4) R^2``, ``a = 1 - 2 sigma``.

    A term ``(p, k) -> c`` stands for ``c y^{2p} R^k U``, and
    ``R(y^{2p} g) = 4p y^{2p-2} g + y^{2p} R g``.  ``weighted`` applies
    ``y^{1-2 sigma} d/dy = y^{1-2 sigma} (y/2) R`` last.
    """
    a = 1.0 - 2.0 * (s - int(s))

    def add(terms, key, c):
        terms[key] = terms.get(key, 0.0) + c

    def apply_r(terms):
        out = {}
        for (p, k), c in terms.items():
            if p:
                add(out, (p - 1, k), 4.0 * p * c)
            add(out, (p, k + 1), c)
        return out

    terms = {(0, 0): np.ones_like(lam)}
    for _ in range(m):
        once = apply_r(terms)
        new = {key: lam * c for key, c in terms.items()}
        for (p, k), c in once.items():
            add(new, (p, k), 0.5 * (a + 1.0) * c)
        for (p, k), c in apply_r(once).items():
            add(new, (p + 1, k), 0.25 * c)
        terms = new
    scale = 1.0
    if weighted:
        terms = apply_r(terms)
        scale = y**a * y / 2.0
    return scale * sum(
        c * y ** (2 * p) * radial_modes(s, k, lam, y) for (p, k), c in terms.items()
    )


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", WIDE_Y)
def test_radial_family_matches_bessel_k(lap, s, y):
    gen, basis, lam, u = lap
    coords = basis @ u
    weight = y ** (1.0 - 2.0 * (s - int(s))) * y / 2.0
    for m in range(int(s) + 2):
        ref = basis @ (radial_modes(s, m, lam, y) * coords)
        assert relerr(radial_power(gen, s, u, m, y), ref) <= 1e-10, m
    for m in range(int(s) + 1):
        ref = basis @ (weight * radial_modes(s, m + 1, lam, y) * coords)
        assert relerr(weighted_extension_derivative(gen, s, u, m, y), ref) <= 1e-10, m


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", WIDE_Y)
def test_operator_family_matches_bessel_k(lap, s, y):
    gen, basis, lam, u = lap
    coords = basis @ u
    for m in range(int(s) + 1):
        ref = basis @ (operator_modes(s, m, lam, y) * coords)
        assert relerr(extension_operator_power(gen, s, u, m, y), ref) <= 1e-9, m
        ref = basis @ (operator_modes(s, m, lam, y, weighted=True) * coords)
        got = weighted_extension_derivative(gen, s, u, m, y, form="operator")
        assert relerr(got, ref) <= 1e-9, m


@pytest.mark.parametrize("s", S_VALUES)
def test_batched_y_matches_bessel_k_row_by_row(lap, s):
    """One call on the whole ``WIDE_Y`` grid: every row meets the per-mode closed forms."""
    gen, basis, lam, u = lap
    coords = basis @ u
    ys = np.array(WIDE_Y)
    values = extend_subordination(gen, s, u, ys)
    derivs = y_derivatives_upto(gen, s, u, 1, ys)
    radial = [radial_power(gen, s, u, m, ys) for m in range(int(s) + 2)]
    operator = [extension_operator_power(gen, s, u, m, ys) for m in range(int(s) + 1)]
    weighted = [weighted_extension_derivative(gen, s, u, m, ys, form="operator")
                for m in range(int(s) + 1)]
    for i, y in enumerate(ys):
        value, deriv = bessel_k_modes(s, lam, y)
        ref = basis @ (value * coords)
        assert relerr(values[i], ref) <= 1e-10, y
        assert relerr(derivs[i, 0], ref) <= 1e-10, y
        assert relerr(derivs[i, 1], basis @ (deriv * coords)) <= 1e-10, y
        for m, rows in enumerate(radial):
            assert relerr(rows[i], basis @ (radial_modes(s, m, lam, y) * coords)) <= 1e-10, (y, m)
        for m, (op_rows, w_rows) in enumerate(zip(operator, weighted)):
            ref = basis @ (operator_modes(s, m, lam, y) * coords)
            assert relerr(op_rows[i], ref) <= 1e-9, (y, m)
            ref = basis @ (operator_modes(s, m, lam, y, weighted=True) * coords)
            assert relerr(w_rows[i], ref) <= 1e-9, (y, m)


@pytest.mark.parametrize("s", S_VALUES)
def test_batched_y_rows_match_scalar_calls(nonnormal32, s):
    """An array ``y`` shares one table, yet each row equals its own scalar call."""
    gen, _, _, u = nonnormal32
    n = int(s)
    ys = np.array([1e-6, 1e-3, 0.05, 0.3, 1.0, 5.0])
    routes = {
        "value": lambda y: extend_subordination(gen, s, u, y),
        "radial": lambda y: radial_power(gen, s, u, n + 1, y),
        "weighted": lambda y: weighted_extension_derivative(gen, s, u, n, y),
        # the operator forms and from_f subtract terms far larger than their
        # result at large y, where rounding alone moves them by more than 1e-12
        "operator": lambda y: extension_operator_power(gen, s, u, n, y),
        "from_f": lambda y: radial_power(gen, s, u, n, y, mode="from_f"),
    }
    for name, route in routes.items():
        grid = ys[:3] if name in ("operator", "from_f") else ys
        rows = route(grid)
        assert rows.shape == (grid.size, u.size), name
        for y, row in zip(grid, rows):
            assert relerr(row, route(float(y))) <= 1e-12, (name, y)
    # orders above 2 subtract chain terms far larger than their result at y = 1e-6
    # when 2s is an integer, and at y = 5
    derivs = y_derivatives_upto(gen, s, u, 2, ys)
    for y, block in zip(ys, derivs):
        single = y_derivatives_upto(gen, s, u, 2, float(y))
        for m in range(3):
            assert relerr(block[m], single[m]) <= 1e-12, ("derivs", y, m)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("y", (1e-60, 1e-100))
def test_chain_families_at_tiny_y(s, y):
    """At ``y -> 0`` the chain routes reach the initial-condition limits without overflow.

    ``(2/y d/dy)^m U -> Gamma(s-m)/Gamma(s) L^m u`` and the extension-operator
    power tends to ``[s]!/([s]-m)!`` times that, for ``m <= [s]``; at
    ``m = [s] + 1`` both grow like ``y^{2(s-m)}`` and must stay finite.  The
    weighted derivatives vanish below ``m = [s]`` and tend to ``c_s (-L)^s u``
    (radial form) and ``[s]! c_s (-L)^s u`` (operator form) at ``m = [s]``.
    """
    n = int(s)
    gen = builtin_matrix("laplacian1d:64")
    basis, mu = _sine_modes(64)
    lam = -mu
    u = np.random.default_rng(3).standard_normal(64) + 0j
    coords = basis @ u
    neumann = trace_constants(FracOrder(s)).c_s * dirichlet_sine_power(64, s, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(n + 1):
            limit = gamma(s - m) / gamma(s) * (basis @ (lam**m * coords))
            assert relerr(radial_power(gen, s, u, m, y), limit) <= 1e-12, m
            factor = factorial(n) / factorial(n - m)
            assert relerr(extension_operator_power(gen, s, u, m, y), factor * limit) <= 1e-12, m
        assert np.isfinite(radial_power(gen, s, u, n + 1, y)).all()
        assert np.isfinite(extension_operator_power(gen, s, u, n + 1, y)).all()
        for m in range(n):
            for form in ("radial", "operator"):
                got = weighted_extension_derivative(gen, s, u, m, y, form=form)
                assert np.linalg.norm(got) <= 1e-12 * np.linalg.norm(u), (m, form)
        got = weighted_extension_derivative(gen, s, u, n, y)
        assert relerr(got, neumann) <= 1e-12
        got = weighted_extension_derivative(gen, s, u, n, y, form="operator")
        assert relerr(got, factorial(n) * neumann) <= 1e-12


@pytest.mark.parametrize("y", (1e-110, 1e-150))
def test_radial_power_beyond_squared_norm_range(y):
    """Chain values near ``1e210``, whose squares overflow, pass the refinement driver."""
    gen = builtin_matrix("laplacian1d:64")
    basis, mu = _sine_modes(64)
    lam = -mu
    u = np.random.default_rng(3).standard_normal(64) + 0j
    ref = basis @ (radial_modes(0.3, 1, lam, y) * (basis @ u))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = radial_power(gen, 0.3, u, 1, y)
    scale = np.abs(ref).max()
    assert relerr(got / scale, ref / scale) <= 1e-12


@pytest.mark.parametrize("s", S_VALUES)
def test_radial_power_where_y_squared_underflows(s):
    """At ``y = 1e-170`` the ``m = [s] + 1`` window has no left edge and is refused by name."""
    n = int(s)
    gen = builtin_matrix("laplacian1d:64")
    u = np.random.default_rng(3).standard_normal(64) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for m in range(n + 1):
            assert np.isfinite(radial_power(gen, s, u, m, 1e-170)).all(), m
        with pytest.raises(ValueError, match="semigroup-chain integrals: trapezoid window"):
            radial_power(gen, s, u, n + 1, 1e-170)


@pytest.mark.parametrize("s", S_VALUES)
def test_first_derivative_at_small_y(lap, s):
    """``dU/dy = (y/2) I_1`` stays accurate where a kernel-moment combination would cancel."""
    gen, basis, lam, u = lap
    coords = basis @ u
    for y in (1e-3, 1e-6):
        _, deriv = bessel_k_modes(s, lam, y)
        assert relerr(y_derivatives_upto(gen, s, u, 1, y)[1], basis @ (deriv * coords)) <= 1e-10, y


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


def test_settled_modes_leave_values_unchanged(monkeypatch):
    """Modes that leave the table change no value beyond the refinement target.

    The spectrum is a lattice with ``|arg(-lam)|`` up to 88 degrees, whose
    slow modes need the finest levels; the reference keeps every mode in
    the table, and both sides must agree within the default ``tol = 1e-12``.
    Settling every mode after two levels (``_MODE_SETTLED = 1e4``) misses
    that by 5e-12.
    """
    rng = np.random.default_rng(7)
    m = 32
    cells = (np.arange(m) + 0.5) / m
    lam = (-10.0 + 9.5 * cells) + 1j * (-20.0 + 40.0 * cells)[(5 * np.arange(m)) % m]
    vecs = np.eye(m) + 0.25 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    ygrid = np.geomspace(0.05, 2.0, 6)
    settled = []
    keep_rule = extension._settled

    def recording(*args):
        out = keep_rule(*args)
        settled.append(int(out.sum()))
        return out

    monkeypatch.setattr(extension, "_settled", recording)
    got = y_derivatives_upto(gen, 1.5, u, 4, ygrid)
    assert max(settled) > 0
    monkeypatch.setattr(extension, "_settled", lambda change, *_: np.zeros(m, dtype=bool))
    full = y_derivatives_upto(gen, 1.5, u, 4, ygrid)
    for row, ref in zip(got.reshape(-1, m), full.reshape(-1, m)):
        assert relerr(row, ref) <= 1e-12


def test_extension_never_applies_dense_semigroup(lap256, monkeypatch):
    """Every integrand works on eigencoordinates; none calls ``semigroup_batch``."""
    gen, _, _, u = lap256

    def forbidden(*args, **kwargs):
        raise AssertionError("semigroup_batch called")

    monkeypatch.setattr(Generator, "semigroup_batch", forbidden)
    build_profile(gen, 1.5, u, [0.05, 0.1])
    radial_power(gen, 1.5, u, 1, 0.05, mode="from_f")
    weighted_extension_derivative(gen, 2.7, u, 2, 0.01, form="operator")
    extend_explicit(gen, 0.3, u, 0.05)


def test_exp_tail_against_high_precision():
    """Both sides of the series switch at ``r = 1``, including just above it."""
    r = np.array([1e-8, 1e-3, 0.3, 0.55, 0.8, 1.0, 1.02, 1.5, 3.0, 10.0, 40.0])
    for n in range(-1, 6):
        with mpmath.workdps(120):
            exact = np.array([
                float(mpmath.exp(-mpmath.mpf(x))
                      - sum((-mpmath.mpf(x)) ** k / mpmath.factorial(k) for k in range(n + 1)))
                for x in r
            ])
        err = np.abs(exp_tail(n, r) - exact) / np.abs(exact)
        assert err.max() <= 1e-13, (n, r[err.argmax()], err.max())


@pytest.mark.parametrize("n, s", ((512, 0.3), (128, 1.5)))
def test_trace_incremental_default_schedule_on_stiff_laplacian(n, s):
    gen = builtin_matrix(f"laplacian1d:{n}")
    u = np.random.default_rng(7).standard_normal(n) + 0j
    estimate = trace_incremental(gen, s, u)
    assert estimate.converged
    assert relerr(estimate.value, dirichlet_sine_power(n, s, u)) <= 1e-3


@pytest.mark.parametrize("s", (1.5, 2.7))
def test_initial_condition_suite_default_schedule_on_stiff_laplacian(s):
    gen = builtin_matrix("laplacian1d:128")
    u = np.random.default_rng(7).standard_normal(128) + 0j
    report = initial_condition_suite(gen, s, u)
    assert report.all_passed, [(line.m, line.kind, line.error) for line in report.lines]


@pytest.mark.parametrize("s", S_VALUES)
def test_initial_condition_suite_runs_on_one_table(monkeypatch, s):
    """Every line of the suite is one output of a single subordination call."""
    gen = builtin_matrix("laplacian1d:128")
    u = np.random.default_rng(7).standard_normal(128) + 0j
    calls = []
    real = extension._subordinate

    def spy(*args, **kwargs):
        calls.append(args[2].shape)  # (len(ysched), outputs, integrals, dim)
        return real(*args, **kwargs)

    monkeypatch.setattr(extension, "_subordinate", spy)
    report = initial_condition_suite(gen, s, u)
    n = int(s)
    assert len(report.lines) == 3 * n + 3
    assert len(calls) == 1 and calls[0][1] == 3 * n + 3
    assert report.all_passed


@pytest.mark.parametrize("s", S_VALUES)
def test_initial_condition_suite_does_not_depend_on_the_size_of_u(s):
    """Each line's error is relative to its own scale, the vanishing lines too."""
    gen = builtin_matrix("laplacian1d:128")
    u = np.random.default_rng(7).standard_normal(128) + 0j
    u /= np.linalg.norm(u)
    unit = initial_condition_suite(gen, s, u)
    large = initial_condition_suite(gen, s, 1e3 * u)
    for a, b in zip(unit.lines, large.lines):
        assert (a.m, a.kind, a.passed) == (b.m, b.kind, b.passed)
        assert b.error == pytest.approx(a.error, rel=0.5, abs=1e-14), (a.m, a.kind)


def test_initial_condition_suite_passes_on_laplacian_1024():
    gen = builtin_matrix("laplacian1d:1024")
    u = np.random.default_rng(7).standard_normal(1024) + 0j
    report = initial_condition_suite(gen, 2.7, u)
    assert report.all_passed, [(line.m, line.kind, line.error) for line in report.lines]
