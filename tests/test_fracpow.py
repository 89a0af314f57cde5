import warnings
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

import fracext.fracpow
from fracext import (
    ConvergenceError,
    FracOrder,
    Generator,
    balakrishnan,
    balakrishnan_general,
    balakrishnan_second_kind,
    bbw_estimate,
    bbw_frac_power,
    c_constant,
    random_generator,
    resolvent_frac_power,
)

from fracext.cli import builtin_matrix
from fracext.fracpow import _bbw_tail, _shifted_triangular_solve
from fracext.quadrature import QuadratureSpec
from fracext.verify import _sine_modes, dirichlet_sine_power

from conftest import relerr


def bbw_constant_closed_form(s, k):
    """Analytic value of the normalization constant, the frozen test oracle.

    Expanding the integrand binomially and integrating each Taylor-regularized
    exponential against ``t^{-1-s}`` gives
    ``Gamma(-s) * sum_j C(k,j) (-1)^{k-j} j^s``.
    """
    return gamma(-s) * sum(comb(k, j) * (-1.0) ** (k - j) * j**s for j in range(1, k + 1))


class TestFracOrder:
    def test_parts(self):
        order = FracOrder(2.7)
        assert order.n == 2
        assert abs(order.sigma - 0.7) < 1e-12

    @pytest.mark.parametrize("bad", [1.0, 2.0, 3.0 - 1e-12, 5.0 + 1e-10, 0.0, -0.5])
    def test_rejects_integers_and_nonpositive(self, bad):
        with pytest.raises(ValueError):
            FracOrder(bad)

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(min_value=1e-3, max_value=9.0))
    def test_parts_consistent(self, s):
        try:
            order = FracOrder(s)
        except ValueError:
            assert abs(s - round(s)) < 1e-9
            return
        assert order.n == int(np.floor(s))
        assert 0.0 < order.sigma < 1.0
        assert abs(order.n + order.sigma - s) < 1e-12


class TestResolventFracPower:
    def test_scalar_values(self):
        gen = Generator(np.diag([-1.0]))
        one = np.ones(1, dtype=complex)
        assert abs(resolvent_frac_power(gen, 0.0, 0.5, one)[0] - 1.0) < 1e-12
        gen4 = Generator(np.diag([-4.0]))
        assert abs(resolvent_frac_power(gen4, 0.0, 0.5, one)[0] - 0.5) < 1e-12

    def test_matches_spectral_with_shift(self):
        gen = Generator(np.diag([-1.0, -4.0, -9.0]))
        u = np.array([1.0, -2.0, 0.5], dtype=complex)
        got = resolvent_frac_power(gen, 0.3, 1.7, u)
        expected = gen.spectral_apply((0.3 - gen.eigenvalues) ** -1.7, u)
        assert relerr(got, expected) <= 1e-8

    def test_inverse_law(self, rand8, rand8_u):
        for s in (0.3, 0.5, 1.5, 2.7):
            back = resolvent_frac_power(gen=rand8, eps=0.0, alpha=s,
                                        u=rand8.frac_power(s, rand8_u))
            assert relerr(back, rand8_u) <= 1e-8

    def test_rejects_bad_arguments(self, diag_gen):
        u = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            resolvent_frac_power(diag_gen, -0.1, 0.5, u)
        with pytest.raises(ValueError):
            resolvent_frac_power(diag_gen, 0.0, -0.5, u)

    @pytest.mark.parametrize("eps, alpha", [(np.nan, 2.0), (np.inf, 2.0), (0.0, np.nan), (0.0, np.inf)])
    def test_rejects_non_finite_arguments(self, diag_gen, eps, alpha):
        with pytest.raises(ValueError, match="finite"):
            resolvent_frac_power(diag_gen, eps, alpha, np.ones(2, dtype=complex))


class TestBalakrishnan:
    def test_scalar_sqrt2(self):
        gen = Generator(np.diag([-2.0]))
        got = balakrishnan(gen, 0.5, np.ones(1, dtype=complex))
        assert abs(got[0] - np.sqrt(2.0)) <= 1e-8

    def test_unit_eigenvalue_fixed_point(self):
        gen = Generator(np.diag([-1.0]))
        for s in (0.1, 0.5, 0.9):
            assert abs(balakrishnan(gen, s, np.ones(1, dtype=complex))[0] - 1.0) < 1e-10

    def test_matches_oracle(self, rand8, rand8_u):
        got = balakrishnan(rand8, 0.3, rand8_u)
        assert relerr(got, rand8.frac_power(0.3, rand8_u)) <= 1e-7

    def test_rejects_large_order(self, diag_gen):
        with pytest.raises(ValueError, match="0 < s < 1"):
            balakrishnan(diag_gen, 1.5, np.ones(2, dtype=complex))


class TestBalakrishnanGeneral:
    def test_diagonal_three_halves(self, diag_gen):
        got = balakrishnan_general(diag_gen, 1.5, np.array([1.0, 1.0], dtype=complex))
        assert np.allclose(got, [1.0, 8.0], rtol=1e-7)

    def test_scalar_two_point_five(self):
        gen = Generator(np.diag([-2.0]))
        got = balakrishnan_general(gen, 2.5, np.ones(1, dtype=complex))
        assert abs(got[0] - 2.0**2.5) <= 1e-7

    def test_matches_oracle_high_order(self, rand8, rand8_u):
        got = balakrishnan_general(rand8, 2.7, rand8_u)
        assert relerr(got, rand8.frac_power(2.7, rand8_u)) <= 1e-7


class TestSecondKind:
    def test_agrees_on_0_2(self, rand8, rand8_u):
        for s in (0.3, 0.7, 1.2, 1.9):
            got = balakrishnan_second_kind(rand8, s, rand8_u)
            assert relerr(got, rand8.frac_power(s, rand8_u)) <= 1e-7

    def test_rejects_outside(self, diag_gen):
        with pytest.raises(ValueError, match="0 < s < 2"):
            balakrishnan_second_kind(diag_gen, 2.5, np.ones(2, dtype=complex))


class TestShiftedTriangularSolve:
    @pytest.fixture
    def tri(self):
        rng = np.random.default_rng(7)
        dim = 12
        tri = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        tri[np.diag_indices(dim)] = -rng.uniform(0.5, 10.0, dim) + 1j * rng.uniform(-5.0, 5.0, dim)
        return tri

    @staticmethod
    def dense(alpha, beta, tri, rhs):
        eye = np.eye(tri.shape[0])
        mats = alpha[:, None, None] * eye + beta[:, None, None] * tri
        return np.linalg.solve(mats, rhs[..., None])[..., 0]

    def test_resolvent_form_per_node_rhs(self, tri):
        mu = np.geomspace(1e-6, 1e12, 19)
        rhs = np.random.default_rng(8).standard_normal((mu.size, tri.shape[0])) + 0.5j
        got = _shifted_triangular_solve(mu, -1.0, tri, rhs)
        expected = self.dense(mu, -np.ones_like(mu), tri, rhs)
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-12

    def test_reciprocal_form_shared_rhs(self, tri):
        v = np.geomspace(1e-300, 1.0, 23)
        rhs = np.random.default_rng(9).standard_normal(tri.shape[0]) - 2.0j
        got = _shifted_triangular_solve(1.0, -v, tri, rhs)
        expected = self.dense(np.ones_like(v), -v, tri, np.broadcast_to(rhs, got.shape))
        assert got.shape == (v.size, tri.shape[0])
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-12
        assert relerr(got[0], rhs) <= 1e-15


class TestDiagonalTriangularSolve:
    """A diagonal ``T`` (the Schur factor of a Hermitian ``L``) is solved without a sweep."""

    @pytest.fixture(params=["real", "complex"])
    def tri(self, request):
        rng = np.random.default_rng(10)
        eig = -rng.uniform(0.5, 4e6, 16) + 0j
        if request.param == "complex":
            eig += 1j * rng.uniform(-5.0, 5.0, 16)
        return np.diag(eig)

    def test_resolvent_form_per_node_rhs(self, tri):
        mu = np.geomspace(1e-6, 1e12, 19)
        rhs = np.random.default_rng(8).standard_normal((mu.size, tri.shape[0])) + 0.5j
        got = _shifted_triangular_solve(mu, -1.0, tri, rhs)
        expected = TestShiftedTriangularSolve.dense(mu, -np.ones_like(mu), tri, rhs)
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-15

    def test_reciprocal_form_shared_rhs(self, tri):
        v = np.geomspace(1e-300, 1.0, 23)
        rhs = np.random.default_rng(9).standard_normal(tri.shape[0]) - 2.0j
        got = _shifted_triangular_solve(1.0, -v, tri, rhs)
        expected = TestShiftedTriangularSolve.dense(np.ones_like(v), -v, tri,
                                                    np.broadcast_to(rhs, got.shape))
        assert got.shape == (v.size, tri.shape[0]) and got.dtype == complex
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-15
        assert np.array_equal(got[0], rhs)


def nonnormal_factors():
    """``V`` and ``lam`` of the 48 x 48 non-normal complex generator ``V diag(lam) V^{-1}``."""
    rng = np.random.default_rng(12)
    dim = 48
    lam = -np.linspace(0.5, 10.0, dim) + 1j * rng.permutation(np.linspace(-10.0, 10.0, dim))
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vecs = np.eye(dim) + 0.25 * noise / np.sqrt(2.0)
    return vecs, lam


class TestBalakrishnanStiffAndIndependent:
    """Balakrishnan routes on a stiff Laplacian, a non-normal complex matrix,
    and a generator whose eigensystem has been removed."""

    @pytest.fixture(scope="class")
    def lap128(self):
        return builtin_matrix("laplacian1d:128")

    @pytest.fixture(scope="class")
    def nonnormal(self):
        vecs, lam = nonnormal_factors()
        return Generator((vecs * lam) @ np.linalg.inv(vecs))

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_general_on_stiff_laplacian(self, lap128, s):
        u = np.random.default_rng(20).standard_normal(128) + 0j
        got = balakrishnan_general(lap128, s, u)
        assert relerr(got, dirichlet_sine_power(128, s, u)) <= 1e-7

    @pytest.mark.parametrize("s", [0.3, 1.5])
    def test_second_kind_on_stiff_laplacian(self, lap128, s):
        u = np.random.default_rng(21).standard_normal(128) + 0j
        got = balakrishnan_second_kind(lap128, s, u)
        assert relerr(got, dirichlet_sine_power(128, s, u)) <= 1e-7

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_general_on_nonnormal_complex(self, nonnormal, s):
        u = np.random.default_rng(22).standard_normal(48) + 1j
        got = balakrishnan_general(nonnormal, s, u)
        assert relerr(got, nonnormal.frac_power(s, u)) <= 1e-7

    @pytest.mark.parametrize("s", [0.3, 1.5])
    def test_second_kind_on_nonnormal_complex(self, nonnormal, s):
        u = np.random.default_rng(23).standard_normal(48) + 1j
        got = balakrishnan_second_kind(nonnormal, s, u)
        assert relerr(got, nonnormal.frac_power(s, u)) <= 1e-7

    def test_routes_ignore_the_eigensystem(self):
        gen = random_generator(16, 5)
        u = np.random.default_rng(24).standard_normal(16) + 0j
        oracles = {s: gen.frac_power(s, u) for s in (0.3, 1.5)}
        gen.eigvecs = gen.eigvecs_inv = gen._v = gen._vinv = None
        assert relerr(balakrishnan(gen, 0.3, u), oracles[0.3]) <= 1e-7
        assert relerr(balakrishnan_general(gen, 1.5, u), oracles[1.5]) <= 1e-7
        assert relerr(balakrishnan_second_kind(gen, 1.5, u), oracles[1.5]) <= 1e-7


class TestResolventFracPowerStiffAndIndependent:
    """Inverse powers ``(eps I - L)^{-alpha}`` on a stiff Laplacian and a non-normal
    complex matrix, both with their eigensystem removed, against oracles built
    from closed-form or generating factors.  The orders include integers, tiny
    fractional parts and orders just below and above an integer."""

    ALPHAS = [1e-6, 0.3, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0 + 1e-6, 2.7, 5.5]

    @pytest.fixture(scope="class")
    def lap128(self):
        gen = builtin_matrix("laplacian1d:128")
        gen.eigvecs = gen.eigvecs_inv = gen._v = gen._vinv = None
        return gen

    @pytest.fixture(scope="class")
    def nonnormal(self):
        vecs, lam = nonnormal_factors()
        gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
        gen.eigvecs = gen.eigvecs_inv = gen._v = gen._vinv = None
        return gen, vecs, lam

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_stiff_laplacian(self, lap128, alpha, eps):
        u = np.random.default_rng(25).standard_normal(128) + 0j
        basis, mu = _sine_modes(128)
        expected = basis @ ((eps + mu) ** -alpha * (basis @ u))
        if eps == 0.0:
            assert relerr(expected, dirichlet_sine_power(128, -alpha, u)) <= 1e-14
        assert relerr(resolvent_frac_power(lap128, eps, alpha, u), expected) <= 1e-10

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonnormal_complex(self, nonnormal, alpha, eps):
        gen, vecs, lam = nonnormal
        u = np.random.default_rng(26).standard_normal(48) + 1j
        expected = vecs @ ((eps - lam) ** -alpha * np.linalg.solve(vecs, u))
        assert relerr(resolvent_frac_power(gen, eps, alpha, u), expected) <= 1e-10


class TestCConstant:
    def test_known_value(self):
        assert abs(c_constant(0.5, 1) + 2.0 * np.sqrt(np.pi)) <= 1e-8

    def test_closed_form_oracle(self):
        for s, k in ((0.3, 1), (0.3, 2), (0.5, 2), (1.5, 2), (1.5, 3), (2.7, 3), (2.7, 4)):
            frozen = bbw_constant_closed_form(s, k)
            assert abs(c_constant(s, k) - frozen) <= 1e-8 * max(1.0, abs(frozen))

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(min_value=0.05, max_value=2.95),
        extra=st.integers(min_value=1, max_value=2),
    )
    def test_sign_alternates(self, s, extra):
        try:
            order = FracOrder(s)
        except ValueError:
            return
        k = order.n + extra
        assert (-1.0) ** k * c_constant(order, k) > 0.0

    @pytest.mark.parametrize(
        "s", [0.05, 0.3, 0.5, 1 - 1e-6, 1 + 1e-6, 1.5, 2 - 1e-6, 2 + 1e-6, 2.7, 3 - 1e-6, 4.5]
    )
    def test_closed_form_matches_mpmath(self, s, monkeypatch):
        """Near integers too, where the plain sum cancels against the pole of ``Gamma(-s)``.

        The constant runs no quadrature: a quadrature window for ``c(1 + 1e-6, 2)``
        would need about 2e8 nodes, so the drivers are made to refuse first.
        """

        def refuse(*args, **kwargs):
            raise AssertionError("c_constant ran a quadrature")

        monkeypatch.setattr(fracext.fracpow, "integrate_unit", refuse)
        monkeypatch.setattr(fracext.fracpow, "trapezoid_refine", refuse)
        with mpmath.workdps(60):
            s_mp = mpmath.mpf(s)
            for k in (int(s) + 1, int(s) + 2):
                ref = mpmath.gamma(-s_mp) * mpmath.fsum(
                    mpmath.binomial(k, j) * (-1) ** (k - j) * mpmath.mpf(j) ** s_mp
                    for j in range(1, k + 1)
                )
                assert abs(c_constant(s, k) - ref) <= 1e-12 * abs(ref), (s, k)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="k > s"):
            c_constant(1.5, 1)
        with pytest.raises(ValueError):
            c_constant(0.5, 0)


class TestBBW:
    def test_scalar_unit(self):
        gen = Generator(np.diag([-1.0]))
        got = bbw_frac_power(gen, 0.5, 1, np.ones(1, dtype=complex))
        assert abs(got[0] - 1.0) <= 1e-4

    def test_zero_input(self, diag_gen):
        got = bbw_frac_power(diag_gen, 0.5, 1, np.zeros(2, dtype=complex))
        assert np.all(got == 0)

    def test_diagonal_three_halves(self, diag_gen):
        got = bbw_frac_power(diag_gen, 1.5, 2, np.array([1.0, 1.0], dtype=complex))
        assert relerr(got, np.array([1.0, 8.0])) <= 1e-4

    def test_non_cauchy_detection(self, diag_gen, monkeypatch):
        monkeypatch.setattr(fracext.fracpow, "_BBW_CONV_TOL", 1e-16)
        with pytest.raises(ConvergenceError, match="Cauchy"):
            bbw_frac_power(diag_gen, 0.5, 1, np.array([1.0, 1.0], dtype=complex))

    def test_rejects_small_k(self, diag_gen):
        with pytest.raises(ValueError, match="k > s"):
            bbw_frac_power(diag_gen, 1.5, 1, np.ones(2, dtype=complex))

    def test_default_eps0_scales_with_norm(self, diag_gen):
        lap = builtin_matrix("laplacian1d:128")
        head = bbw_estimate(lap, 0.5, 1, np.ones(128, dtype=complex)).y_sequence[0]
        assert head == 1.0 / lap.norm2
        assert bbw_estimate(diag_gen, 0.5, 1, np.ones(2, dtype=complex)).y_sequence[0] == 0.1

    @pytest.mark.parametrize("s", [1.07, 2.1, 3.2])
    def test_orders_just_above_an_integer(self, diag_gen, s):
        """The constant is exact here, where its old quadrature stalled on an overflowing window."""
        u = np.ones(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bbw_frac_power(diag_gen, s, int(s) + 1, u)
        assert relerr(got, diag_gen.frac_power(s, u)) <= 1e-4

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_stiff_laplacian(self, s):
        lap = builtin_matrix("laplacian1d:128")
        u = np.random.default_rng(22).standard_normal(128) + 0j
        got = bbw_frac_power(lap, s, int(s) + 1, u)
        assert relerr(got, dirichlet_sine_power(128, s, u)) <= 1e-4


# Oscillatory modes: at -0.5+9.9j, e^{t lam} advances 19.8 radians of phase per decay length.
OSCILLATORY = np.diag([-0.5 + 9.9j, -0.5 - 9.9j, -2.0, -5.0 + 3.0j])


def bbw_tail_oracle(lam, s, k):
    """``int_1^inf t^{-1-s} (e^{t lam} - 1)^k dt`` from ``int_1^inf t^{-1-s} e^{zt} dt = (-z)^s Gamma(-s, -z)``."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        total = (-1) ** k / s
        for j in range(1, k + 1):
            z = j * mpmath.mpc(lam)
            total += comb(k, j) * (-1) ** (k - j) * (-z) ** s * mpmath.gammainc(-s, -z)
        return complex(total)


class TestBBWTail:
    LAMS = [-9.96 + 9.8j, -0.5 + 9.9j, -5.0 - 3.0j, -0.54, -4e6, -1e-3, -1e-3 + 1e-2j]

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.5, 2.7, 3.999])
    def test_matches_incomplete_gamma(self, s):
        k = int(s) + 1
        got = _bbw_tail(np.array(self.LAMS), s, k, QuadratureSpec())
        for lam, value in zip(self.LAMS, got):
            ref = bbw_tail_oracle(lam, s, k)
            assert abs(value - ref) <= 1e-13 * abs(ref), (lam, value, ref)

    def test_real_spectrum_stays_real(self):
        got = _bbw_tail(np.array([-0.54, -1e-3, -4e6]), 1.5, 2, QuadratureSpec())
        assert got.dtype == np.float64

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.5])
    def test_oscillatory_spectrum(self, s):
        """The tanh-sinh tail this rule replaced stalled on these modes."""
        gen = Generator(OSCILLATORY)
        u = np.array([1.0, 0.5, -0.3, 0.2 + 0.1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bbw_frac_power(gen, s, int(s) + 1, u)
        assert relerr(got, gen.frac_power(s, u)) <= 1e-4

    # Errors of the tanh-sinh tail this rule replaced, on the same inputs.
    @pytest.mark.parametrize("scale, previous", [(1e-6, 3.47e-15), (1e-4, 1.79e-11), (1.0, 2.42e-8)])
    def test_scaled_laplacian_small_modes(self, scale, previous):
        """Modes with ``k |lam| < 1`` take the scaled series, where the binomial terms would cancel."""
        gen = Generator(scale * builtin_matrix("laplacian1d:32").matrix)
        u = np.random.default_rng(7).standard_normal(32) + 0j
        got = bbw_frac_power(gen, 2.7, 3, u)
        assert relerr(got, gen.frac_power(2.7, u)) <= max(10.0 * previous, 1e-12)


def test_method_agreement_sweep():
    """All classical constructions agree with the exact value on random matrices."""
    for seed in (0, 1, 2):
        gen = random_generator(8, seed)
        u = np.random.default_rng(100 + seed).standard_normal(8) + 0j
        for s in (0.3, 0.5, 1.5, 2.7):
            order = FracOrder(s)
            oracle = gen.frac_power(s, u)
            assert relerr(balakrishnan_general(gen, order, u), oracle) <= 1e-7
            assert relerr(bbw_frac_power(gen, order, order.n + 1, u), oracle) <= 1e-4
