import warnings
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power
from scipy.special import gamma

import fracext.fracpow
from fracext import (
    ConvergenceError,
    FracOrder,
    Generator,
    balakrishnan_general,
    balakrishnan_second_kind,
    bbw_estimate,
    bbw_frac_power,
    c_constant,
    random_generator,
    resolvent_frac_power,
)

from fracext.cli import builtin_matrix
from fracext.fracpow import (
    _bbw_ladder,
    _bbw_ray_integral,
    _shifted_triangular_solve,
    _sweep_factor,
)
from fracext.quadrature import QuadratureSpec
from fracext.verify import _sine_modes, dirichlet_sine_power

from conftest import nonnormal_factors, relerr


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
    """``balakrishnan_general`` at ``0 < s < 1``, where no integer power of ``A`` precedes the integral."""

    def test_scalar_sqrt2(self):
        gen = Generator(np.diag([-2.0]))
        got = balakrishnan_general(gen, 0.5, np.ones(1, dtype=complex))
        assert abs(got[0] - np.sqrt(2.0)) <= 1e-8

    def test_unit_eigenvalue_fixed_point(self):
        gen = Generator(np.diag([-1.0]))
        for s in (0.1, 0.5, 0.9):
            assert abs(balakrishnan_general(gen, s, np.ones(1, dtype=complex))[0] - 1.0) < 1e-10

    def test_matches_oracle(self, rand8, rand8_u):
        got = balakrishnan_general(rand8, 0.3, rand8_u)
        assert relerr(got, rand8.frac_power(0.3, rand8_u)) <= 1e-7


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
        assert _sweep_factor(tri) is tri
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
    """A diagonal ``T`` (the Schur factor of a Hermitian ``L``) is passed as its diagonal and
    solved without a sweep."""

    @staticmethod
    def factor(tri):
        factor = _sweep_factor(tri)
        assert factor.shape == tri.shape[:1]
        assert np.iscomplexobj(factor) == bool(tri.diagonal().imag.any())
        return factor

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
        got = _shifted_triangular_solve(mu, -1.0, self.factor(tri), rhs)
        expected = TestShiftedTriangularSolve.dense(mu, -np.ones_like(mu), tri, rhs)
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-15

    def test_reciprocal_form_shared_rhs(self, tri):
        v = np.geomspace(1e-300, 1.0, 23)
        rhs = np.random.default_rng(9).standard_normal(tri.shape[0]) - 2.0j
        got = _shifted_triangular_solve(1.0, -v, self.factor(tri), rhs)
        expected = TestShiftedTriangularSolve.dense(np.ones_like(v), -v, tri,
                                                    np.broadcast_to(rhs, got.shape))
        assert got.shape == (v.size, tri.shape[0]) and got.dtype == complex
        for row, ref in zip(got, expected):
            assert relerr(row, ref) <= 1e-15
        assert np.array_equal(got[0], rhs)


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
        assert relerr(balakrishnan_general(gen, 0.3, u), oracles[0.3]) <= 1e-7
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

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_integer_powers_divide_on_a_diagonal_factor(self, monkeypatch, lap128, eps):
        # the Schur factor of a Hermitian L is diagonal: [alpha] divisions per mode, no solve
        def refuse(*args, **kwargs):
            raise AssertionError("a diagonal Schur factor ran a triangular solve")

        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "solve_triangular", refuse)
        u = np.random.default_rng(25).standard_normal(128) + 0j
        basis, mu = _sine_modes(128)
        for alpha in (1.0, 2.0, 1.5, 2.7, 5.5):
            expected = basis @ ((eps + mu) ** -alpha * (basis @ u))
            assert relerr(resolvent_frac_power(lap128, eps, alpha, u), expected) <= 1e-10, alpha


def convection_diffusion(n, pe):
    """``L = D2 - pe D1`` on ``n`` interior points of ``(0, 1)``: central differences, Dirichlet.

    A non-normal contraction semigroup with a real spectrum (Trefethen & Embree,
    *Spectra and Pseudospectra*, ch. 12); ``cond(V)`` is 1.8e4 at ``n = 64, pe = 20``.
    """
    h = 1.0 / (n + 1)
    off = np.ones(n - 1)
    second = (np.diag(-2.0 * np.ones(n)) + np.diag(off, 1) + np.diag(off, -1)) / h**2
    first = (np.diag(off, 1) - np.diag(off, -1)) / (2.0 * h)
    return second - pe * first


class TestContour:
    """Real spectra run the resolvent integral on Hale, Higham & Trefethen's contour."""

    @staticmethod
    def refuse_exp_sinh(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a real spectrum ran the exp-sinh map")

        monkeypatch.setattr(fracext.fracpow, "exp_sinh", refuse)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("s", [0.3, 2.7])
    @pytest.mark.parametrize("ratio", [1e6, 1e10, 1e12, 1e14, 1e16])
    def test_wide_diagonal_spectra(self, monkeypatch, ratio, s, eps):
        # each mode's closed form; near z ~ hi the map would cancel to 1/sqrt(ratio) if formed
        # as 1/k - sn, and so raise or lose digits past ratio ~ 1e12
        self.refuse_exp_sinh(monkeypatch)
        lam = -np.geomspace(1.0, ratio, 40)
        gen = Generator(np.diag(lam))
        u = np.random.default_rng(26).standard_normal(40) + 1j
        got = resolvent_frac_power(gen, eps, s, u)
        assert relerr(got, (eps - lam) ** -s * u) <= 1e-12
        if eps == 0.0:
            assert relerr(balakrishnan_general(gen, s, u), (-lam) ** s * u) <= 1e-12

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_convection_diffusion_against_schur_pade(self, monkeypatch, s):
        self.refuse_exp_sinh(monkeypatch)
        mat = convection_diffusion(64, 20.0)
        gen = Generator(mat)
        u = np.random.default_rng(27).standard_normal(64) + 0j
        assert relerr(balakrishnan_general(gen, s, u), fractional_matrix_power(-mat, s) @ u) <= 1e-12
        got = resolvent_frac_power(gen, 0.0, s, u)
        assert relerr(got, fractional_matrix_power(-mat, -s) @ u) <= 1e-12

    @pytest.mark.parametrize("ratio", [4.0, 6.7e3, 1e16])
    def test_no_node_on_the_branch_cut(self, monkeypatch, ratio):
        # z^-sig is cut along (-inf, 0]: every node laid stays in the open right half-plane
        nodes = []

        def recorded(lo, hi, tau):
            z, dz = contour(lo, hi, tau)
            nodes.append(z)
            return z, dz

        contour = fracext.fracpow.hht_contour
        monkeypatch.setattr(fracext.fracpow, "hht_contour", recorded)
        gen = Generator(np.diag(-np.geomspace(0.5, 0.5 * ratio, 12)))
        u = np.random.default_rng(30).standard_normal(12) + 0j
        resolvent_frac_power(gen, 0.0, 0.3, u, QuadratureSpec(tol=1e-14))
        # one call carries the first three levels and certifies the third: 64 steps at
        # hi/lo = 4, 128 at 6.7e3 and 512 at 1e16
        assert [len(z) for z in nodes] == [{4.0: 65, 6.7e3: 129, 1e16: 513}[ratio]]
        z = np.concatenate(nodes)
        assert z.real.min() > 0.0
        assert z.real.min() < 0.5 < 0.5 * ratio < z.real.max()  # and it encloses the spectrum

    def test_complex_spectrum_runs_exp_sinh(self, monkeypatch):
        calls = []

        def recorded(f, *args, name, **kwargs):
            calls.append(name)
            return trapezoid(f, *args, name=name, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a complex spectrum ran the contour")

        trapezoid = fracext.fracpow.trapezoid_refine
        monkeypatch.setattr(fracext.fracpow, "trapezoid_refine", recorded)
        monkeypatch.setattr(fracext.fracpow, "hht_contour", refuse)
        vecs, lam = nonnormal_factors()
        gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
        u = np.random.default_rng(28).standard_normal(48) + 0j
        assert relerr(balakrishnan_general(gen, 0.3, u), gen.frac_power(0.3, u)) <= 1e-12
        assert relerr(resolvent_frac_power(gen, 0.0, 0.3, u), gen.frac_power(-0.3, u)) <= 1e-12
        assert calls == ["balakrishnan", "inverse fractional power"]

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_random_128_takes_two_levels(self, monkeypatch, s):
        sweeps = []

        def counted(alpha, beta, tri, rhs):
            x = solve(alpha, beta, tri, rhs)
            sweeps.append(len(x))
            return x

        solve = fracext.fracpow._shifted_triangular_solve
        monkeypatch.setattr(fracext.fracpow, "_shifted_triangular_solve", counted)
        gen = builtin_matrix("random:128:3")
        u = np.random.default_rng(29).standard_normal(128) + 0j
        assert relerr(balakrishnan_general(gen, s, u), gen.frac_power(s, u)) <= 1e-12
        assert sweeps == [65]  # hi/lo = 13.3: 64 steps, whose third level certifies the tail


@pytest.mark.parametrize("s", [1e-6, 0.01, 0.99, 1.001, 1.0 + 1e-8, 1.999, 2.999999])
def test_near_integer_orders(s):
    """Every resolvent route at orders within ``1e-6`` to ``1e-2`` of an integer.

    On the non-normal complex generator (the exp-sinh map, against Schur-Padé) and on
    ``laplacian1d:128`` (the contour, except the second kind; against the sine basis).  The
    inverse powers of the Laplacian, of size ``1e-2`` to ``1``, meet ``1e-11``: the stopping
    target ``tol max(1, |value|)`` is absolute below a value of 1.
    """
    vecs, lam = nonnormal_factors()
    mat = (vecs * lam) @ np.linalg.inv(vecs)
    lap = builtin_matrix("laplacian1d:128")
    rng = np.random.default_rng(41)
    u = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    v = np.random.default_rng(43).standard_normal(128) + 0j
    cases = [(Generator(mat), u, fractional_matrix_power(-mat, s) @ u,
              fractional_matrix_power(-mat, -s) @ u, 1e-12),
             (lap, v, dirichlet_sine_power(128, s, v), dirichlet_sine_power(128, -s, v), 1e-11)]
    for gen, w, power, inverse, inverse_tol in cases:
        assert relerr(balakrishnan_general(gen, s, w), power) <= 1e-12, gen.dim
        assert relerr(resolvent_frac_power(gen, 0.0, s, w), inverse) <= inverse_tol, gen.dim
        if s < 2.0:
            assert relerr(balakrishnan_second_kind(gen, s, w), power) <= 1e-12, gen.dim


@pytest.mark.parametrize("s", [1.999, 1.9999])
def test_second_kind_next_to_two(s):
    """The second kind's prefactors take ``2 - s``, exact here, instead of the rounded ``s pi``.

    Its integral grows like ``1/(2 - s)`` against ``sin(s pi)``, so a prefactor formed from
    ``s pi`` erred by ``eps/(2 - s)`` relative: 1.2e-13 to 3.0e-13 on these inputs.
    """
    gen = builtin_matrix("random:64:1")
    u = np.random.default_rng(0).standard_normal(64) + 0j
    oracle = fractional_matrix_power(-gen.matrix, s) @ u
    assert relerr(balakrishnan_second_kind(gen, s, u), oracle) <= 5e-14
    v = np.random.default_rng(0).standard_normal(128) + 0j
    got = balakrishnan_second_kind(builtin_matrix("laplacian1d:128"), s, v)
    assert relerr(got, dirichlet_sine_power(128, s, v)) <= 5e-14


@pytest.mark.parametrize("lam", [[-1e-6 + 1e3j, -1e-6 - 1e3j, -1e-2],
                                 [-0.1 + 1e6j, -0.1 - 1e6j, -1e4]])
def test_nearly_imaginary_spectra(monkeypatch, lam):
    """Spectra with ``|Im/Re|`` up to ``1e9``: the exp-sinh map's strip does not depend on it.

    ``balakrishnan_general`` meets ``1e-12`` in at most 513 solves; the second kind, whose
    terms cancel, meets ``1e-11``.  The suite turns a ``RuntimeWarning`` into an error.
    """
    solves = []

    def counted(alpha, beta, tri, rhs):
        x = solve(alpha, beta, tri, rhs)
        solves.append(len(x))
        return x

    solve = fracext.fracpow._shifted_triangular_solve
    monkeypatch.setattr(fracext.fracpow, "_shifted_triangular_solve", counted)
    lam = np.array(lam)
    gen = Generator(np.diag(lam))
    rng = np.random.default_rng(44)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for s in (0.3, 1.5, 2.7):
        solves.clear()
        assert relerr(balakrishnan_general(gen, s, u), (-lam) ** s * u) <= 1e-12, s
        assert sum(solves) <= 513, s
    for s in (0.3, 1.5):
        assert relerr(balakrishnan_second_kind(gen, s, u), (-lam) ** s * u) <= 1e-11, s


def self_consistency_generators(rng, each=10):
    """Real non-normal, complex non-normal and stiff diagonal generators, ``each`` of every kind.

    Non-normal ones are ``V diag(lam) V^{-1}`` with ``-lam`` log-uniform in ``[1e-2, 1e3]``
    (rotated off the real axis by a log-uniform ``|Im/Re|`` in ``[0.1, 30]`` for the complex
    kind) and ``V = I + c N/||N||_2``, ``c`` log-uniform in ``[1e-2, 1]``; stiff ones span
    ``-1`` to ``-10^{4..10}``.
    """
    gens = []
    for kind in ("real", "complex", "stiff"):
        for _ in range(each):
            dim = int(rng.integers(6, 17))
            if kind == "stiff":
                gens.append(Generator(np.diag(-np.geomspace(1.0, 10.0 ** rng.uniform(4, 10), dim))))
                continue
            lam = -(10.0 ** rng.uniform(-2, 3, dim))
            if kind == "complex":
                lam = lam + 1j * lam * 10.0 ** rng.uniform(-1, 1.5, dim) * rng.choice([-1, 1], dim)
            noise = rng.standard_normal((dim, dim))
            vecs = np.eye(dim) + 10.0 ** rng.uniform(-2, 0) * noise / np.linalg.norm(noise, 2)
            gens.append(Generator((vecs * lam) @ np.linalg.inv(vecs)))
    return gens


def test_routes_agree_with_themselves_at_a_tighter_tolerance():
    """Each resolvent route at the default spec agrees with itself at ``tol = 1e-15``.

    A route stops where the geometric tail of its changes meets its target, so its result
    keeps the accuracy the target promises, relative to the result.  ``balakrishnan_second_kind``
    integrates terms of the size of ``A u`` that cancel to ``A^s u``, by up to ``2e7`` on the
    stiff kind here (1e-8 relative error with its target relative to ``|A u|``), and narrows its
    tolerance by that ratio.
    """
    rng = np.random.default_rng(29)
    fine = QuadratureSpec(tol=1e-15)
    for case, gen in enumerate(self_consistency_generators(rng)):
        u = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        s, alpha = rng.uniform(0.05, 2.95, 2)
        s_second = rng.uniform(0.05, 1.95)
        for name, call in (("general", lambda q: balakrishnan_general(gen, s, u, q)),
                           ("second kind", lambda q: balakrishnan_second_kind(gen, s_second, u, q)),
                           ("inverse", lambda q: resolvent_frac_power(gen, 0.0, alpha, u, q))):
            got, tight = call(None), call(fine)
            assert np.linalg.norm(got - tight) <= 1e-12 * np.linalg.norm(got), (case, name)


def test_second_kind_agrees_with_itself_on_stiff_nonnormal_generators():
    """``balakrishnan_second_kind`` at the default spec agrees with itself at ``tol = 1e-15``.

    Its tolerance is narrowed by a lower bound of ``|A^s u|/|A u|`` that log-convexity of
    ``t -> |A^t u|`` proves for normal ``L`` only.  Here ``L`` is ``convection_diffusion(64, 20)``
    (eigenvector condition 1.8e4) or ``V diag(-geomspace(1, top)) V^{-1}`` with
    ``V = I + c N/||N||_2``; without the narrowing eight of these cases miss, by up to 4e-7 at
    ``top = 1e10`` and ``s = 0.1``.
    """
    rng = np.random.default_rng(31)
    gens = [Generator(convection_diffusion(64, 20.0))]
    for top in (1e6, 1e8, 1e10):
        for c in (0.1, 3.0):
            noise = rng.standard_normal((16, 16))
            vecs = np.eye(16) + c * noise / np.linalg.norm(noise, 2)
            gens.append(Generator((vecs * -np.geomspace(1.0, top, 16)) @ np.linalg.inv(vecs)))
    fine = QuadratureSpec(tol=1e-15)
    for case, gen in enumerate(gens):
        u = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        for s in (0.1, 0.3, 0.5, 1.1, 1.9):
            got, tight = balakrishnan_second_kind(gen, s, u), balakrishnan_second_kind(gen, s, u, fine)
            assert np.linalg.norm(got - tight) <= 1e-12 * np.linalg.norm(got), (case, s)


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
        would need about 2e8 nodes, so the trapezoid driver, which every adaptive rule runs on,
        is made to refuse first.
        """

        def refuse(*args, **kwargs):
            raise AssertionError("c_constant ran a quadrature")

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

    @pytest.mark.parametrize("s", [3.5, 4.5, 5.5, 7.3])
    def test_high_orders(self, s):
        """Orders above 3, where up to eight binomial terms share each mode's ray."""
        bound = 1e-9 if s > 7 else 1e-10
        gen = builtin_matrix("random:64:1")
        u = np.random.default_rng(0).standard_normal(64) + 0j
        got = bbw_frac_power(gen, s, int(s) + 1, u)
        assert relerr(got, fractional_matrix_power(-gen.matrix, s) @ u) <= bound

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

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.5, 2.7, 3.999, 4.5, 5.5, 7.3])
    def test_matches_incomplete_gamma(self, s):
        """Also on the circle ``k |lam| = 1``, where the binomial terms cancel most on the ray.

        The cancellation grows with ``k``, hence the looser bounds at ``s > 4``.
        """
        k = int(s) + 1
        bound = {4.5: 1e-12, 5.5: 1e-11, 7.3: 1e-8}.get(s, 1e-13)
        lams = self.LAMS + [np.exp(1j * a) / k for a in (np.pi, 0.75 * np.pi, 0.55 * np.pi)]
        got = _bbw_ray_integral(np.array(lams), s, k, QuadratureSpec())
        for lam, value in zip(lams, got):
            ref = bbw_tail_oracle(lam, s, k)
            assert abs(value - ref) <= bound * abs(ref), (lam, value, ref)

    def test_real_spectrum_stays_real(self):
        got = _bbw_ray_integral(np.array([-0.54, -1e-3, -4e6]), 1.5, 2, QuadratureSpec())
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


@pytest.mark.parametrize("s", [0.3, 2.7])
def test_ladder_matches_mpmath(s):
    """Every rung of the ``eps``-ladder against 30-digit quadrature below ``eps0`` and the
    incomplete-gamma oracle above it: 16 Gauss-Legendre nodes per panel ``[eps/2, eps]``."""
    gen = Generator(OSCILLATORY)
    k = int(s) + 1
    eps_seq, estimates, _ = _bbw_ladder(gen, s, k, np.ones(4))
    scale = c_constant(s, k)
    for i, lam in enumerate(np.diag(OSCILLATORY)):
        with mpmath.workdps(30):
            lam_mp = mpmath.mpc(lam)
            total = eps_seq[0] ** -s * mpmath.mpc(bbw_tail_oracle(eps_seq[0] * lam, s, k))
            for j, eps in enumerate(eps_seq):
                if j:
                    total += mpmath.quad(lambda t: (mpmath.exp(t * lam_mp) - 1) ** k * t ** (-1 - s),
                                         [eps, eps_seq[j - 1]])
                ref = complex(total) / scale
                assert abs(estimates[j][i] - ref) <= 1e-14 * abs(ref), (lam, j)


def oscillatory_family(seed, d):
    """``V diag(lam) V^{-1}``: ``Re lam`` log-uniform in ``-[1e-2, 1e4]``, ``|Im/Re|`` up to 50
    (a third of the modes real), ``V = I + c N/||N||`` with ``c`` log-uniform in ``[1e-2, 2]``."""
    rng = np.random.default_rng(seed)
    re = -10.0 ** rng.uniform(-2.0, 4.0, d)
    ratio = 10.0 ** rng.uniform(-2.0, np.log10(50.0), d)
    ratio[rng.random(d) < 1 / 3] = 0.0
    lam = re * (1.0 + 1j * rng.choice([-1.0, 1.0], d) * ratio)
    n = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = np.eye(d) + 10.0 ** rng.uniform(-2.0, np.log10(2.0)) * n / np.linalg.norm(n, 2)
    return v @ np.diag(lam) @ np.linalg.inv(v)


class TestBBWStiffOscillatory:
    """Stiff oscillatory modes, ``|lam|`` of 3.5e4 and 3.1e5 at ``|Im/Re|`` near 50: ``e^{t lam}``
    turns thousands of times over ``[eps0, 1]``, so only its steepest-descent rays integrate it."""

    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    @pytest.mark.parametrize("case", ["diagonal", "family:4:12"])
    def test_matches_schur_pade(self, case, s):
        if case == "diagonal":
            mat = np.diag([-704.0 + 35109.0j, -1.0, -0.05 + 0.3j])
        else:
            mat = oscillatory_family(4, 12)
        u = np.random.default_rng(7).standard_normal(len(mat)) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bbw_frac_power(Generator(mat), s, int(s) + 1, u)
        assert relerr(got, fractional_matrix_power(-mat, s) @ u) <= 1e-5


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
