"""Classical constructions of fractional powers ``(-L)^s``.

Three independent routes to the same operator, reconciled against the exact
spectral evaluation in tests:

* the Balakrishnan integral over the resolvent, one route for every
  noninteger ``s``: the order ``s - [s]`` integral applied to ``(-L)^[s] u``.
  ``L`` is reduced once to its complex Schur form, so each quadrature node
  costs one ``O(d^2)`` triangular solve and the route stays independent of
  the eigensystem; each integrand call solves all its nodes in one
  back-substitution sweep, the first call serving the first three refinement
  levels, and on the diagonal Schur factor of a Hermitian ``L`` a node costs
  one division per mode.  A real spectrum takes the Cauchy integral on Hale,
  Higham & Trefethen's contour around it (65 solves in one sweep at a
  spectral ratio of 20); a complex one the resolvent integral over
  ``mu in (0, inf)`` on the exp-sinh map of ``x = log mu`` (129 solves in one
  sweep at the default spec);
* inverse fractional powers ``(eps I - L)^{-alpha}``: ``[alpha]`` LAPACK
  triangular solves with ``eps I - T`` (divisions by ``eps - diag(T)`` on a
  diagonal ``T``) and, for the fractional part, the same resolvent integral
  with its resolvent shifted by ``eps``;
* the Berens-Butzer-Westphal limit of ``(e^{tL} - I)^k`` integrals with a
  Richardson-extrapolated truncation parameter, normalized by the closed
  form of ``c(s, k)``, which runs no quadrature.  It runs per mode on the
  eigencoordinates; its integral over ``[eps0, inf)`` puts every
  exponential of the binomial expansion on the mode's one steepest-descent
  ray, where none oscillates, and integrates there with a
  double-exponential trapezoid rule, one power per node and mode whatever
  ``k``; below ``eps0`` one evaluation of the integrand serves the
  Gauss-Legendre panels of every cut-off.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, comb, expm1, factorial, fsum, log, log2, pi

import numpy as np
from scipy.special import gamma

from .operators import Generator
from .quadrature import (
    _KERNEL_DECAY,
    _TAIL_TERMS,
    ConvergenceError,
    QuadratureSpec,
    exp_sinh,
    exp_sinh_window,
    extrapolation_spread,
    gauss_legendre_rule,
    hht_contour,
    richardson_table,
    trapezoid_refine,
)

__all__ = [
    "FracOrder",
    "resolvent_frac_power",
    "balakrishnan_general",
    "balakrishnan_second_kind",
    "c_constant",
    "bbw_frac_power",
]

_NONINTEGER_TOL = 1e-9


@dataclass(frozen=True)
class FracOrder:
    """Noninteger order ``s > 0`` with cached integer and fractional parts."""

    s: float
    n: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        s = float(self.s)
        if not 0.0 < s < np.inf:
            raise ValueError(f"fractional order must be positive and finite, got {s}")
        if abs(s - round(s)) < _NONINTEGER_TOL:
            raise ValueError(f"fractional order must be noninteger, got {s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", int(np.floor(s)))
        object.__setattr__(self, "sigma", s - int(np.floor(s)))


def as_order(s):
    """Coerce a float or :class:`FracOrder` to a :class:`FracOrder`."""
    return s if isinstance(s, FracOrder) else FracOrder(float(s))


# -- the shifted resolvent integral -------------------------------------------------


def _sweep_factor(tri):
    """``T`` as :func:`_shifted_triangular_solve` takes it: its diagonal alone when ``T`` is diagonal.

    ``T`` is the upper triangular Schur factor; it is diagonal for every
    Hermitian ``L``, and then its diagonal is returned real when every
    imaginary part vanishes.  A route decides this once per call and passes
    the result to every sweep, instead of each sweep scanning the ``d^2 - d``
    entries off the diagonal.
    """
    dim = tri.shape[0]
    # the d^2 - 1 entries after T[0, 0]: d - 1 rows of d off the diagonal and one on it
    if tri.ravel()[1:].reshape(dim - 1, dim + 1)[:, :dim].any():
        return tri
    eig = tri.diagonal()
    return eig if eig.imag.any() else eig.real


def _shifted_triangular_solve(alpha, beta, factor, rhs):
    """Solve ``(alpha_j I + beta_j T) x_j = rhs_j`` for every node ``j``; shape ``(m, d)``.

    ``factor`` is ``T`` as :func:`_sweep_factor` gives it: the upper
    triangular ``T``, or the diagonal of a diagonal ``T``.  ``alpha`` and
    ``beta`` are scalars or arrays of shape ``(m,)``, at least one of them an
    array; ``rhs`` is ``(d,)`` (shared by every node) or ``(m, d)``.  One
    back-substitution sweep over the ``d`` rows solves all ``m`` systems at
    once, at ``O(m d)`` per row.  A diagonal needs no sweep: one division
    per node and mode, in real arithmetic when the diagonal, ``alpha`` and
    ``beta`` are real.
    """
    if factor.ndim == 1:
        den = np.reshape(alpha, (-1, 1)) + np.reshape(beta, (-1, 1)) * factor
        x = np.empty(den.shape, dtype=complex)
        if np.iscomplexobj(den):
            return np.divide(rhs, den, out=x)
        x.real, x.imag = np.real(rhs) / den, np.imag(rhs) / den
        return x
    dim = factor.shape[0]
    diag = alpha + beta * factor.diagonal()[:, None]
    m = diag.shape[1]
    b = np.broadcast_to(rhs, (m, dim)).T
    x = np.empty((dim, m), dtype=complex)
    for i in range(dim - 1, -1, -1):
        x[i] = (b[i] - beta * (factor[i, i + 1:] @ x[i + 1:])) / diag[i]
    return x.T


def _contour_steps(lo, hi, tol):
    """Steps of the first integrand call over the contour's period: a power of two, at least 16.

    The trapezoid rule on :func:`~fracext.quadrature.hht_contour` errs by
    about ``e(N) = exp(-a N)`` at ``N`` steps, ``a = pi^2 / (2 (log(hi/lo) + 3))``:
    3.7e-12 at 32 steps for ``hi/lo = 20`` (2e-12 measured) and 2.5e-12 at
    64 steps for ``hi/lo = 6.7e3`` (2.0e-12 measured).  The first call
    serves three levels, of ``N/4``, ``N/2`` and ``N`` steps (see
    :func:`~fracext.quadrature.trapezoid_refine`), and the geometric tail of
    :func:`~fracext.quadrature.refine` certifies the third where
    ``e(N/2)^2 / e(N/4) = exp(-3 a N/4)`` meets ``tol``, so ``N`` is the
    least power of two with ``3 a N/4 >= log(1/tol)``.  The floor of 16
    keeps four steps on the coarsest level when ``tol`` is loose.
    """
    need = 8.0 / 3.0 * (log(hi / lo) + 3.0) * log(1.0 / tol) / pi**2
    return 2 ** max(4, ceil(log2(max(need, 1.0))))


def _scaled_pair(x):
    """``(a, b) = (1/max(1, mu), min(mu, 1))`` at ``mu = e^x``: ``a (mu I + B) = b I + a B``.

    Scaled so, the systems of a resolvent integral over ``mu in (0, inf)``
    keep bounded entries at both ends, where ``mu`` underflows or overflows.
    """
    return np.exp(-np.maximum(x, 0.0)), np.exp(np.minimum(x, 0.0))


def _exp_sinh_integral(f, lo, hi, rise, fall, tol, nodes, name):
    """``int f(x) dx`` over the real line (``x = log mu``) as one exp-sinh trapezoid call.

    ``f`` takes an array of ``x`` and returns one row per node; its tails are
    bounded as :func:`~fracext.quadrature.exp_sinh_window` states for
    ``lo``, ``hi``, ``rise`` and ``fall``.  The first integrand call lays
    ``nodes`` steps across the window in ``t`` and serves the first three
    refinement levels.
    """
    t_lo, t_hi = exp_sinh_window(lo, hi, rise, fall)

    def integrand(t):
        x, dx = exp_sinh(t)
        return dx[:, None] * f(x)

    return trapezoid_refine(integrand, t_lo, t_hi, tol, h0=(t_hi - t_lo) / nodes, name=name)


def _resolvent_integral(factor, w, sig, shift, quad, name):
    """``B^{-sig} w`` with ``B = shift I - T`` and ``0 < sig < 1``.

    ``T`` is the triangular Schur factor of ``L``, passed as
    :func:`_sweep_factor` gives it, and ``w`` a vector in its basis.  Every
    integrand call of the quadrature solves all its nodes in one triangular
    sweep, and the first call serves the rule's first three levels, so an
    integral whose third level certifies its geometric tail runs one sweep.
    The rule depends on the spectrum ``eig = shift - diag(T)`` of ``B``.

    A real spectrum (every Hermitian ``L``, and any ``L`` with real
    eigenvalues) takes the Cauchy integral
    ``-(1/(2 pi i)) int z^{-sig} (dz/dtau) ((z - shift) I + T)^{-1} w dtau``
    over one period of :func:`~fracext.quadrature.hht_contour` around
    ``[lo, hi] = [min eig, max eig]``, ``hi`` widened to at least ``4 lo`` so
    that a scalar or equal spectrum still has a contour.  The trapezoid rule
    in ``tau`` converges geometrically, and its first call takes the steps
    :func:`_contour_steps` predicts for ``quad.tol``, whatever ``quad.nodes``:
    at the default ``tol`` a ratio ``hi/lo`` of 20 takes 65 solves in one
    sweep, ``6.7e3`` 129, and ``1e16`` 513.  No ``1/sig`` or
    ``1/(1 - sig)`` appears, so ``sig`` near ``0`` or ``1`` needs no care.

    A complex spectrum is not enclosed by that contour and takes
    ``(sin(pi sig)/pi) int_0^inf mu^{-sig} ((mu + shift) I - T)^{-1} w dmu``
    in ``x = log mu`` as one exp-sinh trapezoid call
    (:func:`_exp_sinh_integral`): at the default spec 129 solves in one
    sweep on the non-normal complex spectra tried.  A mode ``lam`` of
    ``eig`` puts the integrand's poles at
    ``x = log|lam| +- i (pi - |arg lam|)``, so in the right half-plane the
    strip of analyticity is at least ``|Im x| < pi/2`` whatever ``|Im/Re|``.
    Each node solves ``(b + shift a) I - a T`` with ``(a, b)`` of
    :func:`_scaled_pair` and weighs the solution by ``e^{(1 - sig) x}`` at
    ``x <= 0`` and ``e^{-sig x}`` above, one ``exp`` of a nonpositive
    exponent.  As ``|mu + lam| >= |lam|`` and ``>= mu``, the mode's
    integrand is at most ``|lam|^-sig e^{(1 - sig)(x - log|lam|)}`` and
    ``|lam|^-sig e^{-sig (x - log|lam|)}``, so the window of
    :func:`~fracext.quadrature.exp_sinh_window` from ``min |eig|`` and
    ``max |eig|`` with ``rise = 1 - sig`` and ``fall = sig`` cuts each
    mode's tails below ``eps/e`` times ``|lam^-sig|``.  The prefactor is
    formed from the smaller of ``sig`` and ``1 - sig``, exact for
    ``sig >= 1/2``: then the ``1/sig`` or ``1/(1 - sig)`` the integral grows
    by and the prefactor cancel to full relative accuracy even for ``sig``
    within ``1e-9`` of ``0`` or ``1``.
    """
    eig = shift - (factor if factor.ndim == 1 else factor.diagonal())
    if not eig.imag.any() and eig.real.min() > 0.0:
        lo, hi = eig.real.min(), eig.real.max()
        hi = max(hi, 4.0 * lo)

        def cauchy(tau):
            z, dz = hht_contour(lo, hi, tau)
            weights = z ** -sig * dz / (-2j * np.pi)
            return weights[:, None] * _shifted_triangular_solve(z - shift, 1.0, factor, w)

        h0 = 4.0 / _contour_steps(lo, hi, quad.tol)
        return trapezoid_refine(cauchy, -1.0, 3.0, quad.tol, h0=h0, name=name)
    moduli = np.abs(eig)

    def resolvent(x):
        a, b = _scaled_pair(x)
        weights = np.exp(np.where(x <= 0.0, (1.0 - sig) * x, -sig * x))
        return weights[:, None] * _shifted_triangular_solve(b + shift * a, -a, factor, w)

    integral = _exp_sinh_integral(resolvent, moduli.min(), moduli.max(), 1.0 - sig, sig, quad.tol,
                                  quad.nodes, name)
    return np.sin(np.pi * min(sig, 1.0 - sig)) / np.pi * integral


# -- inverse fractional powers ---------------------------------------------------


def resolvent_frac_power(gen: Generator, eps, alpha, u, quad=None):
    """Apply ``(eps I - L)^{-alpha}`` in the cached Schur basis ``L = Z T Z^H``.

    The integer part ``[alpha]`` is that many LAPACK triangular solves with
    ``eps I - T``, formed once, or on a diagonal ``T`` that many divisions by
    ``eps - diag(T)``; the fractional part ``sigma = alpha - [alpha]``, when
    nonzero, is the Balakrishnan-type resolvent integral

        ``(eps I - L)^{-sigma} w = (sin(pi sigma)/pi)
        int_0^inf mu^{-sigma} ((mu + eps) I - L)^{-1} w dmu``,

    evaluated by :func:`_resolvent_integral` as in :func:`balakrishnan_general`:
    on a contour around a real spectrum, on the exp-sinh map on a complex one.
    ``Z^H`` is applied as ``(u^H Z)^H``, without a copy of ``Z``, and ``Z``
    once to the result; the cached eigensystem is not used.
    """
    quad = quad or QuadratureSpec()
    if not 0 <= eps < np.inf:
        raise ValueError(f"shift must be nonnegative and finite, got {eps}")
    if not 0 < alpha < np.inf:
        raise ValueError(f"power must be positive and finite, got {alpha}")
    from scipy.linalg import solve_triangular  # deferred: importing scipy.linalg is slow

    tri, unitary = gen.schur
    factor = _sweep_factor(tri)
    w = (gen._check_vector(u).conj() @ unitary).conj()
    whole = int(np.floor(alpha))
    if whole and factor.ndim == 1:
        shifted = eps - factor
        for _ in range(whole):
            w = w / shifted
    elif whole:
        shifted = eps * np.eye(gen.dim) - tri
        for _ in range(whole):
            w = solve_triangular(shifted, w, check_finite=False)
    sig = alpha - whole
    if sig > 0.0:
        w = _resolvent_integral(factor, w, sig, eps, quad, "inverse fractional power")
    return unitary @ w


# -- Balakrishnan integrals ------------------------------------------------------


def balakrishnan_general(gen: Generator, s, u, quad=None):
    """Balakrishnan integral for ``(-L)^s u`` with any noninteger ``s > 0``.

    With ``A = -L``, ``n = [s]`` and ``sigma = s - n``:
    ``(sin(sigma pi)/pi) int_0^inf mu^{sigma-1} (mu I + A)^{-1} A^{n+1} u dmu``,
    the resolvent integral of :func:`_resolvent_integral` at ``sig = 1 - sigma``
    and no shift: a Cauchy integral on Hale, Higham & Trefethen's contour for
    a real spectrum (65 solves on ``random:128``), the exp-sinh map for a
    complex one (129 at the default spec on the non-normal complex spectra
    tried).  ``A^n u`` comes from :meth:`Generator.apply_minus_power`;
    the last power and everything after it run in the cached complex Schur
    basis ``L = Z T Z^H``, independent of the cached eigensystem: that power is
    formed there as ``-T Z^H A^n u`` (``Z^H`` applied as ``(v^H Z)^H``,
    without a copy of ``Z``), each node costs one triangular back
    substitution, and ``Z`` is applied once to the sum.  For normal ``L``
    (diagonal ``T``) forming the last power per Schur mode keeps the roundoff
    of stiff modes out of the soft ones.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    tri, unitary = gen.schur
    au = -(tri @ (gen.apply_minus_power(order.n, u).conj() @ unitary).conj())
    return unitary @ _resolvent_integral(_sweep_factor(tri), au, 1.0 - order.sigma, 0.0, quad,
                                         "balakrishnan")


def balakrishnan_second_kind(gen: Generator, s, u, quad=None):
    """Alternative Balakrishnan formula on ``0 < s < 2`` used as a cross-check.

    ``(sin(s pi)/pi) int_0^inf mu^{s-1} [(mu I + A)^{-1} - mu/(1+mu^2)] A u dmu
    + sin(s pi / 2) A u``.  In ``x = log mu`` the integrand is
    ``mu^s (mu I + A)^{-1} (A u - mu A^2 u) / (1 + mu^2)`` at ``x <= 0`` and,
    with ``v = e^{-x}``, ``v^{2-s} (I + vA)^{-1} (v A u - A^2 u) / (1 + v^2)``
    above (exact algebra, no cancellation at either end): each node solves
    ``b I + a A`` with ``(a, b)`` of :func:`_scaled_pair` and the right side
    ``a A u - b A^2 u``.  Per mode ``lam`` of ``A`` it falls like ``mu^s``
    where ``mu`` is below ``|lam|`` and 1 (its ``mu^{s+1} lam`` part faster
    still), and like ``lam^2 mu^{s-2}`` above both, against the mode's
    ``|lam|^s``; so one exp-sinh trapezoid call
    (:func:`_exp_sinh_integral`) on the window of
    :func:`~fracext.quadrature.exp_sinh_window` from ``min(min |eig|, 1)``
    and ``max(max |eig|, 1)``, with ``rise = s`` and ``fall = 2 - s``, takes
    the integral: at the default spec 129 solves in one sweep on the
    non-normal complex spectra tried, 257 in two on ``laplacian1d:128``.
    Everything, the ``sin(s pi / 2) A u`` term included, runs in the Schur
    basis as in :func:`balakrishnan_general`; on stiff normal ``L`` a dense
    ``A^2 u`` would put the roundoff of the stiff modes into the soft ones.  It runs
    the exp-sinh map on every spectrum, real ones too, so that it stays a
    formula and a rule of its own against :func:`balakrishnan_general`'s
    contour.  Its integral and the ``sin(s pi / 2) A u`` term are of the
    size of ``A u`` and cancel to ``A^s u``, by a factor of up to ``1e7`` on
    stiff spectra, so the quadrature runs at ``quad.tol`` times a lower
    bound of ``|A^s u|/|A u|``: ``(|A u|/|A^2 u|)^(1-s)`` for ``s < 1`` and
    ``(|A u|/|u|)^(s-1)`` for ``s > 1``, by log-convexity of
    ``t -> |A^t u|`` (a bound for normal ``L``).  As ``s -> 2`` the integral
    grows like ``1/(2 - s)`` against ``sin(s pi)``, so the prefactors are
    formed from ``2 - s`` (and ``sigma``, ``1 - sigma``), exact there,
    instead of the rounded ``s pi``, which would cost ``eps/(2 - s)``.
    """
    order = as_order(s)
    if not 0.0 < order.s < 2.0:
        raise ValueError(f"second-kind formula needs 0 < s < 2, got s={order.s}")
    quad = quad or QuadratureSpec()
    s_val = order.s
    tri, unitary = gen.schur
    u = gen._check_vector(u)
    au = -(tri @ (u.conj() @ unitary).conj())
    a2u = -(tri @ au)
    factor = _sweep_factor(tri)
    size = np.linalg.norm(au)
    other = np.linalg.norm(a2u if s_val < 1.0 else u)
    tol = quad.tol * (min(1.0, (size / other) ** abs(1.0 - s_val)) if size > 0.0 else 1.0)
    moduli = np.abs(factor if factor.ndim == 1 else factor.diagonal())

    def second_kind(x):
        a, b = _scaled_pair(x)
        weights = np.exp(np.where(x <= 0.0, s_val * x, (s_val - 2.0) * x)) / (1.0 + (a * b) ** 2)
        rhs = a[:, None] * au - b[:, None] * a2u
        return weights[:, None] * _shifted_triangular_solve(b, -a, factor, rhs)

    integral = _exp_sinh_integral(second_kind, min(moduli.min(), 1.0), max(moduli.max(), 1.0),
                                  s_val, 2.0 - s_val, tol, quad.nodes, "balakrishnan-II")
    # sin(s pi) = (-1)^n sin(pi min(sigma, 1 - sigma)) and sin(s pi/2) = sin((pi/2) min(s, 2 - s)):
    # sigma, 1 - sigma (for sigma >= 1/2) and 2 - s (for s >= 1) are exact, where s pi is rounded
    first = (-1.0) ** order.n * np.sin(np.pi * min(order.sigma, 1.0 - order.sigma)) / np.pi
    return unitary @ (first * integral + np.sin(np.pi / 2.0 * min(s_val, 2.0 - s_val)) * au)


# -- the Berens-Butzer-Westphal normalization constant ----------------------------


def _check_bbw_exponent(order, k):
    if int(k) != k or k < 1:
        raise ValueError(f"power index must be a positive integer, got {k}")
    if k <= order.s:
        raise ValueError(f"need k > s for a convergent integral, got k={k}, s={order.s}")
    return int(k)


def c_constant(s, k):
    """Normalization constant ``c(s, k) = int_0^inf (e^{-t} - 1)^k t^{-1-s} dt`` in closed form.

    ``c(s, k) = Gamma(-s) sum_{j=1..k} C(k,j) (-1)^{k-j} j^s``: expanding the
    power binomially and integrating each Taylor-regularized exponential
    against ``t^{-1-s}`` leaves one ``Gamma(-s) j^s`` per term.  For
    ``1 <= m = round(s) < k`` the sum with ``j^m`` in place of ``j^s``
    vanishes, so the terms are summed as ``j^m expm1((s - m) log j)``: near an
    integer the plain sum would cancel to the distance ``s - m``, against
    which ``Gamma(-s)`` is large.  No quadrature runs;
    :func:`fracext.verify.check_bbw_constant` compares the result with SciPy's
    QUADPACK.
    """
    order = as_order(s)
    k = _check_bbw_exponent(order, k)
    s_val, m = order.s, round(order.s)
    near = 1 <= m < k  # then the sum with j^m is 0: drop j^m from every term
    powers = [j**m * expm1((s_val - m) * log(j)) if near else j**s_val for j in range(1, k + 1)]
    terms = (comb(k, j) * (-1.0) ** (k - j) * p for j, p in enumerate(powers, 1))
    return float(gamma(-s_val) * fsum(terms))


# -- the Berens-Butzer-Westphal limit ----------------------------------------------


_BBW_LEVELS = 13  # cut-offs eps_j = eps0 2^-j, j < 13
_BBW_CONV_TOL = 1e-5  # relative spread of the extrapolants that counts as converged


@lru_cache(maxsize=None)
def _bbw_series_coefficients(k):
    """``D_n / n!`` for ``n = k .. k + _TAIL_TERMS - 1``, ``D_n = sum_{j=1..k} C(k,j) (-1)^{k-j} j^n``.

    Exact in integers and then rounded once; read-only, as every call at
    this ``k`` shares it.
    """
    coeffs = np.array([sum(comb(k, j) * (-1) ** (k - j) * j**n for j in range(1, k + 1)) / factorial(n)
                       for n in range(k, k + _TAIL_TERMS)])
    coeffs.setflags(write=False)
    return coeffs


def _bbw_ray_integral(lam, s, k, quad):
    """``T(lam) = int_1^inf t^{-1-s} (e^{t lam} - 1)^k dt`` per mode (``Re lam < 0``).

    ``t = eps r`` scales any lower limit to 1:
    ``int_eps^inf t^{-1-s} (e^{t lam} - 1)^k dt = eps^{-s} T(eps lam)``, so
    :func:`_bbw_ladder` calls this at ``eps0 lam``.

    Binomially ``T = (-1)^k / s + sum_{j=1..k} C(k,j) (-1)^{k-j} I(j lam)``
    with ``I(z) = int_1^inf t^{-1-s} e^{zt} dt``.  On the steepest-descent ray
    ``t = 1 - u/z``, ``u >= 0``, the exponential no longer oscillates:
    ``I(z) = (e^z / -z) int_0^inf (1 - u/z)^{-1-s} e^-u du``.  In the ``j``-th
    term ``z = j lam``, and ``u = j v`` puts every term on the one ray
    ``t = 1 - v/lam``, where ``e^{j lam t} = e^{j (lam - v)}`` decays for each
    ``j``:
    ``sum_j C(k,j) (-1)^{k-j} I(j lam) = (1/-lam) int_0^inf (1 - v/lam)^{-1-s} P(e^{lam - v}) dv``
    with ``P(a) = sum_{j=1..k} C(k,j) (-1)^{k-j} a^j``.  So a node costs one
    power per mode, not ``k``, ``e^lam`` is formed once per mode and
    ``e^-v`` once per node; ``Re(1 - v/lam) >= 1`` keeps the power bounded
    (real for real ``lam``).  ``P`` is evaluated by Horner's rule in ``a``:
    the closed form ``(a - 1)^k - (-1)^k`` cancels as ``a -> 0``, at large
    ``v`` and on stiff modes, where ``P(a)`` is about ``(-1)^{k-1} k a``.
    Takahasi and Mori's double-exponential map ``v = exp(x - e^-x)`` makes
    the integrand decay double-exponentially at both ends of the ``x``-axis,
    so one trapezoid lattice on ``[-log D, log D]`` (``D = _KERNEL_DECAY``)
    serves every mode.

    Where ``rho = k |lam| < 1`` the binomial terms cancel.  There ``t = r/rho``
    gives ``T(lam) = rho^s [T(mu) + int_rho^1 r^{-1-s} (e^{r mu} - 1)^k dr]``
    with ``mu = lam/rho`` on the circle ``k |mu| = 1``, where the ray rule is
    accurate, and the inner integral is the series
    ``sum_{n>=k} D_n mu^n (1 - rho^{n-s}) / (n! (n - s))``,
    ``D_n = sum_j C(k,j) (-1)^{k-j} j^n``, whose terms shrink like ``1/n!``
    (:func:`_bbw_series_coefficients`).  The powers ``mu^n`` are running
    products, as ``pow`` of a negative real base is slow; ``expm1`` forms
    ``1 - rho^{n-s}``, so the ``n = k`` term keeps its digits even for ``s``
    just below ``k``.
    """
    lam = np.asarray(lam)
    rho = np.minimum(k * np.abs(lam), 1.0)
    mu = lam / rho
    weights = [comb(k, j) * (-1.0) ** (k - j) for j in range(1, k + 1)]
    growth, scale = np.exp(mu), -1.0 / mu

    def ray(x):
        shrink = np.exp(-x)
        v = np.exp(x - shrink)
        powers = (1.0 + np.multiply.outer(v, scale)) ** (-1.0 - s)
        a = np.multiply.outer(np.exp(-v), growth)
        poly = weights[-1] * a
        for c in weights[-2::-1]:
            poly = (poly + c) * a
        return (v * (1.0 + shrink))[:, None] * powers * (poly * scale)

    reach = log(_KERNEL_DECAY)
    # a first call of 65 nodes: per node the integrand is so cheap that a second call would
    # cost more than the 32 nodes a coarser first call saves
    rays = trapezoid_refine(ray, -reach, reach, quad.tol, h0=0.125, name="bbw rays")
    tail = (-1.0) ** k / s + rays
    small = rho < 1.0
    if small.any():
        n = np.arange(k, k + _TAIL_TERMS)
        rs, ms = rho[small], mu[small]
        powers = np.cumprod(np.broadcast_to(ms, (k + _TAIL_TERMS - 1, ms.size)), axis=0)[k - 1:]
        terms = -np.expm1(np.multiply.outer(n - s, np.log(rs))) * powers
        tail[small] = rs**s * (tail[small] + (_bbw_series_coefficients(k) / (n - s)) @ terms)
    return tail


_BBW_PANEL_NODES = 16  # Gauss-Legendre nodes on each [eps/2, eps]: error near (3 + sqrt 8)^-32


def _bbw_ladder(gen: Generator, s, k, u, quad=None):
    """The truncated BBW integrals along the cut-offs: ``(eps_seq, estimates, exponents)``.

    ``estimates[j] = (1/c(s,k)) int_{eps_j}^inf (e^{tL} - I)^k u t^{-1-s} dt``
    along ``eps_j = eps0 2^{-j}``.  The truncated mass below ``eps`` scales
    like ``eps^{k-s}``, so the first two Richardson elimination exponents are
    ``k - s`` and ``k - s + 1``.  Everything runs per mode on the
    eigencoordinates, and one ``V`` product maps every ladder entry back.
    The integrals are assembled once: ``[eps0, inf)`` by
    :func:`_bbw_ray_integral` on each mode's steepest-descent ray, and
    Gauss-Legendre panels over each ``[eps_{j+1}, eps_j]``, where
    ``|t lam| <= 1`` leaves nothing to oscillate, all panels in one
    evaluation of the integrand and the ladder one running sum.  The
    integrand is ``t^{k-1-s}`` times a function analytic near the panel; the
    branch point ``t = 0`` lies one panel width below ``[eps/2, eps]``, so
    the rule's Bernstein ellipse has ``rho = 3 + sqrt 8`` and 16 nodes err by
    about ``rho^-32``, ``4e-25``, relative.

    ``eps0 = min(0.1, 1/||L||_2)`` puts the first cut-off at the decay time
    ``1/||L||_2`` of the stiffest mode instead of far past it, so the
    extrapolated truncation error is in its asymptotic regime.  The cap bounds
    ``eps0 |lam|`` by ``0.1 ||L||_2``, so on a mild generator the ladder starts
    where the truncated mass already follows its first two powers of ``eps``;
    every generator with ``||L||_2 <= 10`` starts at ``0.1``.
    """
    order = as_order(s)
    k = _check_bbw_exponent(order, k)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    eps0 = min(0.1, 1.0 / gen.norm2)
    s_val = order.s
    lam, coords = gen._modes(u)  # on a real spectrum a real expm1 is several times cheaper
    eps_seq = [eps0 * 2.0 ** (-j) for j in range(_BBW_LEVELS)]

    # the panels [eps_j/2, eps_j], j < _BBW_LEVELS - 1, of half-width eps_j/4 about 3 eps_j/4
    glx, glw = gauss_legendre_rule(_BBW_PANEL_NODES)
    half = 0.25 * np.array(eps_seq[:-1])[:, None]
    t = half * (glx + 3.0)
    weights = half * glw * t ** (-1.0 - s_val)
    # (e^{tL} - I)^k in eigencoordinates by products, as pow() of a negative real base is slow
    base = np.expm1(np.multiply.outer(t, lam))
    factors = base
    for _ in range(k - 1):
        factors = factors * base
    panels = (weights[:, None, :] @ factors)[:, 0] * coords

    head = eps0**-s_val * _bbw_ray_integral(eps0 * lam, s_val, k, quad) * coords
    tails = np.cumsum(np.concatenate((head[None], panels)), axis=0)
    estimates = gen._from_modes(tails / c_constant(order, k))
    return eps_seq, list(estimates), [k - s_val, k - s_val + 1.0]


def bbw_frac_power(gen: Generator, s, k, u, quad=None):
    """``(-L)^s u`` as the extrapolated Berens-Butzer-Westphal limit.

    Richardson-extrapolates the truncated integrals
    ``(1/c(s,k)) int_eps^inf (e^{tL} - I)^k u t^{-1-s} dt`` of
    :func:`_bbw_ladder` in ``eps``.  A non-Cauchy extrapolant sequence (spread
    above ``_BBW_CONV_TOL`` relative) raises :class:`ConvergenceError`;
    :func:`fracext.traces.bbw_estimate` reports the same ladder with its table
    and a ``converged`` flag instead.
    """
    _, estimates, exponents = _bbw_ladder(gen, s, k, u, quad)
    levels = richardson_table(estimates, exponents)
    value = levels[-1][-1]
    spread = extrapolation_spread(levels)
    if spread > _BBW_CONV_TOL * max(1.0, float(np.linalg.norm(value))):
        raise ConvergenceError(
            "BBW limit: eps-sequence is not Cauchy", achieved=spread, required=_BBW_CONV_TOL
        )
    return value
