"""The extension profile ``U(y)`` and its exact ``y``-derivatives.

``U(y)`` averages the semigroup against a stable-subordinator-type kernel,

    U(y) = (1/Gamma(s)) int_0^inf e^-r r^{s-1} e^{(y^2/(4r)) L} u dr,

and solves the degenerate second-order ODE ``L U + ((1-2s)/y) U' + U'' = 0``
together with its higher-order companion.  This module evaluates ``U``, its
derivatives (by exact symbolic differentiation of the kernel under the
integral sign), the explicit representation through ``f = (-L)^s u``, the
radial powers ``(2/y d/dy)^m U``, and the ODE residuals used to validate
everything.

Every integral here is one subordination integral

    int_0^inf F_k(r) r^alpha e^{(y^2/(4r)) L} (.) dr/r,

with ``F_-1(r) = e^-r`` or, for ``k >= 0``, the Taylor tail
:func:`exp_tail` of ``e^-r``, and one private integrator,
:func:`_subordinate`, evaluates all of them: a trapezoid rule on ``x = log r``,
where the integrand decays double-exponentially on the left (through the
semigroup factor ``e^{-c/r}``) and at least exponentially on the right, so a
~60-node rule already reaches machine precision.  (A Gauss-Laguerre rule with
weight ``r^{s-1} e^-r`` would converge poorly: the factor ``e^{-c/r}`` is not
polynomial-like near ``r = 0``.)  One rule, :func:`_log_window`, reads every
window off the weight's envelope (``r^{alpha+k+1}`` at ``0``, ``r^alpha e^-r``
or ``r^{alpha+k}`` at infinity) and the semigroup's decay, with the single
constant ``_KERNEL_DECAY``.  Integrals over the original ``t = y^2/(4r)``
line need no rule of their own: in ``log t`` that line is the ``r``-line
mirrored, ``log t = log(y^2/4) - log r``, so its trapezoid sums the same
integrand at mirrored nodes.

Every integrand is linear in ``u`` and ``L = V diag(lam) V^{-1}`` is
factored once, so the integrands run per mode: on the eigencoordinates
``c = V^{-1} u`` each node costs ``O(dim)`` (``e^{t lam} c``, in real
arithmetic when the spectrum is real), the refinement driver sums
eigencoordinate rows, and ``V`` is applied once to each finished integral.

Two symbolic calculi drive the derivative machinery, each moving every
``y``-derivative under the integral sign:

* :class:`KernelDerivative` differentiates the kernel ``y^{2s} e^{-y^2/(4t)}``
  itself and serves the plain derivatives ``d^m U/dy^m`` (``y_derivative``,
  ``y_derivatives_upto``, ``build_profile``) through weighted moments of the
  semigroup.  Those moments carry negative powers of ``y`` that nearly cancel
  as ``y -> 0``, which plain derivatives tolerate and boundary limits do not.
* The semigroup chain serves the radial powers ``(2/y d/dy)^m U``, the
  weighted boundary derivatives and the higher extension operator.  With
  ``d/dt e^{tL} = L e^{tL}`` each step maps ``y^p I_j`` to terms ``y^{p'}
  I_{j'}`` with ``p' >= 0``, where ``I_j = (1/Gamma(s)) int r^{s-1-j} e^-r
  L^j e^{(y^2/(4r))L} u dr`` integrates the bare semigroup; so no negative
  power of ``y`` and no subtracted Taylor polynomial appears, and the
  integrals are accurate at every ``y``.  (Splitting off the Taylor
  polynomial of the semigroup, as an exact part plus remainder integrals,
  cancels catastrophically once ``y^2 ||L||`` is large.)  The chain does not
  replace the kernel moments for plain derivatives: up to order
  ``2([s]+1)`` it needs ``I_j`` with ``j >> s``, whose integrands peak where
  ``e^{t lam}`` oscillates on complex spectra, and ``build_profile`` on a
  non-normal ``64 x 64`` complex spectrum ran several times slower through
  it.
"""

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.special import gamma

from .fracpow import FracOrder, as_order
from .operators import Generator
from .quadrature import QuadratureSpec, trapezoid_refine

__all__ = [
    "exp_tail",
    "explicit_poly_part",
    "extend_subordination",
    "extend_explicit",
    "KernelDerivative",
    "y_derivative",
    "y_derivatives_upto",
    "radial_power",
    "weighted_extension_derivative",
    "extension_operator_power",
    "normalization_check",
    "pde_residual",
    "ExtensionProfile",
    "build_profile",
]

_TAIL_TERMS = 26  # where r <= 1 the first omitted tail term is below 1/27! of the first
_KERNEL_DECAY = 55.0  # windows end where weight or semigroup factor is below e^-55 ~ 1e-24


# -- scalar helpers --------------------------------------------------------------


def exp_tail(n, r):
    """``F_n(r) = e^-r - sum_{k<=n} (-r)^k / k!``, the Taylor tail of ``e^-r``.

    Vectorized in ``r``; ``n = -1`` returns ``e^-r`` (empty partial sum).  For
    ``r <= 1`` the value is summed from the tail series (terms ``k = n+1``
    onward, ``_TAIL_TERMS`` of them, by Horner) because the direct difference
    cancels catastrophically; beyond, the subtracted polynomial is comparable
    to ``e^-r`` and the difference is safe.
    """
    if n < -1:
        raise ValueError(f"tail index must be >= -1, got {n}")
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.exp(-r)
    if n >= 0:
        near = r <= 1.0
        z = -r[near]
        # F_n = (z^{n+1}/(n+1)!) (1 + z/(n+2) (1 + z/(n+3) (1 + ...)))
        tail = np.ones_like(z)
        for k in range(n + _TAIL_TERMS, n + 1, -1):
            tail = 1.0 + tail * z / k
        for k in range(1, n + 2):
            tail = tail * z / k
        out[near] = tail
        z = -r[~near]
        term = np.ones_like(z)  # z^k / k!
        direct = out[~near]
        for k in range(n + 1):
            direct = direct - term
            term = term * z / (k + 1)
        out[~near] = direct
    return out[0] if scalar else out


def _gamma_ratio(s, k):
    """``Gamma(s - k) / Gamma(s) = 1 / prod_{i=1..k} (s - i)`` for integer ``k >= 0``."""
    out = 1.0
    for i in range(1, k + 1):
        out /= s - i
    return out


def explicit_poly_part(gen: Generator, s, u, start, stop, r):
    """Polynomial part of the radial derivatives of the explicit representation.

    ``sum_{k=start}^{stop} ((-1)^{k-start} / (k-start)!) r^{k-start}
    (Gamma(s-k)/Gamma(s)) (-L)^k u`` for scalar ``r >= 0``.
    """
    order = as_order(s)
    if start < 0:
        raise ValueError(f"start index must be nonnegative, got {start}")
    u = gen._check_vector(u)
    if start > stop:
        return np.zeros(gen.dim, dtype=complex)
    power = gen.apply_minus_power(start, u)
    total = np.zeros(gen.dim, dtype=complex)
    coeff = 1.0
    for k in range(start, stop + 1):
        total = total + coeff * _gamma_ratio(order.s, k) * power
        power = -(gen.matrix @ power)
        coeff = coeff * (-r) / (k - start + 1)
    return total


# -- the subordination rule --------------------------------------------------------


def _upper_cutoff(power):
    """``r`` beyond which ``r^power e^-r`` is below ``e^-_KERNEL_DECAY``."""
    r_hi = _KERNEL_DECAY
    if power > 0:
        for _ in range(4):
            r_hi = _KERNEL_DECAY + power * np.log(r_hi)
    return float(r_hi)


def _kernel_depth(gen, y):
    """Depth ``d >= 1`` with ``e^{-c_min/r} <= e^-_KERNEL_DECAY`` for every ``r <= e^-d``.

    ``c_min = y^2 min Re(-lam) / 4`` bounds the semigroup's decay rate at
    ``t = y^2/(4r)``; when it is zero (``y^2`` underflows) nothing cuts the
    window and the depth is infinite.
    """
    c_min = y * y * float((-gen.eigenvalues).real.min()) / 4.0
    return max(np.log(_KERNEL_DECAY / c_min), 1.0) if c_min > 0 else np.inf


def _log_window(alphas, k, depth=np.inf):
    """Window ``[lo, hi]`` in ``x = log r`` for the weights ``F_k(r) r^alpha``.

    Near ``r = 0`` the weight behaves like ``r^{alpha+k+1}``: the left edge
    sits where the smallest such power has fallen to ``e^-_KERNEL_DECAY``, or
    at ``-depth`` (where the semigroup factor has, see :func:`_kernel_depth`)
    when that is nearer or the power is not positive.  On the right
    ``r^alpha e^-r`` (``k = -1``) ends at :func:`_upper_cutoff`, and the Taylor
    tail ``F_k(r) ~ r^k`` (``k >= 0``, needing ``alpha + k < 0``) where
    ``r^{alpha+k}`` has decayed.
    """
    left = np.min(alphas) + k + 1
    lo = min(depth, _KERNEL_DECAY / left) if left > 0 else depth
    top = np.max(alphas)
    hi = np.log(_upper_cutoff(top)) if k < 0 else _KERNEL_DECAY / -(top + k)
    return -float(lo), float(hi)


def _subordinate(gen, lam, rows, alphas, y, quad, name, k=-1, offsets=0.0):
    """``int_0^inf F_k(r) r^{alpha_i} e^{(y^2/(4r)) lam} row_i dr/r`` per mode, for every ``i``.

    ``rows`` holds eigencoordinate rows, one per ``alpha_i`` or a single row
    shared by all; the result stays in eigencoordinates, shape
    ``(len(alphas), dim)``, for the caller to map back with ``V`` once.  The
    trapezoid rule runs on ``x = log r`` over :func:`_log_window`.  Row
    scales ``e^{offsets_i}`` enter the exponent of the weight: at tiny ``y``
    the left window edge sits at ``r ~ y^2``, where ``r^alpha`` alone
    overflows for ``alpha < 0`` although its product with the scale is
    moderate.
    """
    alphas = np.array(alphas, dtype=float, ndmin=1)
    c_val = y * y / 4.0

    def g(x):
        r = np.exp(x)
        expo = np.multiply.outer(x, alphas) + offsets
        weight = np.exp(expo - r[:, None]) if k < 0 else exp_tail(k, r)[:, None] * np.exp(expo)
        states = np.exp(np.multiply.outer(c_val / r, lam))
        # the real factors meet first and the (often complex) rows last, unless
        # one row is shared by several alphas: then it scales the semigroup once
        if len(rows) < len(alphas):
            return weight[:, :, None] * (states * rows)[:, None, :]
        return weight[:, :, None] * states[:, None, :] * rows

    lo, hi = _log_window(alphas, k, _kernel_depth(gen, y))
    h0 = min(0.5, max(hi - lo, 1.0) / max(quad.nodes, 16))
    return trapezoid_refine(g, lo, hi, quad.tol, h0=h0, name=name)


def _semigroup_moments(gen, order, u, y, quad, powers):
    """Moments ``M_b = int r^{s-1+b} e^-r e^{(y^2/(4r))L} u dr`` on a shared rule.

    Returns ``{b: vector}``; the rule is refined, in eigencoordinates, until
    all requested moments are stable to ``quad.tol``, and ``V`` maps the
    finished moments back.
    """
    powers = sorted(set(int(b) for b in powers))
    lam, coords = gen._modes(u)
    alphas = [order.s + b for b in powers]
    stacked = _subordinate(gen, lam, coords[None, :], alphas, y, quad, "subordination moments")
    stacked = stacked @ gen.eigvecs.T
    return {b: stacked[i] for i, b in enumerate(powers)}


def extend_subordination(gen: Generator, s, u, y, quad=None):
    """Evaluate ``U(y)`` by subordination quadrature on the log axis.

    ``y = 0`` returns ``u`` (the continuous boundary value).
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if y < 0:
        raise ValueError(f"extension variable must be nonnegative, got {y}")
    if y == 0:
        return u.copy()
    moments = _semigroup_moments(gen, order, u, y, quad, powers=[0])
    return moments[0] / gamma(order.s)


# -- exact y-derivatives (kernel calculus) -------------------------------------------


class KernelDerivative:
    """Exact expansion of ``d^m/dy^m [y^{2s} e^{-y^2/(4t)}]``.

    Terms are kept as a map ``(z, b) -> q`` meaning ``q y^{2s+z} t^{-b}
    e^{-y^2/(4t)}``; one differentiation maps a term to

        ``(q (2s+z), z-1, b)`` and ``(-q/2, z+1, b+1)``,

    which is the product rule, exactly.  Under the subordination integral each
    ``t^{-b}`` turns into the moment ``M_b`` with prefactor ``4^b y^{z-2b}``.
    """

    def __init__(self, s, m):
        if m < 0:
            raise ValueError(f"derivative order must be nonnegative, got {m}")
        self.s = float(s)
        self.order = int(m)
        terms = {(0, 0): 1.0}
        for _ in range(m):
            new = {}
            for (z, b), q in terms.items():
                exp_y = 2.0 * self.s + z
                if exp_y != 0.0:
                    key = (z - 1, b)
                    new[key] = new.get(key, 0.0) + q * exp_y
                key = (z + 1, b + 1)
                new[key] = new.get(key, 0.0) - 0.5 * q
            terms = {key: q for key, q in new.items() if q != 0.0}
        self.terms = terms

    def moment_powers(self):
        return sorted({b for (_, b) in self.terms})

    def combine(self, y, moments, gamma_s):
        """``d^m U / dy^m`` from the moments ``{b: M_b}`` at this ``y``."""
        total = 0.0
        for (z, b), q in self.terms.items():
            total = total + q * 4.0**b * y ** (z - 2 * b) * moments[b]
        return total / gamma_s


def y_derivatives_upto(gen: Generator, s, u, mmax, y, quad=None):
    """All derivatives ``d^m U/dy^m`` for ``m = 0..mmax`` on one shared rule.

    The kernel moments lose digits as ``y -> 0``: already ``dU/dy`` combines
    ``2s M_0 - 2 M_1``, whose terms cancel to ``O(y^2)``.  Against the
    per-mode Bessel-K closed form on ``laplacian1d:64`` at ``s = 2.7`` the
    first derivative is off by about 2e-6 relative at ``y = 1e-6``, 2e-10 at
    ``1e-4`` and 1e-12 at ``1e-3``.  For small ``y`` use the chain route
    ``dU/dy = (y/2) * radial_power(gen, s, u, 1, y)``, which stays near 1e-14.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    cap = 2 * (order.n + 2)
    if mmax > cap:
        raise ValueError(f"derivative order {mmax} above cap {cap} for s={order.s}")
    if y <= 0:
        raise ValueError(f"derivatives need y > 0, got {y}")
    kds = [KernelDerivative(order.s, m) for m in range(mmax + 1)]
    powers = sorted(set().union(*(kd.moment_powers() for kd in kds)))
    moments = _semigroup_moments(gen, order, u, y, quad, powers)
    gamma_s = gamma(order.s)
    return [kd.combine(y, moments, gamma_s) for kd in kds]


def y_derivative(gen: Generator, s, u, m, y, quad=None):
    """Exact ``m``-th derivative of ``U`` at ``y > 0``."""
    return y_derivatives_upto(gen, s, u, m, y, quad)[m]


# -- semigroup chain calculus ---------------------------------------------------------
#
# A chain maps (p, j) -> coeff, meaning
#
#     coeff * y^p * I_j,   I_j = (1/Gamma(s)) int_0^inf r^{s-1-j} e^-r L^j e^{(y^2/(4r))L} u dr,
#
# and ``U`` itself is {(0, 0): 1}.  Each differential step moves the
# y-derivative onto the semigroup, d/dy I_j = (y/2) I_{j+1}: the radial step
# 2/y d/dy maps I_j to I_{j+1}, and the Bessel step (a/y) d/dy + d^2/dy^2
# keeps p even, so p starts at 0 and never turns negative.


def _chain_add(terms, key, val):
    if val != 0.0:
        terms[key] = terms.get(key, 0.0) + val


def _chain_deriv(chain):
    out = {}
    for (p, j), c in chain.items():
        _chain_add(out, (p - 1, j), c * p)
        _chain_add(out, (p + 1, j + 1), 0.5 * c)
    return out


def _chain_bessel(chain, a):
    out = {}
    for (p, j), c in chain.items():
        _chain_add(out, (p - 2, j), c * p * (a + p - 1.0))
        _chain_add(out, (p, j + 1), c * (a + 2.0 * p + 1.0) / 2.0)
        _chain_add(out, (p + 2, j + 2), 0.25 * c)
    return out


def _eval_chains(gen, order, u, parts, y, quad):
    """``sum_i w_i L^{k_i} chain_i(y)`` for ``parts = [(k_i, w_i, chain_i), ...]``.

    Per mode every chain term is a scalar multiple of ``I_j``, so the terms
    sharing a ``j`` collapse into one factor ``y^{p_j} sum w_i lam^{k_i}
    coeff y^{p - p_j}``, with ``p_j`` the smallest ``p`` paired with ``j``,
    and each distinct ``j`` is one integral, with weight ``r^{s-j} e^-r`` and
    the scale ``y^{p_j}`` folded into its exponent.  All of them run on one
    rule in eigencoordinates, and ``V`` maps the finished sum back once.
    """
    lam, coords = gen._modes(u)
    lowest = {}
    for _, _, chain in parts:
        for p, j in chain:
            lowest[j] = min(p, lowest.get(j, p))
    factors = {}
    for k, w, chain in parts:
        for (p, j), c in chain.items():
            factors[j] = factors.get(j, 0.0) + (w * c * y ** (p - lowest[j])) * lam**k
    js = sorted(factors)
    rows = np.array([factors[j] * lam**j * coords for j in js])
    alphas = order.s - np.array(js, dtype=float)
    offsets = np.log(y) * np.array([lowest[j] for j in js], dtype=float)
    stacked = _subordinate(gen, lam, rows, alphas, y, quad, "semigroup-chain integrals",
                           offsets=offsets)
    return gen.eigvecs @ stacked.sum(axis=0) / gamma(order.s)


def _radial_chain(m):
    """``(2/y d/dy)^m U = I_m``."""
    return {(0, m): 1.0}


def _operator_parts(m, a):
    """Terms ``(m-i, comb(m, i), B^i U)`` of ``(L + B)^m U``, ``B = (a/y) d/dy + d^2/dy^2``."""
    parts = []
    chain = {(0, 0): 1.0}
    for i in range(m + 1):
        parts.append((m - i, float(comb(m, i)), chain))
        chain = _chain_bessel(chain, a)
    return parts


# -- radial powers and the explicit representation ----------------------------------


def _explicit_radial(gen, order, u, m, y, quad):
    """``(2/y d/dy)^m U`` through the representation driven by ``f = (-L)^s u``.

    The polynomial part :func:`explicit_poly_part` plus the Taylor-tail
    integral ``int F_{[s]-m}(r) r^{m-s} e^{(y^2/(4r))L} f dr/r``.
    """
    s = order.s
    lam, coords = gen._modes(u)
    f_coords = np.exp(s * np.log(-lam)) * coords  # f = (-L)^s u, as in Generator.frac_power
    poly = explicit_poly_part(gen, order, u, m, order.n, y * y / 4.0)
    tail = _subordinate(gen, lam, f_coords[None, :], m - s, y, quad, "explicit radial tail",
                        k=order.n - m)
    sign = (-1.0) ** m
    integral = gen.eigvecs @ tail[0]
    return sign * poly + sign * y ** (2.0 * (s - m)) / (4.0 ** (s - m) * gamma(s)) * integral


def radial_power(gen: Generator, s, u, m, y, quad=None, mode="from_u"):
    """``(2/y d/dy)^m U(y)`` for ``0 <= m <= [s] + 1``.

    ``mode='from_u'`` pushes the radial composition under the subordination
    integral, where it becomes the single bare-semigroup integral ``I_m``
    (accurate from tiny to large ``y``); ``mode='from_f'`` uses the
    closed-form representation through ``f = (-L)^s u`` (polynomial part plus
    a Taylor-tail-weighted semigroup integral) and is a small-``y``
    cross-check only: the polynomial part cancels against the integral once
    ``y^2 ||L||`` is large, and about ``10-20 eps ||poly|| / ||result||`` of
    relative accuracy is lost, silently (on a 256-point Laplacian at
    ``s = 2.7``: ~5e-10 at ``y = 0.05``, ~1e-5 at ``y = 0.5``).  The two
    must agree where ``from_f`` is accurate.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if not 0 <= m <= order.n + 1:
        raise ValueError(f"radial power {m} outside 0..{order.n + 1} for s={order.s}")
    if y <= 0:
        raise ValueError(f"radial powers need y > 0, got {y}")
    if mode == "from_u":
        return _eval_chains(gen, order, u, [(0, 1.0, _radial_chain(m))], y, quad)
    if mode == "from_f":
        return _explicit_radial(gen, order, u, m, y, quad)
    raise ValueError(f"unknown mode {mode!r}; use 'from_u' or 'from_f'")


def weighted_extension_derivative(gen: Generator, s, u, m, y, quad=None, form="radial"):
    """The weighted boundary derivative ``y^{1-2 sigma} d/dy G_m U`` at ``y > 0``.

    ``G_m`` is ``(2/y d/dy)^m`` for ``form='radial'`` or the full extension
    operator ``(L + (1-2 sigma)/y d/dy + d^2/dy^2)^m`` for ``form='operator'``.
    These are the left-hand sides of the initial-condition tables: zero limits
    for ``m < [s]`` and the fractional-power trace at ``m = [s]``.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if not 0 <= m <= order.n:
        raise ValueError(f"weighted derivative index {m} outside 0..{order.n}")
    if y <= 0:
        raise ValueError(f"weighted derivatives need y > 0, got {y}")
    weight = y ** (1.0 - 2.0 * order.sigma)
    if form == "radial":
        parts = [(0, 1.0, _chain_deriv(_radial_chain(m)))]
    elif form == "operator":
        parts = [
            (k, w, _chain_deriv(chain))
            for k, w, chain in _operator_parts(m, 1.0 - 2.0 * order.sigma)
        ]
    else:
        raise ValueError(f"unknown form {form!r}; use 'radial' or 'operator'")
    return weight * _eval_chains(gen, order, u, parts, y, quad)


def extension_operator_power(gen: Generator, s, u, m, y, quad=None, a=None):
    """``(L + (a/y) d/dy + d^2/dy^2)^m U(y)`` with ``a = 1 - 2(s - [s])`` by default.

    Expanded binomially over the commuting factors ``L`` and the scalar
    differential part; every term is a semigroup-chain integral, and all of
    them run on one rule with ``L^{m-i}`` applied per mode.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if m < 0:
        raise ValueError(f"operator power must be nonnegative, got {m}")
    if y <= 0:
        raise ValueError(f"operator powers need y > 0, got {y}")
    if a is None:
        a = 1.0 - 2.0 * order.sigma
    return _eval_chains(gen, order, u, _operator_parts(m, a), y, quad)


def extend_explicit(gen: Generator, s, u, y, quad=None):
    """``U(y)`` through the explicit representation driven by ``f = (-L)^s u``.

    The polynomial part ``sum_{k <= [s]} ((-y^2/4)^k / k!) (Gamma(s-k)/Gamma(s))
    (-L)^k u`` plus the Taylor-tail integral over ``r = y^2/(4t)``
    (``radial_power(..., mode='from_f')`` at ``m = 0``).  In ``log t`` the
    original ``t``-line is the same integrand mirrored, ``log t = log(y^2/4) -
    log r``, so it is not evaluated separately.  A small-``y`` cross-check of
    :func:`extend_subordination`: the polynomial part cancels against the
    integral as ``y^2 ||L||`` grows, and about ``10-20 eps`` times its size
    relative to ``U`` is lost, silently.  ``y = 0`` returns ``u``: every
    other term carries a positive power of ``y``.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if y < 0:
        raise ValueError(f"extension variable must be nonnegative, got {y}")
    if y == 0:
        return u.copy()
    return _explicit_radial(gen, order, u, 0, y, quad)


# -- identities and residuals --------------------------------------------------------


def normalization_check(s, y, quad=None):
    """Quadrature value of ``(1/(4^s Gamma(s))) int y^{2s} e^{-y^2/(4t)} t^{-1-s} dt``.

    Evaluated in the ``t``-form (the ``r``-form reduces to the Laguerre weight
    normalization and would be vacuous) on the mirror ``log(y^2/4) - x`` of
    the ``r``-window of ``r^s e^-r``; the exact value is 1 for every
    ``(s, y)``.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    if y <= 0:
        raise ValueError(f"normalization check needs y > 0, got {y}")
    s_val = order.s
    c = y * y / 4.0

    def g(x):
        return np.exp(-c * np.exp(-x) - s_val * x)

    r_lo, r_hi = _log_window(s_val, -1)
    lo, hi = np.log(c) - r_hi, np.log(c) - r_lo
    h0 = min(0.25, max(hi - lo, 1.0) / max(quad.nodes, 16))
    integral = trapezoid_refine(g, lo, hi, quad.tol, h0=h0, name="normalization")
    return float(y ** (2.0 * s_val) / (4.0**s_val * gamma(s_val)) * integral)


def pde_residual(gen: Generator, s, u, y, quad=None, kind="second"):
    """Relative residual of the extension ODEs at ``y > 0``.

    ``kind='second'``: ``||L U + ((1-2s)/y) U' + U''|| / ||u||``.
    ``kind='higher'``: norm of the ``([s]+1)``-fold extension operator with
    coefficient ``(1-2(s-[s]))/y`` applied to ``U``, relative to ``||u||``.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    scale = float(np.linalg.norm(u))
    if scale == 0.0:
        return 0.0
    if kind == "second":
        derivs = y_derivatives_upto(gen, order, u, 2, y, quad)
        a = 1.0 - 2.0 * order.s
        res = gen.apply(derivs[0]) + (a / y) * derivs[1] + derivs[2]
        return float(np.linalg.norm(res)) / scale
    if kind != "higher":
        raise ValueError(f"unknown residual kind {kind!r}; use 'second' or 'higher'")
    res = extension_operator_power(gen, order, u, order.n + 1, y, quad)
    return float(np.linalg.norm(res)) / scale


# -- profiles ---------------------------------------------------------------------


@dataclass
class ExtensionProfile:
    """Values and exact derivatives of ``U`` on an increasing positive grid."""

    ygrid: np.ndarray
    values: list
    derivs: list
    order: FracOrder
    source_u: np.ndarray

    def to_csv(self, target):
        """Write ``y, re(U_1), im(U_1), ..., re(dU_1), im(dU_1), ...`` rows.

        The first line names the order and dimension.  Derivative
        columns are ``re_U{i}`` for order 0, ``re_dU{i}`` for order 1 and
        ``re_d{m}U{i}`` beyond.
        """
        own = isinstance(target, (str, os.PathLike))
        handle = open(target, "w", newline="", encoding="utf-8") if own else target
        try:
            dim = self.source_u.size
            nder = len(self.derivs[0]) if self.derivs else 1
            handle.write(f"# s={self.order.s}, dim={dim}\n")
            writer = csv.writer(handle)
            header = ["y"]
            for m in range(nder):
                tag = "U" if m == 0 else ("dU" if m == 1 else f"d{m}U")
                for i in range(1, dim + 1):
                    header += [f"re_{tag}{i}", f"im_{tag}{i}"]
            writer.writerow(header)
            for j, y in enumerate(self.ygrid):
                row = [f"{y:.17g}"]
                for m in range(nder):
                    vec = self.derivs[j][m]
                    for z in vec:
                        row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
                writer.writerow(row)
        finally:
            if own:
                handle.close()


def _worker_count(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("FRACEXT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def build_profile(gen: Generator, s, u, ygrid, quad=None, max_deriv=None, workers=None):
    """Evaluate ``U`` and its derivatives on a grid, optionally in parallel.

    Grid entries are independent, so the result is identical for any worker
    count; ``FRACEXT_THREADS`` caps the pool when ``workers`` is not given.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    ygrid = np.asarray(ygrid, dtype=float)
    if ygrid.ndim != 1 or ygrid.size == 0:
        raise ValueError("ygrid must be a nonempty 1-d array")
    if np.any(ygrid <= 0) or np.any(np.diff(ygrid) <= 0):
        raise ValueError("ygrid must be strictly increasing and positive")
    if max_deriv is None:
        max_deriv = 2 * (order.n + 1)

    def at(y):
        return y_derivatives_upto(gen, order, u, max_deriv, float(y), quad)

    count = _worker_count(workers)
    if count == 1:
        all_derivs = [at(y) for y in ygrid]
    else:
        with ThreadPoolExecutor(max_workers=count) as pool:
            all_derivs = list(pool.map(at, ygrid))
    values = [d[0] for d in all_derivs]
    return ExtensionProfile(
        ygrid=ygrid, values=values, derivs=all_derivs, order=order, source_u=u
    )
