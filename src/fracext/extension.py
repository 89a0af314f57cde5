"""The extension profile ``U(y)`` and its exact ``y``-derivatives.

``U(y)`` averages the semigroup against a stable-subordinator-type kernel,

    U(y) = (1/Gamma(s)) int_0^inf e^-r r^{s-1} e^{(y^2/(4r)) L} u dr,

and solves the degenerate second-order ODE ``L U + ((1-2s)/y) U' + U'' = 0``
together with its higher-order companion.  This module evaluates ``U``, its
derivatives (by exact symbolic differentiation of the kernel under the
integral sign), the explicit representation through ``f = (-L)^s u``, the
radial powers ``(2/y d/dy)^m U``, and the ODE residuals used to validate
everything.

Every integral here is a trapezoid rule on the log axis: after ``r = e^v``
the integrand decays double-exponentially on the left (through the semigroup
factor ``e^{-c/r}``) and at least exponentially on the right, so a ~60-node
rule already reaches machine precision.  (A Gauss-Laguerre rule with weight
``r^{s-1} e^-r`` would converge poorly: the factor ``e^{-c/r}`` is not
polynomial-like near ``r = 0``.)

Every integrand is linear in ``u`` and ``L = V diag(lam) V^{-1}`` is
factored once, so the integrands run per mode: on the eigencoordinates
``c = V^{-1} u`` each node costs ``O(dim)`` (``e^{t lam} c``, in real
arithmetic when the spectrum is real), the refinement driver sums
eigencoordinate rows, and ``V`` is applied once to each finished integral.

Two symbolic calculi drive the derivative machinery:

* :class:`KernelDerivative` differentiates the kernel ``y^{2s} e^{-y^2/(4t)}``
  itself, which evaluates plain derivatives ``d^m U/dy^m`` through weighted
  moments of the semigroup.
* For compositions with negative ``y``-powers (radial powers, weighted
  boundary derivatives, the higher extension operator) the moments nearly
  cancel and ``y^{-p}`` amplifies the rounding catastrophically as ``y -> 0``.
  Those quantities are instead reduced, exactly, to Taylor-remainder chains:
  with ``R_j(t) = e^{tL}u - sum_{k<=j} (tL)^k u / k!`` one has
  ``dR_j/dt = L R_{j-1}``, so every composition becomes an exact polynomial
  plus integrals ``int r^{s-1-q} e^-r L^j R_{[s]-j}(y^2/(4r)) dr`` whose
  integrands are small exactly where the quantity is small.  Per mode the
  remainder is the scalar ``e^z - sum_{k<=j} z^k/k!`` at ``z = t lam`` (a
  phi-function remainder), so no power ``L^k u`` is ever formed.
"""

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, factorial

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

_TAIL_SWITCH = 0.5
_TAIL_TERMS = 26  # where |z| <= 1 the first omitted tail term is below 1/27! of the first
_KERNEL_DECAY = 55.0  # windows end where the semigroup factor is below e^-55 ~ 1e-24


# -- scalar helpers --------------------------------------------------------------


def _taylor_remainders(z, top, bottom, series):
    """``{i: e^z - sum_{k<=i} z^k / k!}`` for ``bottom <= i <= top``, elementwise.

    ``i = -1`` is ``e^z`` itself.  ``series`` is a boolean mask over the
    leading axes of ``z``.  Where it holds (callers set it only where
    ``|z| <= 1``) ``R_top`` is summed from its tail ``sum_{k>top} z^k / k!``,
    ``_TAIL_TERMS`` terms long, because the direct difference would cancel
    catastrophically, and each lower remainder follows by
    ``R_{i-1} = R_i + z^i / i!``, which adds a term at least as large.
    Elsewhere the subtracted polynomial is comparable to ``e^z`` and each
    remainder is the direct difference.
    """
    if top < 0:
        return {-1: np.exp(z)}
    out = {}
    for mask, tail in ((~series, False), (series, True)):
        if not np.any(mask):
            continue
        whole = bool(np.all(mask))
        zb = z if whole else z[mask]
        terms = [1.0]  # z^k / k!
        for k in range(1, top + 1):
            terms.append(terms[-1] * zb / k)
        vals = {}
        if tail:
            # R_top = (z^top/top!) (z/(top+1)) (1 + z/(top+2) (1 + ...)), by Horner in place
            rem = np.ones_like(zb)
            for k in range(top + _TAIL_TERMS, top + 1, -1):
                rem *= zb
                rem *= 1.0 / k
                rem += 1.0
            rem *= zb
            rem *= terms[top] / (top + 1)
            for i in range(top, bottom - 1, -1):
                vals[i] = rem
                if i > bottom:
                    rem = rem + terms[i]
        else:
            rem = np.exp(zb)
            for i in range(-1, top + 1):
                if i >= 0:
                    rem = rem - terms[i]
                if i >= bottom:
                    vals[i] = rem
        for i, val in vals.items():
            if whole:
                out[i] = val
            else:
                out.setdefault(i, np.empty_like(z))[mask] = val
    return out


def exp_tail(n, r):
    """``F_n(r) = e^-r - sum_{k<=n} (-r)^k / k!``, the Taylor tail of ``e^-r``.

    Vectorized in ``r``; ``n = -1`` returns ``e^-r`` (empty partial sum).  For
    ``r < 0.5`` the value is assembled from the tail series (terms ``k = n+1``
    onward) because the direct difference cancels catastrophically.
    """
    if n < -1:
        raise ValueError(f"tail index must be >= -1, got {n}")
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = _taylor_remainders(-r, n, n, r < _TAIL_SWITCH)[n]
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
    """``r`` beyond which ``r^power e^-r`` is below ~1e-24 relative."""
    r_hi = 55.0
    if power > 0:
        for _ in range(4):
            r_hi = 55.0 + power * np.log(r_hi)
    return float(r_hi)


def _kernel_depth(gen, y):
    """Depth ``d >= 1`` with ``e^{-c_min/r} <= e^-_KERNEL_DECAY`` for every ``r <= e^-d``.

    ``c_min = y^2 min Re(-lam) / 4`` bounds the semigroup's decay rate at
    ``t = y^2/(4r)``; when it is zero (``y^2`` underflows) nothing cuts the
    window and the depth is infinite.
    """
    c_min = y * y * float((-gen.eigenvalues).real.min()) / 4.0
    return max(np.log(_KERNEL_DECAY / c_min), 1.0) if c_min > 0 else np.inf


def _modes(gen, u):
    """Eigenvalues ``lam`` and eigencoordinates ``c = V^{-1} u``.

    Each comes back real when it has no imaginary part (every Hermitian
    ``L`` has a real spectrum), so the per-mode integrands run in real
    arithmetic wherever they can.
    """
    lam = gen.eigenvalues
    coords = gen.eigvecs_inv @ u
    return (lam if lam.imag.any() else lam.real), (coords if coords.imag.any() else coords.real)


def _semigroup_modes(ts, lam, coords):
    """``e^{t_j L} u`` in eigencoordinates: ``e^{t_j lam} c``, shape ``(len(ts), dim)``."""
    return np.exp(np.multiply.outer(ts, lam)) * coords


def _moment_window(gen, order, powers, y):
    """Log-axis window outside which every moment integrand is below ~1e-22."""
    hi = np.log(_upper_cutoff(order.s + max(powers)))
    lo = min(55.0 / (order.s + min(powers)), _kernel_depth(gen, y))
    return -float(lo), float(hi)


def _semigroup_moments(gen, order, u, y, quad, powers):
    """Moments ``M_b = int r^{s-1+b} e^-r e^{(y^2/(4r))L} u dr`` on a shared rule.

    Returns ``{b: vector}``.  The left window cutoff exploits the semigroup
    decay ``e^{-a_min y^2/(4r)}``; the rule is refined, in eigencoordinates,
    until all requested moments are stable to ``quad.tol``, and ``V`` maps
    the finished moments back.
    """
    powers = sorted(set(int(b) for b in powers))
    lo, hi = _moment_window(gen, order, powers, y)
    exps = np.array([order.s + b for b in powers])
    lam, coords = _modes(gen, u)

    def g(x):
        r = np.exp(x)
        states = _semigroup_modes(y * y / (4.0 * r), lam, coords)
        weight = np.exp(-r[:, None] + np.multiply.outer(x, exps))
        return weight[:, :, None] * states[:, None, :]

    h0 = min(0.5, max(hi - lo, 1.0) / max(quad.nodes, 16))
    stacked = trapezoid_refine(g, lo, hi, quad.tol, h0=h0, name="subordination moments")
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
    """All derivatives ``d^m U/dy^m`` for ``m = 0..mmax`` on one shared rule."""
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


# -- Taylor-remainder chain calculus -------------------------------------------------
#
# A quantity is a pair (poly, chain).  ``poly`` is a list of (vector, power)
# meaning ``sum vec * y^power`` with exact coefficient vectors.  ``chain`` maps
# (p, q, j) -> coeff, meaning
#
#     coeff * y^p * (1/Gamma(s)) int_0^inf r^{s-1-q} e^-r L^j R_{idx}(y^2/(4r)) dr
#
# with ``idx = max([s]-j, -1)`` and ``R_idx`` the Taylor remainder of the
# semigroup (``R_{-1}`` is the semigroup itself).  All three differential
# steps below preserve ``q - j``, so every generated integrand behaves like
# ``r^{sigma-1}`` at the origin: absolutely integrable, no cancellation.


def _quantity_base(gen, order, u):
    poly = []
    lp = u
    for k in range(order.n + 1):
        poly.append((_gamma_ratio(order.s, k) / (factorial(k) * 4.0**k) * lp, 2 * k))
        lp = gen.matrix @ lp
    return poly, {(0, 0, 0): 1.0}


def _chain_add(terms, key, val):
    if val != 0.0:
        terms[key] = terms.get(key, 0.0) + val


def _chain_deriv(chain):
    out = {}
    for (p, q, j), c in chain.items():
        _chain_add(out, (p - 1, q, j), c * p)
        _chain_add(out, (p + 1, q + 1, j + 1), 0.5 * c)
    return out


def _chain_radial(chain):
    out = {}
    for (p, q, j), c in chain.items():
        _chain_add(out, (p - 2, q, j), 2.0 * c * p)
        _chain_add(out, (p, q + 1, j + 1), c)
    return out


def _chain_bessel(chain, a):
    out = {}
    for (p, q, j), c in chain.items():
        _chain_add(out, (p - 2, q, j), c * p * (a + p - 1.0))
        _chain_add(out, (p, q + 1, j + 1), c * (a + 2.0 * p + 1.0) / 2.0)
        _chain_add(out, (p + 2, q + 2, j + 2), 0.25 * c)
    return out


def _poly_deriv(poly):
    return [(k * vec, k - 1) for vec, k in poly if k != 0]


def _poly_radial(poly):
    return [(2.0 * k * vec, k - 2) for vec, k in poly if k != 0]


def _poly_bessel(poly, a):
    return [(k * (a + k - 1.0) * vec, k - 2) for vec, k in poly if k != 0]


def _eval_poly(poly, y):
    total = 0.0
    for vec, k in poly:
        total = total + vec * y**k
    return total


def _remainder_states(z, lam, coords, n, js, series):
    """``{j: L^j R_{max(n-j, -1)}(t)}`` in eigencoordinates, at ``z = outer(t, lam)``.

    ``R_idx(t) = e^{tL}u - sum_{k<=idx} (tL)^k u/k!``.  Per mode this is the
    scalar remainder ``e^z - sum_{k<=idx} z^k/k!`` times ``lam^j c``, so no
    power ``L^k u`` is formed.  ``series`` marks the times with
    ``t ||L|| <= 1``: there every ``|z| <= 1`` and the remainders are summed
    from their tail series (the direct difference would cancel); otherwise
    the subtracted polynomial is comparable to the semigroup and the
    difference is safe.
    """
    idx = {j: max(n - j, -1) for j in js}
    rems = _taylor_remainders(z, max(idx.values()), min(idx.values()), series)
    return {j: rems[idx[j]] * (lam**j * coords) for j in js}


def _chain_eval_group(gen, order, lam, coords, keys, y, quad, lo, hi, name):
    s_val, n = order.s, order.n
    js = sorted({j for (_, _, j) in keys})
    c_val = y * y / 4.0

    def g(x):
        r = np.exp(x)
        ts = c_val / r
        states = _remainder_states(
            np.multiply.outer(ts, lam), lam, coords, n, js, ts * gen.norm2 <= 1.0
        )
        rows = np.empty((x.size, len(keys), lam.size), dtype=np.result_type(lam, coords))
        for i, (_, q, j) in enumerate(keys):
            np.multiply(np.exp((s_val - q) * x - r)[:, None], states[j], out=rows[:, i])
        return rows

    h0 = min(0.5, max(hi - lo, 1.0) / max(quad.nodes, 16))
    return trapezoid_refine(g, lo, hi, quad.tol, h0=h0, name=name)


def _chain_eval(gen, order, u, chain, y, quad):
    """Evaluate the integral part of a quantity at ``y > 0``.

    Terms with ``j <= [s]`` carry polynomially growing Taylor remainders and
    exponentially decaying weights: their window extends to where the combined
    ``e^{sigma x}`` envelope dies.  Terms with ``j > [s]`` ride the bare
    semigroup, whose ``e^{-c_min/r}`` decay truncates the window much earlier
    but whose weight grows toward the origin; mixing the two groups on one
    window would pair overflowing weights with underflowing states, so each
    group is integrated on its own.  Both groups run in eigencoordinates and
    ``V`` maps their combined sum back once.
    """
    if not chain:
        return np.zeros(gen.dim, dtype=complex)
    s_val, n, sig = order.s, order.n, order.sigma
    lam, coords = _modes(gen, u)
    c_val = y * y / 4.0
    hi = np.log(_upper_cutoff(s_val))
    lo_short = -_kernel_depth(gen, y)
    # Window for the Taylor-remainder terms: deep enough that the e^{sigma x}
    # envelope (times the polynomial prefactors) is below ~1e-24, but capped
    # so t^n = (c e^{-x})^n stays representable in double precision.
    margin = n * np.log(2.0 + gen.norm2) + max(0.0, n * np.log(c_val))
    depth = (55.0 + margin) / sig
    depth = min(depth, max(575.0 / max(n, 1) - np.log(c_val), 5.0))
    lo_long = min(-depth, lo_short)
    total = 0.0
    for is_short in (False, True):
        keys = sorted(
            key for key in chain if (key[2] > n) == is_short
        )
        if not keys:
            continue
        lo = lo_short if is_short else lo_long
        stacked = _chain_eval_group(
            gen, order, lam, coords, keys, y, quad, lo, hi, "remainder-chain integrals"
        )
        for i, (p, q, j) in enumerate(keys):
            total = total + chain[(p, q, j)] * y**p * stacked[i]
    return gen.eigvecs @ total / gamma(s_val)


def _eval_quantity(gen, order, u, poly, chain, y, quad):
    return _eval_poly(poly, y) + _chain_eval(gen, order, u, chain, y, quad)


# -- radial powers and the explicit representation ----------------------------------


def _explicit_radial(gen, order, u, m, y, quad):
    """``(2/y d/dy)^m U`` through the representation driven by ``f = (-L)^s u``."""
    s, n = order.s, order.n
    sig = order.sigma
    lam, coords = _modes(gen, u)
    f_coords = np.exp(s * np.log(-lam)) * coords  # f = (-L)^s u, as in Generator.frac_power
    poly = explicit_poly_part(gen, order, u, m, n, y * y / 4.0)
    tail_index = n - m

    def g(x):
        r = np.exp(x)
        states = _semigroup_modes(y * y / (4.0 * r), lam, f_coords)
        weight = exp_tail(tail_index, r) * np.exp(-(s - m) * x)
        return weight[:, None] * states

    if tail_index >= 0:
        hi = 52.0 / sig
    else:
        hi = float(np.log(60.0))
    lo = -min(52.0 / (1.0 - sig), _kernel_depth(gen, y))
    h0 = min(0.5, max(hi - lo, 1.0) / max(quad.nodes, 16))
    integral = gen.eigvecs @ trapezoid_refine(
        g, lo, hi, quad.tol, h0=h0, name="explicit radial tail"
    )
    sign = (-1.0) ** m
    return sign * poly + sign * y ** (2.0 * (s - m)) / (4.0 ** (s - m) * gamma(s)) * integral


def radial_power(gen: Generator, s, u, m, y, quad=None, mode="from_u"):
    """``(2/y d/dy)^m U(y)`` for ``0 <= m <= [s] + 1``.

    ``mode='from_u'`` pushes the radial composition under the subordination
    integral (Taylor-remainder chain), which is exact and stable down to tiny
    ``y``; ``mode='from_f'`` uses the closed-form representation through
    ``f = (-L)^s u`` (polynomial part plus a Taylor-tail-weighted semigroup
    integral).  The two must agree.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if not 0 <= m <= order.n + 1:
        raise ValueError(f"radial power {m} outside 0..{order.n + 1} for s={order.s}")
    if y <= 0:
        raise ValueError(f"radial powers need y > 0, got {y}")
    if mode == "from_u":
        poly, chain = _quantity_base(gen, order, u)
        for _ in range(m):
            poly, chain = _poly_radial(poly), _chain_radial(chain)
        return _eval_quantity(gen, order, u, poly, chain, y, quad)
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
        poly, chain = _quantity_base(gen, order, u)
        for _ in range(m):
            poly, chain = _poly_radial(poly), _chain_radial(chain)
        poly, chain = _poly_deriv(poly), _chain_deriv(chain)
        return weight * _eval_quantity(gen, order, u, poly, chain, y, quad)
    if form != "operator":
        raise ValueError(f"unknown form {form!r}; use 'radial' or 'operator'")
    a = 1.0 - 2.0 * order.sigma
    total = 0.0
    poly, chain = _quantity_base(gen, order, u)
    for i in range(m + 1):
        dpoly, dchain = _poly_deriv(poly), _chain_deriv(chain)
        part = _eval_quantity(gen, order, u, dpoly, dchain, y, quad)
        for _ in range(m - i):
            part = gen.matrix @ part
        total = total + comb(m, i) * part
        if i < m:
            poly, chain = _poly_bessel(poly, a), _chain_bessel(chain, a)
    return weight * total


def extension_operator_power(gen: Generator, s, u, m, y, quad=None, a=None):
    """``(L + (a/y) d/dy + d^2/dy^2)^m U(y)`` with ``a = 1 - 2(s - [s])`` by default.

    Expanded binomially over the commuting factors ``L`` and the scalar
    differential part; the scalar parts are evaluated through the
    Taylor-remainder chain.
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
    total = 0.0
    poly, chain = _quantity_base(gen, order, u)
    for i in range(m + 1):
        part = _eval_quantity(gen, order, u, poly, chain, y, quad)
        for _ in range(m - i):
            part = gen.matrix @ part
        total = total + comb(m, i) * part
        if i < m:
            poly, chain = _poly_bessel(poly, a), _chain_bessel(chain, a)
    return total


def extend_explicit(gen: Generator, s, u, y, quad=None, form="r"):
    """``U(y)`` through the explicit representation driven by ``f = (-L)^s u``.

    ``form='r'`` evaluates the ``r = y^2/(4t)``-substituted line (the default
    and the accurate one); ``form='t'`` evaluates the original ``t``-line and
    exists as a cross-check of the substitution.  ``y = 0`` returns ``u``:
    every other term carries a positive power of ``y``.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if y < 0:
        raise ValueError(f"extension variable must be nonnegative, got {y}")
    if y == 0:
        return u.copy()
    if form == "r":
        return _explicit_radial(gen, order, u, 0, y, quad)
    if form != "t":
        raise ValueError(f"unknown form {form!r}; use 'r' or 't'")
    s_val, n = order.s, order.n
    sig = order.sigma
    lam, coords = _modes(gen, u)
    f_coords = np.exp(s_val * np.log(-lam)) * coords
    poly = explicit_poly_part(gen, order, u, 0, n, y * y / 4.0)
    c = y * y / 4.0
    a_min = float((-gen.eigenvalues).real.min())

    def g(x):
        t = np.exp(x)
        states = _semigroup_modes(t, lam, f_coords)
        weight = exp_tail(n, c / t) * np.exp(s_val * x)
        return weight[:, None] * states

    hi = np.log(60.0 / a_min) + 1.0
    lo = -(54.0 + n * abs(np.log(c))) / sig
    h0 = min(0.5, max(hi - lo, 1.0) / max(quad.nodes, 16))
    integral = gen.eigvecs @ trapezoid_refine(
        g, lo, hi, quad.tol, h0=h0, name="explicit t-form tail"
    )
    return poly + integral / gamma(s_val)


# -- identities and residuals --------------------------------------------------------


def normalization_check(s, y, quad=None):
    """Quadrature value of ``(1/(4^s Gamma(s))) int y^{2s} e^{-y^2/(4t)} t^{-1-s} dt``.

    Evaluated in the ``t``-form (the ``r``-form reduces to the Laguerre weight
    normalization and would be vacuous); the exact value is 1 for every
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

    lo = np.log(c / 55.0) - 1.0
    hi = 56.0 / s_val + abs(np.log(c)) + 2.0
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
