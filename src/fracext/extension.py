"""The extension profile ``U(y)`` and its exact ``y``-derivatives.

``U(y)`` averages the semigroup against a stable-subordinator-type kernel,

    U(y) = (1/Gamma(s)) int_0^inf e^-r r^{s-1} e^{(y^2/(4r)) L} u dr,

and solves the degenerate second-order ODE ``L U + ((1-2s)/y) U' + U'' = 0``
together with its higher-order companion.  This module evaluates ``U``, its
plain derivatives ``d^m U/dy^m``, the radial powers ``(2/y d/dy)^m U``, the
weighted boundary derivatives and the powers of the extension operator, the
explicit representation through ``f = (-L)^s u``, and the ODE residuals used
to validate everything.

One calculus, the semigroup chain, moves every ``y``-derivative under the
integral sign.  With ``d/dt e^{tL} = L e^{tL}`` each differential step maps
``y^p I_j`` to terms ``y^{p'} I_{j'}`` with ``p' >= 0``, where

    I_j = (1/Gamma(s)) int_0^inf r^{s-1-j} e^-r L^j e^{(y^2/(4r)) L} u dr

integrates the bare semigroup and ``U = I_0``.  So no negative power of ``y``
and no subtracted Taylor polynomial appears, and the integrals are accurate
at every ``y``.  (Splitting off the Taylor polynomial of the semigroup, as an
exact part plus remainder integrals, cancels catastrophically once
``y^2 ||L||`` is large.)

Every integral here is one subordination integral

    int_0^inf F_k(r) r^alpha e^{(y^2/(4r)) L} (.) dr/r,

with ``F_-1(r) = e^-r`` or, for ``k >= 0``, the Taylor tail :func:`exp_tail`
of ``e^-r``, and one private integrator, :func:`_subordinate`, evaluates all of
them by the trapezoid rule on the log axis.  The integrand decays
double-exponentially as ``r -> 0`` (through the semigroup factor
``e^{-c/r}``) and at least exponentially as ``r -> inf``, so ~60 nodes already
reach machine precision.  One rule, :func:`_log_window`, reads every window
off the weight's envelope (``r^{alpha+k+1}`` at ``0``, ``r^alpha e^-r`` or
``r^{alpha+k}`` at infinity) and the semigroup's decay, with the single
constant ``_KERNEL_DECAY``.

The semigroup factor depends on ``r`` and ``y`` only through
``tau = log(y^2/(4r))``, the log of the semigroup time.  So one table
``exp(e^tau lam)`` on a ``tau``-lattice serves every ``y`` of a call; the rule
for each ``y`` is the trapezoid rule on that lattice shifted by
``log(y^2/4)``, which keeps its geometric convergence (Trefethen & Weideman,
"The exponentially convergent trapezoidal rule", SIAM Rev. 56, 2014).  Each
refinement level reduces the weights of every ``y`` and ``alpha`` against
the table in one matrix product, each ``y`` stops refining on its own, and
each mode leaves the table once its changes can no longer matter.
Every public derivative function accepts a scalar ``y`` or a 1-d array of
them, so a schedule or a profile grid is one call on one table.

Every integrand is linear in ``u`` and ``L = V diag(lam) V^{-1}`` is factored
once, so the integrals run per mode: on the eigencoordinates ``c = V^{-1} u``
(in real arithmetic when the spectrum is real), with ``V`` applied once to
each finished integral.  Integrals over the original ``t = y^2/(4r)`` line
need no rule of their own: in ``log t`` that line is the ``r``-line mirrored,
so its trapezoid sums the same integrand at mirrored nodes.
"""

import os
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.special import gamma

from .fracpow import FracOrder, as_order
from .operators import Generator
from .quadrature import (
    _KERNEL_DECAY,
    _TAIL_TERMS,
    _TRAPEZOID_LEVELS,
    QuadratureSpec,
    _refine_target,
    _roundoff_floor,
    refine,
    trapezoid_lattice,
    trapezoid_refine,
)

__all__ = [
    "exp_tail",
    "explicit_poly_part",
    "extend_subordination",
    "extend_explicit",
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

# Semigroup factors below e^-600 ~ 3e-261 are set to zero instead of evaluated: they
# move no sum by more than e^-600 times its L1 mass, far below the eps floor of the
# stopping rule, and their exponentials and products with the weights would run in
# the subnormal range, where the arithmetic is several times slower.
_FACTOR_FLOOR = -600.0
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))  # ~709.78
_MODE_SETTLED = 1e-3  # a mode stops refining once its changes are below this share of the target


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
        term = np.ones_like(z)  # z^k / k!, up to the last subtracted term only
        direct = out[~near] - term
        for k in range(1, n + 1):
            term = term * z / k
            direct = direct - term
        out[~near] = direct
    return out[0] if scalar else out


def _exp_tail_log(k, x):
    """``F_k(e^x)``, with ``x`` clipped at ``log(float max)`` so that ``e^x`` cannot overflow.

    Only ``k = 0`` windows reach past the clip (:func:`_check_tail_reach`
    refuses the others), and there ``F_0(r) = e^-r - 1`` is ``-1`` exactly.
    """
    return exp_tail(k, np.exp(np.minimum(x, _LOG_FLOAT_MAX)))


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


def _check_tail_reach(k, hi, steps, nodes, sigma):
    """Refuse a Taylor-tail window up to ``r = e^hi`` that ``F_k(r) ~ r^k`` cannot span.

    A Taylor-tail window ends at ``hi = _KERNEL_DECAY / sigma``
    (:func:`_log_window`), so it grows without bound as ``sigma = s - [s]``
    nears 0.  Beyond ``k hi = log(float max)`` the weight is ``inf``; and a
    first level of more ``steps`` than ``nodes * 2^(_TRAPEZOID_LEVELS - 1)``,
    the finest level a call may reach, would lay gigabytes of nodes (at
    ``k = 0`` the weight never overflows).
    """
    if k * hi > _LOG_FLOAT_MAX or steps > nodes * 2 ** (_TRAPEZOID_LEVELS - 1):
        raise ValueError(
            f"Taylor-tail weight F_{k}(r) cannot be integrated on its window up to r = e^{hi:.4g}: "
            f"sigma = s - [s] = {sigma:.3g} is too close to 0 for this representation"
        )


def _subordinate(gen, lam, rows, alphas, ys, quad, name, k=-1, offsets=0.0):
    """``sum_i int F_k(r) r^{alpha_i} e^{(y^2/(4r)) lam} rows[y, o, i] dr/r`` per mode.

    ``rows`` holds eigencoordinate rows, shape ``(len(ys), outputs,
    len(alphas), dim)``; the result, shape ``(len(ys), outputs, dim)``, stays
    in eigencoordinates for the caller to map back with ``V`` once.  The
    semigroup table ``exp(e^tau lam)`` on the lattice ``tau = log(y^2/(4r))``
    serves every ``y``: the lattice covers the union of the windows
    :func:`_log_window` gives each ``y`` (mapped to ``tau``) at the finest of
    their first steps, and each ``y`` weights only the nodes inside its own
    window.  Per level one matrix product reduces the weights of every open
    ``(y, alpha)`` against the table's new nodes, and one more their L1 mass;
    each ``y`` passes the stopping rule of :func:`refine` on its own
    ``(outputs, dim)`` block.  From the third level on the table holds only
    the modes that have not settled (:func:`_settled`): the few slowly
    converging modes of a non-normal complex spectrum no longer pull every
    mode through the finest levels, so one level more or less costs a few
    columns instead of doubling the call.  Scales ``e^{offsets[y, i]}``
    enter the exponent of the weight: at tiny ``y`` the left window edge sits
    at ``r ~ y^2``, where ``r^alpha`` alone overflows for ``alpha < 0``
    although its product with the scale is moderate.
    """
    alphas = np.array(alphas, dtype=float, ndmin=1)
    offsets = np.broadcast_to(offsets, (ys.size, alphas.size))
    log_c = 2.0 * np.log(ys) - np.log(4.0)  # log(y^2/4), finite where y^2 underflows
    lo, hi = np.array([_log_window(alphas, k, _kernel_depth(gen, y)) for y in ys]).T
    step = np.min(np.minimum(0.5, np.maximum(hi - lo, 1.0) / max(quad.nodes, 16)))
    t_lo, t_hi = log_c - hi, log_c - lo
    if k >= 0:
        steps = (t_hi.max() - t_lo.min()) / step
        _check_tail_reach(k, hi.max(), steps, quad.nodes, -(alphas.max() + k))
    sizes = np.abs(rows).sum(axis=1)  # the mass of every output of a y counts towards its block

    def levels():
        raw = np.zeros((ys.size * alphas.size, lam.size), dtype=lam.dtype)  # one row per (y, alpha)
        raw_mass = np.zeros(raw.shape)
        open_ = np.ones(ys.size, dtype=bool)
        live = np.ones(lam.size, dtype=bool)  # the modes still in the table
        last = None  # no mode can settle on the first level: there is no change yet
        for taus, weights in trapezoid_lattice(t_lo.min(), t_hi.max(), step, name):
            keep = (taus >= t_lo[open_].min()) & (taus <= t_hi[open_].max())
            taus, weights = taus[keep], weights[keep]
            inside = (taus >= t_lo[open_, None]) & (taus <= t_hi[open_, None])
            x = np.clip(log_c[open_, None] - taus, lo[open_, None], hi[open_, None])[:, None, :]
            expo = alphas[:, None] * x + offsets[open_, :, None]
            weight = np.exp(expo - np.exp(x)) if k < 0 else _exp_tail_log(k, x) * np.exp(expo)
            weight = np.where(inside[:, None, :], weight * weights, 0.0).reshape(-1, taus.size)
            arg = np.multiply.outer(np.exp(taus), lam[live])
            table = np.exp(arg, out=np.zeros_like(arg), where=arg.real > _FACTOR_FLOOR)
            if np.iscomplexobj(table):  # two real products instead of one complex one
                new = (weight @ table.view(float)).view(table.dtype)
                new_mass = np.abs(weight) @ np.abs(table)
            else:
                new = weight @ table
                new_mass = new if k < 0 else np.abs(weight) @ table  # e^-r weights are positive
            at = np.ix_(np.repeat(open_, alphas.size), live)
            raw[at] = 0.5 * raw[at] + new
            raw_mass[at] = 0.5 * raw_mass[at] + new_mass
            values = np.einsum("yoam,yam->yom", rows, raw.reshape(sizes.shape))
            mode_masses = (sizes * raw_mass.reshape(sizes.shape)).sum(axis=1)
            open_ = yield values, mode_masses.sum(axis=1)
            if last is not None:
                live &= ~_settled((values - last)[open_], values[open_], mode_masses[open_], quad.tol)
            last = values

    return refine(levels(), quad.tol, f"{name}: trapezoid")


def _settled(change, values, mode_masses, tol):
    """Modes whose last change no further level can matter for, in every block.

    ``change`` and ``values`` have shape ``(blocks, outputs, dim)`` and
    ``mode_masses`` ``(blocks, dim)``.  A mode is settled in a block when its
    change is within its own roundoff floor, or below ``_MODE_SETTLED /
    sqrt(dim)`` of the block's :func:`refine` target: a mode's change shrinks
    at least geometrically from level to level, so the changes settled modes
    would still make add up to less than ``_MODE_SETTLED`` of the target, or
    are rounding noise the target already allows for.  Leaving them at their
    current values moves no stopping decision.
    """
    targets = np.array([_refine_target(tol, v, m) for v, m in zip(values, mode_masses.sum(axis=1))])
    bound = np.maximum(_MODE_SETTLED / np.sqrt(change.shape[-1]) * targets[:, None],
                       _roundoff_floor(mode_masses))
    # 2-norm over the outputs, through hypot: squares of values near 1e200 overflow
    return (np.hypot.reduce(np.abs(change), axis=1) <= bound).all(axis=0)


def _y_grid(y, message, allow_zero=False):
    """``y`` as a nonempty finite 1-d float array, and whether it was a scalar."""
    ys = np.asarray(y, dtype=float)
    flat = np.atleast_1d(ys)
    if ys.ndim > 1 or flat.size == 0:
        raise ValueError(f"y must be a scalar or a nonempty 1-d array, got shape {ys.shape}")
    if not np.isfinite(flat).all():
        raise ValueError(f"y must be finite, got {flat[~np.isfinite(flat)][0]}")
    bad = flat < 0.0 if allow_zero else flat <= 0.0
    if bad.any():
        raise ValueError(f"{message}, got {flat[bad][0]}")
    return flat, ys.ndim == 0


# -- the semigroup chain ----------------------------------------------------------------
#
# A chain maps (p, j) -> coeff, meaning
#
#     coeff * y^p * I_j,   I_j = (1/Gamma(s)) int_0^inf r^{s-1-j} e^-r L^j e^{(y^2/(4r))L} u dr,
#
# and ``U`` itself is {(0, 0): 1}.  Each differential step moves the
# y-derivative onto the semigroup, d/dy I_j = (y/2) I_{j+1}: d/dy maps
# y^p I_j to p y^{p-1} I_j + (1/2) y^{p+1} I_{j+1}, the radial step 2/y d/dy
# maps I_j to I_{j+1}, and the Bessel step (a/y) d/dy + d^2/dy^2 keeps p even,
# so p starts at 0 and never turns negative.


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


def _eval_chains(gen, order, u, outputs, ys, quad):
    """``sum_i w_i L^{k_i} chain_i(y)`` for each ``[(k_i, w_i, chain_i), ...]`` in ``outputs``.

    Returns shape ``(len(ys), len(outputs), dim)``.  Per mode every chain term
    is a scalar multiple of ``I_j``, so in one output the terms sharing a
    ``j`` collapse into one row ``y^{p_j} sum w_i lam^{k_i} coeff y^{p - p_j}``,
    with ``p_j`` the smallest ``p`` paired with ``j`` in any output.  Each
    distinct ``j`` is one integral, with weight ``r^{s-j} e^-r`` and the scale
    ``y^{p_j}`` folded into its exponent; all of them, for every ``y``, run on
    one table in eigencoordinates, and ``V`` maps the finished sums back once.
    """
    lam, coords = gen._modes(u)
    lowest = {}
    for parts in outputs:
        for _, _, chain in parts:
            for p, j in chain:
                lowest[j] = min(p, lowest.get(j, p))
    js = sorted(lowest)
    col = {j: i for i, j in enumerate(js)}
    rows = np.zeros((ys.size, len(outputs), len(js), lam.size), dtype=np.result_type(lam, coords))
    for o, parts in enumerate(outputs):
        for k, w, chain in parts:
            for (p, j), c in chain.items():
                rows[:, o, col[j]] += np.multiply.outer(w * c * ys ** (p - lowest[j]), lam**k)
    rows *= np.array([lam**j for j in js]) * coords
    alphas = order.s - np.array(js, dtype=float)
    offsets = np.multiply.outer(np.log(ys), [float(lowest[j]) for j in js])
    stacked = _subordinate(gen, lam, rows, alphas, ys, quad, "semigroup-chain integrals",
                           offsets=offsets)
    return gen._from_modes(stacked) / gamma(order.s)


_VALUE = {(0, 0): 1.0}  # U = I_0


def _radial_chain(m):
    """``(2/y d/dy)^m U = I_m``."""
    return {(0, m): 1.0}


def _operator_parts(m, a):
    """Terms ``(m-i, comb(m, i), B^i U)`` of ``(L + B)^m U``, ``B = (a/y) d/dy + d^2/dy^2``."""
    parts = []
    chain = _VALUE
    for i in range(m + 1):
        parts.append((m - i, float(comb(m, i)), chain))
        chain = _chain_bessel(chain, a)
    return parts


def _weighted_parts(order, m, form):
    """Chain terms of ``d/dy G_m U``, ``G_m`` as in :func:`weighted_extension_derivative`."""
    if form == "radial":
        return [(0, 1.0, _chain_deriv(_radial_chain(m)))]
    if form == "operator":
        parts = _operator_parts(m, 1.0 - 2.0 * order.sigma)
        return [(k, w, _chain_deriv(chain)) for k, w, chain in parts]
    raise ValueError(f"unknown form {form!r}; use 'radial' or 'operator'")


def extend_subordination(gen: Generator, s, u, y, quad=None):
    """Evaluate ``U(y)`` by subordination quadrature on the log axis.

    ``y = 0`` returns ``u`` (the continuous boundary value).  An array ``y``
    returns one row per entry, all from one semigroup table.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    ys, scalar = _y_grid(y, "extension variable must be nonnegative", allow_zero=True)
    out = np.empty((ys.size, gen.dim), dtype=complex)
    inner = ys > 0.0
    out[~inner] = u
    if inner.any():
        out[inner] = _eval_chains(gen, order, u, [[(0, 1.0, _VALUE)]], ys[inner], quad)[:, 0]
    return out[0] if scalar else out


def y_derivatives_upto(gen: Generator, s, u, mmax, y, quad=None):
    """All derivatives ``d^m U/dy^m`` for ``m = 0..mmax``, shape ``(mmax + 1, dim)``.

    The ``m``-th derivative is the chain :func:`_chain_deriv` applied ``m``
    times to ``U = I_0``, a sum of ``y^{2j-m} I_j`` with ``m/2 <= j <= m``;
    every order runs on one semigroup table.  An array ``y`` returns shape
    ``(len(y), mmax + 1, dim)``.  High orders lose digits where those terms
    cancel: once ``y^2 ||L||`` reaches ~1e3 on complex spectra (about 6e-11
    relative for ``d^6 U/dy^6`` at ``y = 5`` on a 32-mode spectrum with
    ``|lam|`` up to 50), and at tiny ``y`` when ``2s`` is an integer.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    cap = 2 * (order.n + 2)
    if not 0 <= mmax <= cap:
        raise ValueError(f"derivative order {mmax} outside 0..{cap} (the cap for s={order.s})")
    ys, scalar = _y_grid(y, "derivatives need y > 0")
    chains = [_VALUE]
    for _ in range(mmax):
        chains.append(_chain_deriv(chains[-1]))
    out = _eval_chains(gen, order, u, [[(0, 1.0, chain)] for chain in chains], ys, quad)
    return out[0] if scalar else out


def y_derivative(gen: Generator, s, u, m, y, quad=None):
    """Exact ``m``-th derivative of ``U`` at ``y > 0`` (one row per entry of an array ``y``)."""
    return y_derivatives_upto(gen, s, u, m, y, quad)[..., m, :]


# -- radial powers and the explicit representation ----------------------------------


def _explicit_radial(gen, order, u, m, ys, quad):
    """``(2/y d/dy)^m U`` through the representation driven by ``f = (-L)^s u``.

    The polynomial part :func:`explicit_poly_part` plus the Taylor-tail
    integral ``int F_{[s]-m}(r) r^{m-s} e^{(y^2/(4r))L} f dr/r``.
    """
    s = order.s
    lam, coords = gen._modes(u)
    f_coords = np.exp(s * np.log(-lam)) * coords  # f = (-L)^s u, as in Generator.frac_power
    poly = np.array([explicit_poly_part(gen, order, u, m, order.n, y * y / 4.0) for y in ys])
    rows = np.broadcast_to(f_coords, (ys.size, 1, 1, lam.size))
    tail = _subordinate(gen, lam, rows, m - s, ys, quad, "explicit radial tail", k=order.n - m)
    scale = ys ** (2.0 * (s - m)) / (4.0 ** (s - m) * gamma(s))
    return (-1.0) ** m * (poly + scale[:, None] * gen._from_modes(tail[:, 0]))


def radial_power(gen: Generator, s, u, m, y, quad=None, mode="from_u"):
    """``(2/y d/dy)^m U(y)`` for ``0 <= m <= [s] + 1``; one row per entry of an array ``y``.

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
    ys, scalar = _y_grid(y, "radial powers need y > 0")
    if mode == "from_u":
        out = _eval_chains(gen, order, u, [[(0, 1.0, _radial_chain(m))]], ys, quad)[:, 0]
    elif mode == "from_f":
        out = _explicit_radial(gen, order, u, m, ys, quad)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'from_u' or 'from_f'")
    return out[0] if scalar else out


def weighted_extension_derivative(gen: Generator, s, u, m, y, quad=None, form="radial"):
    """The weighted boundary derivative ``y^{1-2 sigma} d/dy G_m U`` at ``y > 0``.

    ``G_m`` is ``(2/y d/dy)^m`` for ``form='radial'`` or the full extension
    operator ``(L + (1-2 sigma)/y d/dy + d^2/dy^2)^m`` for ``form='operator'``.
    These are the left-hand sides of the initial-condition tables: zero limits
    for ``m < [s]`` and the fractional-power trace at ``m = [s]``.  An array
    ``y`` returns one row per entry.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if not 0 <= m <= order.n:
        raise ValueError(f"weighted derivative index {m} outside 0..{order.n}")
    ys, scalar = _y_grid(y, "weighted derivatives need y > 0")
    parts = _weighted_parts(order, m, form)
    weight = ys ** (1.0 - 2.0 * order.sigma)
    out = weight[:, None] * _eval_chains(gen, order, u, [parts], ys, quad)[:, 0]
    return out[0] if scalar else out


def extension_operator_power(gen: Generator, s, u, m, y, quad=None, a=None):
    """``(L + (a/y) d/dy + d^2/dy^2)^m U(y)`` with ``a = 1 - 2(s - [s])`` by default.

    Expanded binomially over the commuting factors ``L`` and the scalar
    differential part; every term is a semigroup-chain integral, and all of
    them run on one table with ``L^{m-i}`` applied per mode.  An array ``y``
    returns one row per entry.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    if m < 0:
        raise ValueError(f"operator power must be nonnegative, got {m}")
    ys, scalar = _y_grid(y, "operator powers need y > 0")
    if a is None:
        a = 1.0 - 2.0 * order.sigma
    out = _eval_chains(gen, order, u, [_operator_parts(m, a)], ys, quad)[:, 0]
    return out[0] if scalar else out


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
    ys, _ = _y_grid(float(y), "extension variable must be nonnegative", allow_zero=True)
    if ys[0] == 0:
        return u.copy()
    return _explicit_radial(gen, order, u, 0, ys, quad)[0]


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
    _y_grid(float(y), "normalization check needs y > 0")
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


def _csv_complex(vectors):
    """``re,im`` of every entry of ``vectors`` in ``%.17g``, comma-separated.

    One format operation per row instead of one per number.  The profile and
    trace CSVs write their rows with it, each ended by CR LF as
    ``csv.writer`` ends them: no field holds a comma or a quote, so the bytes
    are those ``csv.writer`` wrote.
    """
    parts = np.concatenate([np.column_stack((np.real(v), np.imag(v))).ravel() for v in vectors])
    return ",".join(["%.17g"] * parts.size) % tuple(parts.tolist())


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
            header = ["y"]
            for m in range(nder):
                tag = "U" if m == 0 else ("dU" if m == 1 else f"d{m}U")
                for i in range(1, dim + 1):
                    header += [f"re_{tag}{i}", f"im_{tag}{i}"]
            handle.write(",".join(header) + "\r\n")
            for j, y in enumerate(self.ygrid):
                handle.write(f"{y:.17g},{_csv_complex(self.derivs[j][:nder])}\r\n")
        finally:
            if own:
                handle.close()


def build_profile(gen: Generator, s, u, ygrid, quad=None, max_deriv=None):
    """``U`` and its derivatives up to ``max_deriv`` (default ``2([s]+1)``) on a grid.

    One :func:`y_derivatives_upto` call on the whole grid: every point shares
    one semigroup table.
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
    derivs = y_derivatives_upto(gen, order, u, max_deriv, ygrid, quad)
    return ExtensionProfile(
        ygrid=ygrid, values=list(derivs[:, 0]), derivs=list(derivs), order=order, source_u=u
    )
