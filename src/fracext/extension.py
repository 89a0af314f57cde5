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

On the real ``r``-axis a complex mode's factor ``e^{t lam}`` turns ``|Im lam
/ Re lam|`` times per decay length, which the rule would have to resolve.
The ``e^-r`` integrand is analytic in ``r`` off the negative axis, so on a
complex spectrum each mode integrates on the ray ``r = rho e^{i theta}``
instead, ``theta = -pi/4`` (``pi/4`` where ``Im lam < 0``): there both
``e^-r`` and the semigroup factor decay at rates that do not depend on
``|Im/Re|``, and the windows read those rates.  A real spectrum stays on the
real axis, and so do the Taylor tails of the explicit representation
(:func:`extend_explicit` and ``radial_power(mode='from_f')``), which
:func:`exp_tail` evaluates for real ``r`` only: on a strongly oscillatory
spectrum those routes may still stall.

The semigroup factor depends on ``rho`` and ``y`` only through ``tau =
log(y^2/(4 rho))``, the log of the semigroup time.  So one table ``exp(e^tau
lam e^{-i theta})`` on a real ``tau``-lattice serves every ``y`` of a call,
and both rays: the columns of the modes with ``Im lam < 0`` are stored
conjugated, which mirrors their ray onto the other one.  The rule for each
``y`` is the trapezoid rule on that lattice shifted by ``log(y^2/4)``, which
keeps its geometric convergence (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Rev. 56, 2014).  That rate depends on the
integrand's strip of analyticity, not on the window's length, so the
lattice's first step lays ``QuadratureSpec.nodes`` steps across the union of
the windows.  Each refinement level is one call of the lattice loop every
adaptive rule shares (:func:`fracext.quadrature._lattice_refine`): it
reduces the weights of every open ``y`` and ``alpha`` against the table's
new nodes in one matrix product, and the outputs it adds are batched
products of their scalar chain coefficients with those new sums; the chain
is linear, so the loop's "new sum plus half the previous level" applies to
the outputs themselves.  Each ``y`` stops refining on its own.  Every
public derivative function accepts a scalar ``y`` or a 1-d array of them,
so a schedule or a profile grid is one call on one table.

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
    _EPS,
    _KERNEL_DECAY,
    _TAIL_TERMS,
    _TRAPEZOID_LEVELS,
    ConvergenceError,
    QuadratureSpec,
    _lattice_refine,
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
# The explicit representation refuses to return a result whose estimated relative loss to
# cancellation, 16 eps ||poly|| / ||result||, exceeds this (see _explicit_radial).
_EXPLICIT_LOSS = 1e-9
# The ray r = rho e^{i theta}, theta = -pi/4, on which the table holds every mode of a complex
# spectrum (those with Im lam < 0 conjugated, see _subordinate).
_THETA = -0.25 * np.pi


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
    (Gamma(s-k)/Gamma(s)) (-L)^k u`` for ``r >= 0``; an array ``r`` gives
    one row per entry, and each power ``(-L)^k u`` is formed once for all of
    them.
    """
    order = as_order(s)
    if start < 0:
        raise ValueError(f"start index must be nonnegative, got {start}")
    u = gen._check_vector(u)
    r = np.asarray(r, dtype=float)
    total = np.zeros(r.shape + (gen.dim,), dtype=complex)
    if start > stop:
        return total
    power = gen.apply_minus_power(start, u)
    coeff = np.ones(r.shape)
    for k in range(start, stop + 1):
        if k > start:
            power = -gen.apply(power)
            coeff = coeff * (-r) / (k - start)
        total = total + (coeff * _gamma_ratio(order.s, k))[..., None] * power
    return total


# -- the subordination rule --------------------------------------------------------


def _upper_cutoff(power, rate=1.0):
    """``r`` beyond which ``r^power e^{-rate r}`` is below ``e^-_KERNEL_DECAY``.

    ``rate = cos theta`` gives the envelope ``|r^power e^-r|`` on the ray
    ``r = rho e^{i theta}`` (see :func:`_subordinate`).
    """
    r_hi = _KERNEL_DECAY / rate
    if power > 0:
        for _ in range(4):
            r_hi = (_KERNEL_DECAY + power * np.log(r_hi)) / rate
    return float(r_hi)


def _ray_rates(lam):
    """``lam e^{-i theta}`` on each mode's rotated ray, as the table holds it.

    The modes with ``Im lam < 0`` come conjugated: their ray ``theta = pi/4``
    mirrors onto ``theta = -pi/4``, the ray of the others.
    """
    return np.where(lam.imag < 0, lam.conj(), lam) * np.exp(-1j * _THETA)


def _kernel_depth(gen, ys, rotated=False):
    """Per ``y``, the depth ``d >= 1`` beyond which the semigroup factor has decayed.

    That is, ``|e^{(y^2/(4r)) lam}| <= e^-_KERNEL_DECAY`` for ``|r| <= e^-d``.
    ``c_min = y^2 min Re(-lam e^{-i theta}) / 4`` bounds the decay rate of
    the semigroup factor ``e^{(y^2/(4r)) lam}`` at ``r = rho e^{i theta}``:
    ``theta = 0`` on the real axis, and ``theta = -pi/4`` (``pi/4`` where
    ``Im lam < 0``) on the rotated rays, where the rate is ``(Re(-lam) +
    |Im lam|)/sqrt(2)``.  When ``c_min`` is zero (``y^2`` underflows)
    nothing cuts the window and the depth is infinite.
    """
    lam = _ray_rates(gen.eigenvalues) if rotated else gen.eigenvalues
    c_min = ys * ys * float((-lam).real.min()) / 4.0
    depth = np.full(c_min.shape, np.inf)
    cut = c_min > 0
    depth[cut] = np.maximum(np.log(_KERNEL_DECAY / c_min[cut]), 1.0)
    return depth


def _log_window(alphas, k, depth=np.inf, rate=1.0):
    """Window ``[lo, hi]`` in ``x = log |r|`` for the weights ``F_k(r) r^alpha``.

    Near ``r = 0`` the weight behaves like ``r^{alpha+k+1}``: the left edge
    sits where the smallest such power has fallen to ``e^-_KERNEL_DECAY``, or
    at ``-depth`` (where the semigroup factor has, see :func:`_kernel_depth`)
    when that is nearer or the power is not positive.  On the right
    ``r^alpha e^-r`` (``k = -1``) ends at :func:`_upper_cutoff` (with
    ``rate = cos theta`` on a rotated ray), and the Taylor tail ``F_k(r) ~
    r^k`` (``k >= 0``, needing ``alpha + k < 0``) where ``r^{alpha+k}`` has
    decayed.  An array of depths gives one ``lo`` per depth; ``hi`` does not
    depend on the depth.
    """
    left = np.min(alphas) + k + 1
    lo = np.minimum(depth, _KERNEL_DECAY / left) if left > 0 else np.asarray(depth, dtype=float)
    top = np.max(alphas)
    hi = np.log(_upper_cutoff(top, rate)) if k < 0 else _KERNEL_DECAY / -(top + k)
    return -lo, float(hi)


def _check_tail_reach(k, hi, steps, nodes, sigma):
    """Refuse a Taylor-tail window up to ``r = e^hi`` that ``F_k(r) ~ r^k`` cannot span.

    A Taylor-tail window ends at ``hi = _KERNEL_DECAY / sigma``
    (:func:`_log_window`), so it grows without bound as ``sigma = s - [s]``
    nears 0.  Beyond ``k hi = log(float max)`` the weight is ``inf``; and more
    ``steps`` of the narrowest window's first step across the lattice than
    ``nodes * 2^(_TRAPEZOID_LEVELS - 1)`` would lay gigabytes of nodes on the
    finest level a call may reach (at ``k = 0`` the weight never overflows).
    """
    if k * hi > _LOG_FLOAT_MAX or steps > nodes * 2 ** (_TRAPEZOID_LEVELS - 1):
        raise ValueError(
            f"Taylor-tail weight F_{k}(r) cannot be integrated on its window up to r = e^{hi:.4g}: "
            f"sigma = s - [s] = {sigma:.3g} is too close to 0 for this representation"
        )


def _subordinate(gen, lam, coef, kpows, base, alphas, ys, quad, name, k=-1, offsets=0.0):
    """``sum_{i,a} coef[y, o, i, a] lam^kpows[i] base[a] int F_k(r) r^{alpha_a} e^{(y^2/(4r)) lam} dr/r``.

    Per mode: ``coef`` (real, shape ``(len(ys), outputs, len(kpows),
    len(alphas))``) weights each power ``lam^kpows[i]`` of the eigencoordinate
    row ``base[a]`` (shape ``(len(alphas), dim)``) that integral ``a`` carries.
    The result, shape ``(len(ys), outputs, dim)``, stays in eigencoordinates
    for the caller to map back with ``V`` once.

    Each mode integrates on the ray ``r = rho e^{i theta}`` (see the module
    docstring): ``theta = -pi/4`` (``pi/4`` where ``Im lam < 0``) on a
    complex spectrum with the weight ``e^-r`` (``k < 0``), and ``theta = 0``
    on a real spectrum and for the Taylor tails (``k >= 0``).  The semigroup
    table ``exp(e^tau lam e^{-i theta})`` on the real lattice ``tau =
    log(y^2/(4 rho))`` serves every ``y``.  It stores the ``Im lam < 0`` columns conjugated, so one
    weight array ``rho^alpha e^{i theta alpha} e^{-rho e^{i theta}}`` at
    ``theta = -pi/4`` serves both rays, and the sums of those columns are
    conjugated back after each product.

    The lattice covers the union of the windows :func:`_log_window` gives
    each ``y`` (mapped to ``tau``), with ``quad.nodes`` steps across that
    union on its first level, and each ``y`` weights only the nodes inside
    its own window.  The trapezoid rate depends on the integrand's strip of
    analyticity, not on the window's length, so a ``y`` with a narrow window
    needs no finer first step than the union's; the lattice gets one more
    level per halving from that step to the narrowest window's own, so its
    finest level is as fine as that window alone would reach.  Each level is
    one call of :func:`~fracext.quadrature._lattice_refine`, with one block
    per ``y``: one matrix product reduces the weights of every open ``(y,
    alpha)`` against the table's new nodes, one more their L1 mass (none for
    the positive ``e^-r`` weights on a real spectrum, whose sums are their
    mass), and one batched product of ``coef`` with the new sums times
    ``lam^kpows[i] base[a]`` gives what the level adds to every output; each
    ``y`` passes the stopping rule of :func:`~fracext.quadrature.refine` on
    its own ``(outputs, dim)`` block.  Scales ``e^{offsets[y, a]}`` enter the
    exponent of the weight: at tiny ``y`` the left window edge sits at ``r ~
    y^2``, where ``r^alpha`` alone overflows for ``alpha < 0`` although its
    product with the scale is moderate.
    """
    alphas = np.array(alphas, dtype=float, ndmin=1)
    offsets = np.broadcast_to(offsets, (ys.size, alphas.size))
    rotated = k < 0 and np.iscomplexobj(lam)
    log_c = 2.0 * np.log(ys) - np.log(4.0)  # log(y^2/4), finite where y^2 underflows
    rate = np.cos(_THETA) if rotated else 1.0  # the decay rate of |e^-r| in |r|
    lo, hi = _log_window(alphas, k, _kernel_depth(gen, ys, rotated), rate)
    t_lo, t_hi = log_c - hi, log_c - lo
    start, stop = t_lo.min(), t_hi.max()
    step = min(0.5, max(stop - start, 1.0) / quad.nodes)
    # one level more per halving from the union's first step to the narrowest window's own
    # (-1e-9: for one y the two steps agree only to rounding)
    fine = min(0.5, max((hi - lo).min(), 1.0) / quad.nodes)
    budget = _TRAPEZOID_LEVELS + max(0, int(np.ceil(np.log2(step / fine) - 1e-9)))
    if k >= 0:
        _check_tail_reach(k, hi, (stop - start) / fine, quad.nodes, -(alphas.max() + k))
    powers = lam ** np.asarray(kpows)[:, None]
    factors = powers[:, None, :] * base  # lam^kpows[i] base[a], shape (len(kpows), len(alphas), dim)
    sizes = _mode_sizes(coef, powers, base)
    coef = coef.reshape(ys.size, coef.shape[1], -1)
    rates = lam
    if rotated:
        rates = _ray_rates(lam)
        spin = np.exp(1j * _THETA * alphas)[:, None]  # e^{i theta alpha}, the phase of r^alpha
        flip = np.where(lam.imag < 0, -1.0, 1.0)  # conjugates the stored columns' sums back

    def sums(taus, weights, parts, open_):
        keep = (taus >= t_lo[open_].min()) & (taus <= t_hi[open_].max())
        taus, weights = taus[keep], weights[keep]
        inside = (taus >= t_lo[open_, None]) & (taus <= t_hi[open_, None])
        x = np.clip(log_c[open_, None] - taus, lo[open_, None], hi)[:, None, :]
        expo = alphas[:, None] * x + offsets[open_, :, None]
        arg = np.multiply.outer(np.exp(taus), rates)
        table = np.exp(arg, out=np.zeros_like(arg), where=arg.real > _FACTOR_FLOOR)
        if rotated:
            # r^alpha e^-r at r = rho e^{i theta}: its size, and its phase
            # e^{i (theta alpha - rho sin theta)}
            rho = np.exp(x)
            size = np.exp(expo - rate * rho)
            size = np.where(inside[:, None, :], size * weights, 0.0)
            phase = spin * np.exp(-1j * np.sin(_THETA) * rho)
            new = (size * phase).reshape(-1, taus.size) @ table
            new.imag *= flip
            new_mass = size.reshape(-1, taus.size) @ np.abs(table)
        else:
            weight = np.exp(expo - np.exp(x)) if k < 0 else _exp_tail_log(k, x) * np.exp(expo)
            weight = np.where(inside[:, None, :], weight * weights, 0.0).reshape(-1, taus.size)
            new = weight @ table
            # e^-r weights are positive, and so is the table of a real spectrum
            new_mass = new if k < 0 else np.abs(weight) @ np.abs(table)
        shape = (-1, alphas.size, lam.size)
        yield (_chain_products(coef[open_], factors, new.reshape(shape)),
               np.einsum("yam,yam->y", sizes[open_], new_mass.reshape(shape)))

    lattice = ((taus, weights, (slice(None),))
               for taus, weights in trapezoid_lattice(start, stop, step, name, budget))
    return _lattice_refine(lattice, sums, ys.size, quad.tol, f"{name}: trapezoid")


def _mode_sizes(coef, powers, base):
    """L1 size of each ``y``'s output rows, per integral and mode.

    That is ``sum_o |sum_i coef[y, o, i, a] powers[i]| |base[a]|``: every
    output's mass counts towards its ``y``'s block.  With one power of
    ``L`` (every :func:`build_profile`, :func:`y_derivatives_upto` and
    :func:`extend_subordination` call) that is ``sum_o |coef[y, o, 0, a]|``
    times ``|lam^k| |base[a]|``, without the ``(y, outputs, integrals, dim)``
    product.
    """
    if len(powers) == 1:
        return np.abs(coef[:, :, 0]).sum(axis=1)[..., None] * (np.abs(powers[0]) * np.abs(base))
    return np.abs(np.swapaxes(coef, 2, 3) @ powers).sum(axis=1) * np.abs(base)


def _chain_products(coef, factors, sums):
    """``sum_{i,a} coef[y, o, i, a] factors[i, a] sums[y, a]``: one real matrix product per ``y``.

    ``coef`` comes flattened to ``(len(sums), outputs, len(factors) *
    alphas)``; a complex right factor runs as real products on its float view.
    """
    stacked = (factors * sums[:, None]).reshape(len(sums), -1, sums.shape[-1])
    if np.iscomplexobj(stacked):
        return (coef @ stacked.view(float)).view(stacked.dtype)
    return coef @ stacked


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
    ``j`` collapse into ``y^{p_j} lam^j c sum_k lam^k sum_i w_i coeff y^{p -
    p_j}`` (``c`` the eigencoordinates), with ``p_j`` the smallest ``p``
    paired with ``j`` in any output and ``k`` over the powers of ``L`` in use.
    Each distinct ``j`` is one integral, with weight ``r^{s-j} e^-r`` and the
    scale ``y^{p_j}`` folded into its exponent; all of them, for every ``y``,
    run on one table in eigencoordinates from the scalar coefficients alone,
    and ``V`` maps the finished sums back once.
    """
    lam, coords = gen._modes(u)
    lowest = {}
    for parts in outputs:
        for _, _, chain in parts:
            for p, j in chain:
                lowest[j] = min(p, lowest.get(j, p))
    js = sorted(lowest)
    col = {j: i for i, j in enumerate(js)}
    kpows = sorted({k for parts in outputs for k, _, _ in parts})
    row = {k: i for i, k in enumerate(kpows)}
    coef = np.zeros((ys.size, len(outputs), len(kpows), len(js)))
    for o, parts in enumerate(outputs):
        for k, w, chain in parts:
            for (p, j), c in chain.items():
                coef[:, o, row[k], col[j]] += w * c * ys ** (p - lowest[j])
    base = np.array([lam**j for j in js]) * coords
    alphas = order.s - np.array(js, dtype=float)
    offsets = np.multiply.outer(np.log(ys), [float(lowest[j]) for j in js])
    stacked = _subordinate(gen, lam, coef, kpows, base, alphas, ys, quad,
                           "semigroup-chain integrals", offsets=offsets)
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
    integral ``int F_{[s]-m}(r) r^{m-s} e^{(y^2/(4r))L} f dr/r``.  The two
    cancel once ``y^2 ||L||`` is large, losing about ``16 eps ||poly|| /
    ||result||`` of relative accuracy; where that estimate exceeds
    ``_EXPLICIT_LOSS`` (1e-9) at some ``y``, :class:`ConvergenceError` is
    raised with the largest estimate as its achieved residual.
    """
    s = order.s
    lam, coords = gen._modes(u)
    f_coords = np.exp(s * np.log(-lam)) * coords  # f = (-L)^s u, as in Generator.frac_power
    poly = explicit_poly_part(gen, order, u, m, order.n, ys * ys / 4.0)
    coef = np.ones((ys.size, 1, 1, 1))
    tail = _subordinate(gen, lam, coef, [0], f_coords[None], m - s, ys, quad,
                        "explicit radial tail", k=order.n - m)
    scale = ys ** (2.0 * (s - m)) / (4.0 ** (s - m) * gamma(s))
    result = poly + scale[:, None] * gen._from_modes(tail[:, 0])
    estimate, size = 16.0 * _EPS * np.linalg.norm(poly, axis=1), np.linalg.norm(result, axis=1)
    lost = estimate > _EXPLICIT_LOSS * size
    if lost.any():
        with np.errstate(divide="ignore"):  # a vanishing result has lost everything
            achieved = float(np.max(estimate[lost] / size[lost]))
        raise ConvergenceError("explicit representation: the polynomial part cancels against "
                               "the tail integral", achieved=achieved, required=_EXPLICIT_LOSS)
    return (-1.0) ** m * result


def radial_power(gen: Generator, s, u, m, y, quad=None, mode="from_u"):
    """``(2/y d/dy)^m U(y)`` for ``0 <= m <= [s] + 1``; one row per entry of an array ``y``.

    ``mode='from_u'`` pushes the radial composition under the subordination
    integral, where it becomes the single bare-semigroup integral ``I_m``
    (accurate from tiny to large ``y``); ``mode='from_f'`` uses the
    closed-form representation through ``f = (-L)^s u`` (polynomial part plus
    a Taylor-tail-weighted semigroup integral) and is a small-``y``
    cross-check only: the polynomial part cancels against the integral once
    ``y^2 ||L||`` is large, and about ``16 eps ||poly|| / ||result||`` of
    relative accuracy is lost (on a 256-point Laplacian at ``s = 2.7``:
    ~5e-10 at ``y = 0.05``, ~1e-5 at ``y = 0.5``).  Where that estimate
    exceeds 1e-9 at some ``y``, ``from_f`` raises :class:`ConvergenceError`
    instead of returning.  The two must agree where ``from_f`` is accurate.
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
    integral as ``y^2 ||L||`` grows, and about ``16 eps`` times its size
    relative to ``U`` is lost; where that estimate exceeds 1e-9 this raises
    :class:`ConvergenceError`.  ``y = 0`` returns ``u``: every other term
    carries a positive power of ``y``.
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
    h0 = min(0.25, max(hi - lo, 1.0) / quad.nodes)
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
