"""Quadrature engines and extrapolation utilities.

Every adaptive integral in the package runs on one nested lattice, the
composite trapezoid levels of :func:`trapezoid_lattice`, under one of three
maps:

* the log axis (or a double-exponential ray), on which the subordination
  integrals and the BBW ray integrals decay exponentially or faster at both
  ends (:func:`trapezoid_refine`);
* the exp-sinh map ``x = (pi/2) sinh t`` of the log axis ``x = log mu``
  (Takahasi & Mori, Publ. RIMS 9, 1974; :func:`exp_sinh`), for the
  resolvent integrals over ``mu in (0, inf)`` on complex spectra and the
  second-kind Balakrishnan integral, whose algebraic decay at both ends is
  exponential in ``x``;
* Hale, Higham & Trefethen's conformal contour around a real interval
  ``[lo, hi]`` (:func:`hht_contour`), for Cauchy integrals of functions
  analytic off ``(-inf, 0]``: their integrand is periodic on the contour's
  parameter, where the trapezoid rule of :func:`trapezoid_refine` over one
  period converges geometrically.

Halving the step keeps every node of the previous level, so each level
evaluates the integrand only at the new nodes, once each, and adds their
weighted sum to half the previous value.  Every adaptive rule hands its
integrand calls to one loop, :func:`_lattice_refine`: the rule evaluates a
call and yields the sums each of its levels adds, and the loop applies
that recurrence and feeds :func:`refine`, which compares successive levels
and stops at the requested tolerance or at the roundoff floor set by the
integrand's L1 mass: where two levels agree, or, since every rule here
converges exponentially in ``1/h`` (Trefethen & Weideman, SIAM Review 56,
2014), where the geometric tail of the changes certifies the level it has.
That takes three levels at the least, so the first three share one
integrand call, on their joint grid in increasing order, and every later
level is a call of its own (:func:`_lattice_calls`); the subordination
integrals of :mod:`fracext.extension` lay one level per call.  Summation
order over each level's nodes is fixed, so results are deterministic for a
fixed :class:`QuadratureSpec`.  Failure to meet the tolerance within the
level budget raises :class:`ConvergenceError` carrying the achieved
residual.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "exp_sinh",
    "exp_sinh_window",
    "gauss_legendre_rule",
    "hht_contour",
    "refine",
    "trapezoid_lattice",
    "trapezoid_refine",
    "richardson_table",
]


class ConvergenceError(RuntimeError):
    """Quadrature or extrapolation failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None, required=None):
        if achieved is not None and required is not None:
            message = f"{message} (achieved residual {achieved:.3e}, required {required:.3e})"
        super().__init__(message)
        self.achieved = achieved
        self.required = required


@dataclass(frozen=True)
class QuadratureSpec:
    """First-call node budget (at least 16) and refinement tolerance of the adaptive rules.

    ``nodes`` is the number of steps the first integrand call lays across
    its rule's window: on the exp-sinh map that call, which serves the first
    three refinement levels, has ``nodes + 1`` nodes (``nodes`` a multiple
    of 4).  A subordination call, which lays one level per call, counts its
    first-level steps across the union of the windows of its ``y`` (each
    ``y``'s own window holds a share of them).  The contour of the resolvent
    integrals on a real spectrum reads only ``tol``: its first call takes
    as many steps over the period as ``tol`` and the spectral ratio need.
    """

    nodes: int = 128
    tol: float = 1e-12

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError(f"need at least 16 nodes, got {self.nodes}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")


# -- fixed rules ---------------------------------------------------------------


@lru_cache(maxsize=16)
def gauss_legendre_rule(n):
    """Nodes and weights on ``[-1, 1]``."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- adaptive drivers ----------------------------------------------------------


def _norm(rows):
    """2-norm of each row (entry on the leading axis), scaled by its largest magnitude.

    Scaling keeps the squares from overflowing; a row whose largest magnitude
    is ``0``, ``inf`` or ``nan`` has that as its norm, and is zeroed before
    the squares so that none of them warns.
    """
    size = np.abs(rows).reshape(len(rows), -1)
    peak = size.max(axis=1)
    scaled = (0.0 < peak) & (peak < np.inf)
    if not scaled.all():
        size[~scaled] = 0.0
    scale = np.where(scaled, peak, 1.0)
    size /= scale[:, None]
    return np.where(scaled, scale * np.sqrt((size[:, None, :] @ size[:, :, None]).ravel()), peak)


_EPS = float(np.finfo(float).eps)


def _roundoff_floor(mass):
    """Change a sum of L1 size ``mass`` can show from rounding alone (elementwise)."""
    return 32.0 * _EPS * mass


def _refine_targets(tol, sizes, masses):
    """Stopping threshold of each block: the requested tolerance, floored by roundoff.

    ``sizes`` holds the norms of the blocks' values and ``masses`` their L1
    sizes of the weighted integrand; when a mass dwarfs its integral's value
    the achievable absolute accuracy is ``eps * mass`` and further refinement
    cannot improve on it.
    """
    return np.maximum(tol * np.maximum(1.0, sizes), _roundoff_floor(masses))


def refine(levels, tol, name):
    """Consume successive ``(values, masses)`` estimates until every block's error is certified.

    ``levels`` is a generator that yields, one refinement level at a time and
    coarsest first, fresh arrays of the values of every block stacked on a
    leading axis together with one L1 mass per block.  A block is done, and
    keeps that level's value, at the first level whose change from its
    predecessor meets :func:`_refine_targets` (two levels agree), or whose
    change fell below half the previous one, ``rho = change_k/change_{k-1} <
    1/2``, and bounds the geometric tail ``change_k rho/(1 - rho)`` by the
    same target.  The rules it drives converge exponentially in ``1/h``, so
    once a rule resolves its integrand the changes fall faster than
    geometrically and the bound is conservative; on an ``O(h^2)`` sequence
    (``rho = 1/4``) it is Richardson's ``change/3``.  A block closes at level
    2 at the earliest, and on its tail at level 3.  After each level the
    generator is sent the mask of the blocks still open, so it may skip the
    done ones (what it yields for them is ignored).  Its one caller is
    :func:`_lattice_refine`, which forms the levels of every adaptive rule
    from their integrand calls.  Running out of levels
    raises :class:`ConvergenceError` with the largest last change of an open
    block (``inf`` when fewer than two levels were produced).
    """
    values, masses = next(levels)
    result = np.array(values)
    open_ = np.ones(len(result), dtype=bool)
    blocks = np.arange(len(result))
    achieved = np.full(len(result), np.inf)  # each open block's last change
    while True:
        previous = values
        try:
            values, masses = levels.send(open_.copy())
        except StopIteration:
            raise ConvergenceError(f"{name} refinement stalled",
                                   achieved=float(achieved[open_].max()), required=tol) from None
        open_blocks = slice(None) if blocks.size == open_.size else blocks  # views while all are open
        current = values[open_blocks]
        change, sizes = _norm(np.concatenate((current - previous[open_blocks], current))).reshape(2, -1)
        targets = _refine_targets(tol, sizes, np.asarray(masses)[open_blocks])
        done = []
        lasts = achieved[open_blocks].tolist()  # inf before the second level
        for b, last, c, target in zip(blocks.tolist(), lasts, change.tolist(), targets.tolist()):
            # two levels agree, or a change below half the last one bounds the geometric tail
            # c rho/(1 - rho) = c^2/(last - c)
            if c <= target or (2.0 * c < last < np.inf and c * (c / (last - c)) <= target):
                done.append(b)
        achieved[open_blocks] = change
        if done:
            result[done] = values[done]
            open_[done] = False
            blocks = np.flatnonzero(open_)
            if not blocks.size:
                return result


def _sizes(vals):
    """L1 size of each node's value (the entry on the leading axis), formed once per call."""
    return np.abs(vals).reshape(len(vals), -1).sum(axis=1)


def _weighted_sum(weights, vals, sizes):
    """Rule value and L1 mass of ``vals``, reducing the leading (node) axis.

    ``sizes`` holds each node's L1 size (:func:`_sizes`).  One matrix-vector
    product for the value and one dot product for the mass.
    """
    flat = vals.reshape(len(weights), -1)
    value = (weights @ flat).reshape(vals.shape[1:])
    return value[()], float(weights @ sizes)  # [()]: 0-d -> scalar


def _lattice_refine(calls, sums, blocks, tol, name):
    """Refine ``blocks`` integrals over the integrand calls of one nested lattice.

    ``calls`` yields ``(nodes, weights, parts)``, one integrand call each,
    ``parts`` holding the index of the nodes and weights of every level the
    call serves, in order (:func:`_lattice_calls`).  ``sums(nodes, weights,
    parts, open_)`` makes the call for the blocks open at it (the mask
    ``open_``) and yields, per level, the weighted sums the level adds and
    their L1 masses, one entry per open block.  A level's value is its sum
    plus half the previous level's value, the mass likewise; a closed block
    adds nothing, and :func:`refine`, which this feeds, no longer reads it.
    """

    def levels():
        value = mass = 0.0
        open_ = np.ones(blocks, dtype=bool)
        for nodes, weights, parts in calls:
            live = open_  # every level of the call adds to the blocks open at it
            for new_value, new_mass in sums(nodes, weights, parts, live):
                new_value = np.asarray(new_value)
                added = np.zeros((blocks,) + new_value.shape[1:], new_value.dtype)
                added_mass = np.zeros(blocks)
                added[live], added_mass[live] = new_value, new_mass
                value, mass = 0.5 * value + added, 0.5 * mass + added_mass
                open_ = yield value, mass

    return refine(levels(), tol, name)


_TRAPEZOID_LEVELS = 7
_TAIL_TERMS = 26  # where r <= 1 the first omitted tail term is below 1/27! of the first
_KERNEL_DECAY = 55.0  # windows end where weight or semigroup factor is below e^-55 ~ 1e-24


def trapezoid_lattice(lo, hi, h0, name="integral", levels=_TRAPEZOID_LEVELS):
    """Nested composite-trapezoid levels on ``[lo, hi]``: the nodes and weights each level adds.

    The first level spans ``count`` steps of ``h0`` from ``lo``, ending within
    ``h0/2`` of ``hi``, with half weights at both ends; the step then halves
    over at most ``levels`` levels, each yielding only the midpoints of the
    previous level's intervals.  A level's rule value is its weighted sum
    plus half the previous level's value (see :func:`_lattice_refine`).
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(h0) and h0 > 0.0):
        raise ValueError(f"{name}: trapezoid window [{lo}, {hi}] with step {h0} "
                         "needs finite edges and a positive finite step")
    if hi <= lo:
        raise ValueError(f"empty integration window [{lo}, {hi}]")
    n, h = max(int(np.ceil((hi - lo) / h0 - 0.5)), 1), h0
    weights = np.full(n + 1, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    yield lo + h * np.arange(n + 1), weights
    for _ in range(levels - 1):
        h *= 0.5
        yield lo + h * (2 * np.arange(n) + 1), np.full(n, h)
        n *= 2


def _lattice_calls(lo, hi, h, name):
    """Integrand calls ``(nodes, weights, parts)`` over the lattice whose first call has step ``h``.

    :func:`refine` closes a block at its second level at the earliest, and
    certifies a geometric tail at its third, so the first three levels of
    :func:`trapezoid_lattice` from step ``4h`` are laid as one call on the
    step-``h`` grid, in increasing order: level 1 at positions ``0::4``,
    level 2 at ``2::4`` and level 3 at ``1::2``.  Every later level is a call
    of its own; the budget has two levels more than the lattice's default, so
    the finest step is ``h/64``, as when the first level had step ``h``.
    ``parts`` holds, for each level the call serves in order, the slice of
    its nodes and weights.
    """
    lattice = trapezoid_lattice(lo, hi, 4.0 * h, name, _TRAPEZOID_LEVELS + 2)
    _, first_weights = next(lattice)  # validates the window
    size = 4 * len(first_weights) - 3
    parts = (slice(0, None, 4), slice(2, None, 4), slice(1, None, 2))
    weights = np.full(size, h)  # level 3
    weights[parts[1]] = 2.0 * h
    weights[parts[0]] = first_weights
    # lo + h k is the node lo + (4h) (k/4) or lo + (2h) (k/2) of a coarser level, bit for bit
    yield lo + h * np.arange(size), weights, parts
    next(lattice), next(lattice)  # levels 2 and 3, laid above
    for nodes, weights in lattice:
        yield nodes, weights, (slice(None),)


def trapezoid_refine(g, lo, hi, tol, h0=0.25, name="integral"):
    """Adaptive composite trapezoid of a vectorized ``g`` on ``[lo, hi]``.

    Intended for integrands that decay (near) to zero at both window edges,
    where the trapezoid rule on an exponentially decaying smooth function
    converges geometrically in ``1/h``.  The levels are those of
    :func:`trapezoid_lattice`, so each evaluates ``g`` only at new nodes.
    ``h0`` is the step of the first call of ``g``, which serves the first
    three levels, of steps ``4 h0``, ``2 h0`` and ``h0`` (see
    :func:`_lattice_calls`); ``|g|`` is formed once per call, and each
    level sums its share of the call as a view.  The lattice starts from
    step ``4 h0``, so its nodes end within ``2 h0`` of ``hi`` (at ``lo + 4
    h0`` on a window shorter than ``2 h0``).  The integral is one block of
    :func:`_lattice_refine`.
    """

    def sums(nodes, weights, parts, open_):
        vals = np.asarray(g(nodes))
        sizes = _sizes(vals)
        for part in parts:
            value, mass = _weighted_sum(weights[part], vals[part], sizes[part])
            yield [value], [mass]

    return _lattice_refine(_lattice_calls(lo, hi, h0, name), sums, 1, tol, f"{name}: trapezoid")[0]


# -- the Hale-Higham-Trefethen contour ---------------------------------------------


def _agm_ladder(k, kc):
    """The ``a_n`` and ``c_n`` of the AGM of ``1`` and ``kc = sqrt(1 - k^2)`` (A&S 17.6), ``c_0 = k``.

    ``c_{n+1} = c_n^2/(4 a_{n+1})`` instead of ``(a_n - b_n)/2``, which
    cancels; the ladder stops once ``c_N <= eps a_N``.
    """
    a, b, c = [1.0], kc, [k]
    while c[-1] > _EPS * a[-1]:
        a.append(0.5 * (a[-1] + b))
        b = np.sqrt(a[-2] * b)
        c.append(0.25 * c[-1] ** 2 / a[-1])
    return a, c


def _jacobi_sn_cn_dn(x, a, c):
    """``sn``, ``cn`` and ``dn`` of real ``x`` from an :func:`_agm_ladder` (A&S 16.4.3)."""
    phi = 2.0 ** (len(a) - 1) * a[-1] * x
    for a_n, c_n in zip(a[:0:-1], c[:0:-1]):
        phi, previous = 0.5 * (phi + np.arcsin(c_n / a_n * np.sin(phi))), phi
    cn = np.cos(phi)
    return np.sin(phi), cn, cn / np.cos(previous - phi)


def hht_contour(lo, hi, tau):
    """Nodes ``z`` and ``dz/dtau`` on Hale, Higham & Trefethen's contour around ``[lo, hi]``.

    Method 1 of Hale, Higham & Trefethen (SIAM J. Numer. Anal. 46, 2008)
    for ``0 < lo < hi``: with ``r = sqrt(hi/lo)``, ``k = (r - 1)/(r + 1)``
    and ``K`` the quarter period of modulus ``k``,
    ``z = sqrt(lo hi) (1/k + sn(t))/(1/k - sn(t))`` on the line
    ``t = K tau + iK'/2``.  One period ``tau in [-1, 3]`` runs clockwise once
    around ``[lo, hi]`` and never meets ``(-inf, 0]``; the integrand of a
    Cauchy integral of a function analytic off ``(-inf, 0]`` is periodic and
    analytic in a strip about the line, so the trapezoid rule in ``tau``
    converges geometrically, at a rate set by ``log(hi/lo)``.

    On that line ``sn(t) = e^{i theta}/sqrt(k)`` lies on a circle (A&S 16.21
    with ``sn(K'/2 | 1 - k^2) = (1 + k)^{-1/2}``), so
    ``z = sqrt(lo hi) (1 + zeta)/(1 - zeta)``, ``zeta = sqrt(k) e^{i theta}``,
    is a circle too, traversed at the rate
    ``dtheta/dx = -p (dn^2 + k^2 sn^2 cn^2)/(cn^2 dn^2 + p^2 sn^2)``.  On the
    quarter ``x = K tau``, ``tau in [0, 1]``, ``cot theta = p sn/(cn dn)``
    with ``p = 1 + k`` at ``x`` for ``tau <= 1/2``, and
    ``tan theta = p sn/(cn dn)`` with ``p = 1 - k`` at ``K - x`` past it, so
    every real Jacobi function is taken on ``[0, K/2]``, where ``cn`` and
    ``dn`` are at least about ``sqrt(kc)``.  The other three quarters follow
    from ``theta(-x) = pi - theta(x)`` and ``theta(2K - x) = -theta(x)``.
    ``1 -+ zeta`` are formed as ``(1 - sqrt k) + 2 sqrt(k) sin^2`` or
    ``cos^2`` of ``theta/2`` ``-+ i sqrt(k) sin theta``, sums of terms of one
    sign, and ``1 - k``, ``1 + k`` and ``kc = sqrt(1 - k^2)`` come from ``r``
    directly: the map keeps full relative accuracy where ``1/k - sn`` is
    about ``1/r`` and would cancel.  ``K`` is ``pi/(2 AGM(1, kc))``, and the
    Jacobi functions come from the same AGM, started at ``kc`` itself: SciPy's
    ``ellipj`` takes ``m = k^2``, in which ``1 - m = kc^2`` keeps only about
    ``eps/kc^2`` relative accuracy when ``k`` is near 1.
    """
    r = np.sqrt(hi / lo)
    k, kc = (r - 1.0) / (r + 1.0), 2.0 * np.sqrt(r) / (r + 1.0)
    a, c = _agm_ladder(k, kc)
    quarter = 0.5 * np.pi / a[-1]
    lower = tau > 1.0  # theta(2 - tau) = -theta(tau)
    u = np.where(lower, 2.0 - tau, tau)
    behind = u < 0.0  # theta(-tau) = pi - theta(tau)
    u = np.abs(u)
    far = u > 0.5
    sn, cn, dn = _jacobi_sn_cn_dn(quarter * np.where(far, 1.0 - u, u), a, c)
    p = np.where(far, 2.0 / (r + 1.0), 2.0 * r / (r + 1.0))  # 1 - k or 1 + k
    ps, cd = p * sn, cn * dn
    theta = np.where(far, np.arctan2(ps, cd), np.arctan2(cd, ps))  # on [0, pi/2]
    rate = p * (dn**2 + (k * sn * cn) ** 2) / (cd**2 + ps**2)
    root = np.sqrt(k)
    gap = 2.0 / ((r + 1.0) * (1.0 + root))  # 1 - sqrt(k)
    half = np.sin(0.5 * theta) ** 2
    near, opposite = gap + 2.0 * root * half, gap + 2.0 * root * (1.0 - half)
    rise = np.where(lower, -root, root) * np.sin(theta)  # Im zeta
    minus = np.where(behind, opposite, near) - 1j * rise  # 1 - zeta
    plus = np.where(behind, near, opposite) + 1j * rise  # 1 + zeta
    scale = np.sqrt(lo * hi)
    return scale * plus / minus, (-1j * scale * quarter) * rate * (plus - minus) / minus**2


# -- the exp-sinh map ----------------------------------------------------------------


def exp_sinh(t):
    """Nodes ``x = (pi/2) sinh t`` and ``dx/dt`` of the exp-sinh map onto the real line.

    Takahasi & Mori's double-exponential map (Publ. RIMS 9, 1974), for
    integrals over ``mu in (0, inf)`` taken in ``x = log mu``: an integrand
    analytic in a strip about the ``x``-axis that decays like ``e^{-c |x|}``
    at both ends decays double-exponentially in ``t``, and the trapezoid rule
    of :func:`trapezoid_refine` in ``t`` converges geometrically in ``1/h``.
    """
    return 0.5 * np.pi * np.sinh(t), 0.5 * np.pi * np.cosh(t)


def exp_sinh_window(lo, hi, rise, fall):
    """The window ``[t_lo, t_hi]`` of :func:`exp_sinh` past which an integrand's tails are roundoff.

    The integrand, in ``x = log mu``, is bounded by ``C e^{rise (x - log lo)}``
    below ``log lo`` and by ``C e^{-fall (x - log hi)}`` above ``log hi``
    (``rise``, ``fall > 0``).  The tail below ``x_lo`` is then at most
    ``C e^{rise (x_lo - log lo)} / rise``, which is ``C eps / e`` at
    ``x_lo = log lo - (log(1/eps) + 1 - log rise) / rise``; likewise above
    ``x_hi = log hi + (log(1/eps) + 1 - log fall) / fall``.  The window is
    ``t = asinh(2 x / pi)`` at both.  Cut at the roundoff level, it does not
    depend on the tolerance, so a tighter one refines the same nodes; in
    ``t`` it is 2-6% wider than a cut at ``tol = 1e-12``.
    """
    depth = np.log(1.0 / _EPS) + 1.0
    x_lo = np.log(lo) - (depth - np.log(rise)) / rise
    x_hi = np.log(hi) + (depth - np.log(fall)) / fall
    return np.arcsinh(2.0 / np.pi * x_lo), np.arcsinh(2.0 / np.pi * x_hi)


# -- Richardson extrapolation ----------------------------------------------------


def richardson_table(values, exponents, ratio=2.0):
    """Richardson table for values sampled along ``y_j = y_0 ratio^{-j}``.

    ``values[j]`` is the quantity at ``y_j`` (scalars or arrays of one shape);
    the error is modeled as ``sum_k C_k y^{p_k}`` with ``p_k`` given by
    ``exponents`` in the order they are eliminated.  Returns the list of
    levels, each one array with its entries stacked on the leading axis;
    ``levels[0]`` is the input and each further level is one elimination
    deeper, one entry shorter.
    """
    levels = [np.asarray(values)]
    for p in exponents:
        prev = levels[-1]
        if len(prev) < 2:
            break
        factor = ratio ** (-p)
        levels.append((prev[1:] - factor * prev[:-1]) / (1.0 - factor))
    return levels


def extrapolation_spread(levels):
    """Cauchy estimate of the remaining extrapolation error.

    The difference of the last two entries on the deepest level that still
    has two; entries on one level are fully extrapolated estimates from
    shifted windows, so their gap bounds what is left.
    """
    for level in reversed(levels):
        if len(level) >= 2:
            return float(np.linalg.norm(np.atleast_1d(level[-1] - level[-2])))
    return np.inf
