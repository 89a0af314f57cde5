"""Quadrature engines and extrapolation utilities.

Every adaptive integral in the package runs on one nested lattice, the
composite trapezoid levels of :func:`trapezoid_lattice`, under one of three
maps:

* the log axis (or a double-exponential ray), on which the subordination
  integrals and the BBW ray integrals decay exponentially or faster at both
  ends (:func:`trapezoid_refine`);
* the tanh-sinh map ``x = 1/(1 + e^{-pi sinh t})`` onto ``(0, 1)`` (Takahasi
  & Mori, Publ. RIMS 9, 1974) after an exact power substitution, for the
  algebraic endpoint singularities ``x^p * smooth`` of the resolvent
  integrals on complex spectra (:func:`integrate_unit`);
* Hale, Higham & Trefethen's conformal contour around a real interval
  ``[lo, hi]`` (:func:`hht_contour`), for Cauchy integrals of functions
  analytic off ``(-inf, 0]``: their integrand is periodic on the contour's
  parameter, where the trapezoid rule of :func:`trapezoid_refine` over one
  period converges geometrically.

Halving the step keeps every node of the previous level, so each level
evaluates the integrand only at the new nodes, once each, and adds their
weighted sum to half the previous value.  No rule can stop on its first
level, so the first two levels share one integrand call, on their joint
grid in increasing order, and every later level is a call of its own
(:func:`_lattice_calls`).  Every adaptive rule feeds one driver,
:func:`refine`, which compares successive levels and stops at the requested
tolerance or at the roundoff floor set by the integrand's L1 mass.
Summation order over each level's nodes is fixed, so results are
deterministic for a fixed :class:`QuadratureSpec`.  Failure to meet the tolerance within the
level budget raises :class:`ConvergenceError` carrying the achieved residual.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "gauss_legendre_rule",
    "hht_contour",
    "integrate_unit",
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
    """First-level node budget (at least 16) and refinement tolerance of the adaptive rules.

    A subordination call on several ``y`` shares one lattice across the union
    of their windows, and ``nodes`` counts the first-level steps across that
    union (each ``y``'s own window holds a share of them).  The contour of
    the resolvent integrals on a real spectrum starts from a fixed 64 steps
    over its period and reads only ``tol``.
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
    """Consume successive ``(values, masses)`` estimates until every block has two that agree.

    ``levels`` is a generator that yields, one refinement level at a time and
    coarsest first, fresh arrays of the values of every block stacked on a
    leading axis together with one L1 mass per block.  A block is done at the
    first level whose change from its predecessor meets
    :func:`_refine_targets`, and keeps that level's value.  After each level
    the generator is sent the mask of the blocks still open, so it may skip
    the done ones (what it yields for them is ignored).  Running out of
    levels raises :class:`ConvergenceError` with the largest last change of an
    open block (``inf`` when fewer than two levels were produced).
    """
    values, masses = next(levels)
    result = np.array(values)
    open_ = np.ones(len(result), dtype=bool)
    achieved = np.full(len(result), np.inf)
    while True:
        previous = values
        try:
            values, masses = levels.send(open_.copy())
        except StopIteration:
            raise ConvergenceError(f"{name} refinement stalled",
                                   achieved=float(achieved[open_].max()), required=tol) from None
        blocks = np.flatnonzero(open_)
        open_blocks = slice(None) if blocks.size == open_.size else blocks  # views while all are open
        current = values[open_blocks]
        change, sizes = _norm(np.concatenate((current - previous[open_blocks], current))).reshape(2, -1)
        achieved[blocks] = change
        done = blocks[change <= _refine_targets(tol, sizes, np.asarray(masses)[open_blocks])]
        result[done] = values[done]
        open_[done] = False
        if not open_.any():
            return result


def _weighted_sum(weights, vals):
    """Rule value and L1 mass of ``vals``, reducing the leading (node) axis.

    One matrix-vector product for the value and one ``abs`` pass for the mass.
    """
    flat = vals.reshape(len(weights), -1)
    value = (weights @ flat).reshape(vals.shape[1:])
    return value[()], float(np.sum(weights @ np.abs(flat)))  # [()]: 0-d -> scalar


def _rows(vals, index):
    """``vals[index]`` for an increasing ``index`` of the leading (node) axis.

    One level's share of a call that may serve two.  An index that takes
    every row is the identity; any other gathers a contiguous array whose
    node axis is the fastest one when it is so in ``vals`` (a sweep stores
    its solutions so), so that the level's weighted sum takes the same BLAS
    path, and sums in the same order, as on values from a call of its own.
    """
    if len(index) == len(vals):
        return vals
    if vals.ndim > 1 and abs(vals.strides[0]) < abs(vals.strides[-1]):
        return np.take(vals.T, index, axis=-1).T
    return np.take(vals, index, axis=0)


def _nested(sums):
    """Levels of a nested rule for :func:`refine`, from the weighted sums each level adds.

    A level's value is its sum plus half the previous level's value; the L1
    mass likewise.
    """
    value = mass = 0.0
    for new_value, new_mass in sums:
        value, mass = 0.5 * value + new_value, 0.5 * mass + new_mass
        yield np.asarray(value)[None], (mass,)


_TRAPEZOID_LEVELS = 7
_TAIL_TERMS = 26  # where r <= 1 the first omitted tail term is below 1/27! of the first
_KERNEL_DECAY = 55.0  # windows end where weight or semigroup factor is below e^-55 ~ 1e-24


def trapezoid_lattice(lo, hi, h0, name="integral", levels=_TRAPEZOID_LEVELS):
    """Nested composite-trapezoid levels on ``[lo, hi]``: the nodes and weights each level adds.

    The first level spans ``count`` steps of ``h0`` from ``lo``, ending within
    ``h0/2`` of ``hi``, with half weights at both ends; the step then halves
    over at most ``levels`` levels, each yielding only the midpoints of the
    previous level's intervals.  A level's rule value is its weighted sum
    plus half the previous level's value (see :func:`_nested`).
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


def _lattice_calls(lattice):
    """The integrand calls over a nested lattice: ``(nodes, weights, levels)`` per call.

    :func:`refine` never closes a block on its first level, so the first two
    levels are laid as one call on the step-``h/2`` grid, in increasing
    order: level 1 at the even positions, level 2 at the odd ones.  Every
    later level is a call of its own.  ``levels`` holds, for each level the
    call serves in order, the (increasing) index of its nodes and weights.
    """
    (first, first_weights), (second, second_weights) = next(lattice), next(lattice)
    size = len(first) + len(second)
    nodes, weights = np.empty(size), np.empty(size)
    nodes[0::2], nodes[1::2] = first, second
    weights[0::2], weights[1::2] = first_weights, second_weights
    yield nodes, weights, (np.arange(0, size, 2), np.arange(1, size, 2))
    for nodes, weights in lattice:
        yield nodes, weights, (np.arange(len(nodes)),)


def trapezoid_refine(g, lo, hi, tol, h0=0.25, name="integral"):
    """Adaptive composite trapezoid of a vectorized ``g`` on ``[lo, hi]``.

    Intended for integrands that decay (near) to zero at both window edges,
    where the trapezoid rule on an exponentially decaying smooth function
    converges geometrically in ``1/h``.  The levels are those of
    :func:`trapezoid_lattice`, so each evaluates ``g`` only at new nodes; the
    first two share one call of ``g`` (see :func:`_lattice_calls`).
    """

    def sums():
        for nodes, weights, levels in _lattice_calls(trapezoid_lattice(lo, hi, h0, name)):
            vals = np.asarray(g(nodes))
            for level in levels:
                yield _weighted_sum(_rows(weights, level), _rows(vals, level))

    return refine(_nested(sums()), tol, f"{name}: trapezoid")[0]


# Nodes closer to 1 than this are dropped: nearer 1 the floats are too coarse
# to keep neighbouring nodes apart at steps down to h = 1/256.  The dropped
# weights sum to about this value.
_NEAR_ONE = 2.0**-49


def _merge_zeros(index, weights, zeros):
    """One level's rule on a call whose first ``zeros`` nodes, all ``x = 0``, are laid as one.

    ``index`` (increasing) picks the level's nodes before the merge.  Returns
    their index into the merged call and their weights: the level's own
    nodes at ``x = 0`` become one node carrying their summed weight.
    """
    shift = max(zeros - 1, 0)
    lead = np.count_nonzero(index < zeros)  # a prefix: index rises
    if not lead:
        return index - shift, weights[index]
    return (np.concatenate(([0], index[lead:] - shift)),
            np.concatenate(([weights[index[:lead]].sum()], weights[index[lead:]])))


def integrate_unit(f, tol, singular_power=0.0, nodes0=64, name="integral"):
    """Adaptive ``int_0^1 x^p f(x) dx`` with ``p = singular_power > -1``.

    The power substitution ``x = w^{1/(1+p)}`` removes the endpoint
    singularity exactly, and the tanh-sinh map ``w = 1/(1 + e^{-pi sinh t})``
    of ``t in [-4, 4]`` handles the remaining (derivative-level) endpoint
    behavior.  The levels are those of :func:`trapezoid_lattice` in ``t``
    from step ``8/nodes0`` (at most ``1/2``), with both Jacobians in the
    weights.  Which nodes are dropped depends on ``t`` alone: those where
    ``w`` underflows to 0 or lies within ``2^-49`` of 1, where neighbours
    would round onto each other.  ``f`` must be vectorized and bounded on
    ``[0, 1]`` (for ``p`` near -1 nodes underflow to ``x = 0``), and may
    return arrays of shape ``(len(x), ...)``; the node axis is reduced.

    A sequence of powers integrates one block per power against one
    integrand, so that work shared between blocks runs once per call.  All
    blocks share the ``t``-lattice and the drop rule, and :func:`refine`
    closes each on its own.  ``f`` is then called with a list of one node
    array per block, ``None`` for a closed block, and returns a list of one
    value array per block (anything for a closed one); the result stacks the
    blocks on a leading axis.  The first call serves the first two levels
    at once, on their joint increasing grid (see :func:`_lattice_calls`),
    and every later call one level.  In this form the nodes where
    ``x = w^{1/(1+p)}`` underflows to 0, about half of them for ``p`` near
    -1, are evaluated once per block and call, and each level sums its own
    share of their weight.  A scalar power keeps the plain form: ``f`` takes
    and returns one array and sees every node.
    """
    scalar = np.ndim(singular_power) == 0
    if scalar:
        f, singular_power = (lambda x, g=f: [g(x[0])]), [singular_power]
    powers = np.asarray(singular_power, dtype=float)
    if np.any(powers <= -1.0):
        raise ValueError(f"endpoint power must exceed -1, got {powers.min()}")
    exponents = 1.0 / (1.0 + powers)

    def levels():
        values, masses = [0.0] * len(powers), np.zeros(len(powers))
        open_ = np.ones(len(powers), dtype=bool)
        h = min(0.5, 8.0 / nodes0)
        for t, weights, parts in _lattice_calls(trapezoid_lattice(-4.0, 4.0, h, name)):
            z = 0.5 * np.pi * np.sinh(t)
            w = 1.0 / (1.0 + np.exp(-2.0 * z))
            jacobian = (0.25 * np.pi) * np.cosh(t) / np.cosh(z) ** 2
            keep = (w > 0.0) & (w < 1.0 - _NEAR_ONE) & (jacobian > 1e-300)
            kept = np.cumsum(keep) - 1  # each node's place among the kept ones
            parts = [kept[part][keep[part]] for part in parts]
            w, jacobian, weights = w[keep], jacobian[keep], weights[keep]
            nodes, rules = [None] * len(powers), [None] * len(powers)
            for b in np.flatnonzero(open_):
                q = exponents[b]
                x, rule = w**q, q * jacobian * weights
                zeros = 0 if scalar else np.count_nonzero(x == 0.0)  # a prefix: x rises with t
                nodes[b] = x[max(zeros - 1, 0):]
                rules[b] = [_merge_zeros(part, rule, zeros) for part in parts]
            blocks = f(nodes)
            blocks = [None if rule is None else np.asarray(vals) for rule, vals in zip(rules, blocks)]
            for level in range(len(parts)):
                for b in np.flatnonzero(open_):
                    index, rule = rules[b][level]
                    value, mass = _weighted_sum(rule, _rows(blocks[b], index))
                    values[b], masses[b] = 0.5 * values[b] + value, 0.5 * masses[b] + mass
                open_ = yield np.array(values), masses

    result = refine(levels(), tol, f"{name}: tanh-sinh")
    return result[0] if scalar else result


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
