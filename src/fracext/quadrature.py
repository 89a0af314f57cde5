"""Quadrature engines and extrapolation utilities.

Every adaptive integral in the package runs on one nested lattice, the
composite trapezoid levels of :func:`trapezoid_lattice`, under one of two
maps:

* the log axis (or a double-exponential ray), on which the subordination
  integrals and the BBW tail decay exponentially or faster at both ends
  (:func:`trapezoid_refine`);
* the tanh-sinh map ``x = 1/(1 + e^{-pi sinh t})`` onto ``(0, 1)`` (Takahasi
  & Mori, Publ. RIMS 9, 1974) after an exact power substitution, for the
  algebraic endpoint singularities ``x^p * smooth`` of the resolvent
  integrals and the BBW integrals over ``[eps0, 1]`` (:func:`integrate_unit`).

Halving the step keeps every node of the previous level, so each level
evaluates the integrand only at the new nodes, once each, and adds their
weighted sum to half the previous value.  Every adaptive rule feeds one
driver, :func:`refine`, which compares successive levels and stops at the
requested tolerance or at the roundoff floor set by the integrand's L1
mass.  Summation order over nodes is fixed, so results are deterministic for
a fixed :class:`QuadratureSpec`.  Failure to meet the tolerance within the
level budget raises :class:`ConvergenceError` carrying the achieved residual.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "gauss_legendre_rule",
    "integrate_unit",
    "refine",
    "trapezoid_lattice",
    "trapezoid_refine",
    "richardson_table",
    "richardson",
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
    """First-level node budget and refinement tolerance of the adaptive rules."""

    nodes: int = 128
    tol: float = 1e-12

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError(f"need at least 8 nodes, got {self.nodes}")
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


def _norm(value):
    """2-norm, scaled by the largest magnitude so that squaring cannot overflow."""
    size = np.abs(value).ravel()
    peak = size.max()
    if not 0.0 < peak < np.inf:
        return float(peak)
    size = size / peak
    return float(peak * np.sqrt(size @ size))


_EPS = float(np.finfo(float).eps)


def _roundoff_floor(mass):
    """Change a sum of L1 size ``mass`` can show from rounding alone (elementwise)."""
    return 32.0 * _EPS * mass


def _refine_target(tol, current, mass):
    """Stopping threshold: the requested tolerance, floored by roundoff.

    ``mass`` is the L1 size of the weighted integrand; when it dwarfs the
    integral's value the achievable absolute accuracy is ``eps * mass`` and
    further refinement cannot improve on it.
    """
    return max(tol * max(1.0, _norm(current)), _roundoff_floor(mass))


def refine(levels, tol, name):
    """Consume successive ``(values, masses)`` estimates until every block has two that agree.

    ``levels`` is a generator that yields, one refinement level at a time and
    coarsest first, fresh arrays of the values of every block stacked on a
    leading axis together with one L1 mass per block.  A block is done at the
    first level whose change from its predecessor meets
    :func:`_refine_target`, and keeps that level's value.  After each level
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
        for b in np.flatnonzero(open_):
            achieved[b] = _norm(values[b] - previous[b])
            if achieved[b] <= _refine_target(tol, values[b], masses[b]):
                result[b] = values[b]
                open_[b] = False
        if not open_.any():
            return result


def _weighted_sum(weights, vals):
    """Rule value and L1 mass of ``vals``, reducing the leading (node) axis.

    One matrix-vector product for the value and one ``abs`` pass for the mass.
    """
    flat = vals.reshape(len(weights), -1)
    value = (weights @ flat).reshape(vals.shape[1:])
    return value[()], float(np.sum(weights @ np.abs(flat)))  # [()]: 0-d -> scalar


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


def trapezoid_lattice(lo, hi, h0, name="integral"):
    """Nested composite-trapezoid levels on ``[lo, hi]``: the nodes and weights each level adds.

    The first level spans ``count`` steps of ``h0`` from ``lo``, ending within
    ``h0/2`` of ``hi``, with half weights at both ends; the step then halves
    over at most ``_TRAPEZOID_LEVELS`` levels, each yielding only the
    midpoints of the previous level's intervals.  A level's rule value is its
    weighted sum plus half the previous level's value (see :func:`_nested`).
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
    for _ in range(_TRAPEZOID_LEVELS - 1):
        h *= 0.5
        yield lo + h * (2 * np.arange(n) + 1), np.full(n, h)
        n *= 2


def trapezoid_refine(g, lo, hi, tol, h0=0.25, name="integral"):
    """Adaptive composite trapezoid of a vectorized ``g`` on ``[lo, hi]``.

    Intended for integrands that decay (near) to zero at both window edges,
    where the trapezoid rule on an exponentially decaying smooth function
    converges geometrically in ``1/h``.  The levels are those of
    :func:`trapezoid_lattice`, so each evaluates ``g`` only at new nodes.
    """
    lattice = trapezoid_lattice(lo, hi, h0, name)
    sums = (_weighted_sum(weights, np.asarray(g(nodes))) for nodes, weights in lattice)
    return refine(_nested(sums), tol, f"{name}: trapezoid")[0]


# Nodes closer to 1 than this are dropped: nearer 1 the floats are too coarse
# to keep neighbouring nodes apart at steps down to h = 1/256.  The dropped
# weights sum to about this value.
_NEAR_ONE = 2.0**-49


def _merge_zeros(x, weights):
    """Nodes that underflowed to ``x = 0`` as one node carrying their summed weight."""
    zeros = np.count_nonzero(x == 0.0)  # a prefix: x rises with t
    if zeros < 2:
        return x, weights
    return x[zeros - 1:], np.concatenate(([weights[:zeros].sum()], weights[zeros:]))


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
    integrand, so that work shared between blocks runs once per level.  All
    blocks share the ``t``-lattice and the drop rule, and :func:`refine`
    closes each on its own.  ``f`` is then called once per level with a list
    of one node array per block, ``None`` for a closed block, and returns a
    list of one value array per block (anything for a closed one); the
    result stacks the blocks on a leading axis.  In this form the nodes
    where ``x = w^{1/(1+p)}`` underflows to 0, about half of them for ``p``
    near -1, are evaluated once per block and level with their summed
    weight.  A scalar power keeps the plain form: ``f`` takes and returns
    one array and sees every node.
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
        h = min(0.5, 8.0 / max(nodes0, 16))
        for t, weights in trapezoid_lattice(-4.0, 4.0, h, name):
            z = 0.5 * np.pi * np.sinh(t)
            w = 1.0 / (1.0 + np.exp(-2.0 * z))
            jacobian = (0.25 * np.pi) * np.cosh(t) / np.cosh(z) ** 2
            keep = (w > 0.0) & (w < 1.0 - _NEAR_ONE) & (jacobian > 1e-300)
            w, jacobian, weights = w[keep], jacobian[keep], weights[keep]
            rules = [None] * len(powers)
            for b in np.flatnonzero(open_):
                q = exponents[b]
                rules[b] = (w**q, q * jacobian * weights)
                if not scalar:
                    rules[b] = _merge_zeros(*rules[b])
            blocks = f([None if rule is None else rule[0] for rule in rules])
            for b in np.flatnonzero(open_):
                value, mass = _weighted_sum(rules[b][1], np.asarray(blocks[b]))
                values[b], masses[b] = 0.5 * values[b] + value, 0.5 * masses[b] + mass
            open_ = yield np.array(values), masses

    result = refine(levels(), tol, f"{name}: tanh-sinh")
    return result[0] if scalar else result


# -- Richardson extrapolation ----------------------------------------------------


def richardson_table(values, exponents, ratio=2.0):
    """Richardson table for values sampled along ``y_j = y_0 ratio^{-j}``.

    ``values[j]`` is the quantity at ``y_j`` (scalars or arrays); the error is
    modeled as ``sum_k C_k y^{p_k}`` with ``p_k`` given by ``exponents`` in
    the order they are eliminated.  Returns the list of levels; ``levels[0]``
    is the input and each further level is one elimination deeper.
    """
    levels = [[np.asarray(v) for v in values]]
    for p in exponents:
        prev = levels[-1]
        if len(prev) < 2:
            break
        factor = ratio ** (-p)
        levels.append(
            [(prev[i + 1] - factor * prev[i]) / (1.0 - factor) for i in range(len(prev) - 1)]
        )
    return levels


def richardson(values, exponents, ratio=2.0):
    """Deepest Richardson extrapolant (last entry of the last level)."""
    return richardson_table(values, exponents, ratio)[-1][-1]


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
