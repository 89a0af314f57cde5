"""Frobenius solutions of the degenerate Bessel ODE ``phi'' + (a/y) phi' = lam phi``.

``y = 0`` is a regular singular point with indicial roots ``0`` and ``1 - a``;
the two power-series solutions carry clean boundary data (value at 0 for the
first, weighted derivative ``y^a phi'`` at 0 for the second).  Because the
series are entire, ``lam`` may be replaced by any bounded operator, which is
how the uniqueness cross-solver reconstructs the extension profile from its
boundary data.  Series are evaluated with ratio recurrences (no Gamma calls
per term).
"""

from dataclasses import dataclass
from math import inf, isfinite, log

import numpy as np

from .operators import Generator, _apply
from .quadrature import ConvergenceError

__all__ = [
    "BesselParams",
    "phi",
    "phi_op",
    "ivp_classify",
    "ode_cross_solve",
]


@dataclass(frozen=True)
class BesselParams:
    """ODE coefficient ``a < 1``, spectral parameter, and series budget."""

    a: float
    lam: float = 1.0
    trunc_tol: float = 1e-15
    max_terms: int = 400

    def __post_init__(self):
        if self.a >= 1.0:
            raise ValueError(f"ODE coefficient must satisfy a < 1, got {self.a}")
        nu = (1.0 - self.a) / 2.0
        if abs(nu - round(nu)) < 1e-12 and round(nu) >= 1:
            raise ValueError(
                f"a = {self.a} is a resonant case (indicial roots differ by an even "
                "integer); the power-series pair degenerates there"
            )
        if self.trunc_tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        if self.max_terms < 4:
            raise ValueError("series budget must allow at least 4 terms")


def _series_start(kind, a, deriv):
    """Leading power and coefficient, and the shift in the term ratio."""
    if deriv not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {deriv}")
    nu = (1.0 - a) / 2.0
    if kind == 1:
        return 0.0, 1.0, -nu
    if kind == 2:
        return 1.0 - a, 1.0 / (1.0 - a), +nu
    raise ValueError(f"solution kind must be 1 or 2, got {kind!r}")


def _deriv_weight(power, y, deriv):
    """``(d/dy)^deriv y^power`` divided by ``y^power``; needs ``y > 0`` unless ``deriv = 0``."""
    if deriv == 0:
        return 1.0
    return power / y if deriv == 1 else power * (power - 1.0) / y / y


def phi(kind, y, p: BesselParams, deriv=0):
    """Scalar Frobenius solution (or its first/second derivative) at ``y``.

    ``kind=1`` is the solution with ``phi(0) = 1``; ``kind=2`` behaves like
    ``y^{1-a}/(1-a)`` at the origin.  Derivatives are exact term-by-term
    differentiations of the series.  Each term is the previous one times
    ``lam y^2 / (4 (k+1) (k+1+shift))``, so a term leaves the float range
    only where the series itself does; raises :class:`ConvergenceError` once
    a term overflows, as the operator series does.
    """
    p0, c0, shift = _series_start(kind, p.a, deriv)
    if y == 0.0:
        if deriv != 0:
            raise ValueError("series derivatives need y > 0")
        return c0 if kind == 1 else 0.0
    if y < 0.0:
        raise ValueError(f"series argument must be nonnegative, got {y}")
    ratio = p.lam * y * y / 4.0
    # a Python float power raises where a product turns inf: past e^709 the first term is inf
    term = c0 * y**p0 if p0 * log(y) < 709.0 else inf
    total = 0.0
    scale = 0.0
    for k in range(p.max_terms):
        total += term * _deriv_weight(p0 + 2.0 * k, y, deriv)
        if not isfinite(total):
            raise ConvergenceError(
                f"phi_{kind} series: term {k} overflows at y={y}, lam={p.lam}"
            )
        scale = max(scale, abs(total), 1e-300)
        if k >= 4 and abs(term) <= p.trunc_tol * scale:
            return total
        term = term * ratio / ((k + 1.0) * (k + 1.0 + shift))
    raise ConvergenceError(
        f"phi_{kind} series: {p.max_terms}-term budget exhausted at y={y}, lam={p.lam}"
    )


def phi_op(kind, y, mat, a, u, p: BesselParams, deriv=0):
    """Operator-valued Frobenius solution applied to a vector.

    ``mat`` is the bounded map substituted for the spectral parameter (pass
    ``-L`` to solve the extension equation); a real ``mat`` stays real, as
    each product with it runs through :func:`_apply`.  Boundary data:
    ``phi_1(y, T) u -> u`` and ``y^a d/dy phi_2(y, T) v -> v`` as
    ``y -> 0``.  The carried vector is the whole term ``c_k y^{2k+p0} T^k u``,
    each the previous one's ``T``-image times ``y^2 / (4 (k+1) (k+1+shift))``:
    ``T^k u`` alone can underflow or overflow where the term does not.
    """
    mat = np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float)
    u = np.asarray(u, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != u.shape[0]:
        raise ValueError(f"operator/vector shape mismatch: {mat.shape} vs {u.shape}")
    p0, c0, shift = _series_start(kind, a, deriv)
    y = float(y)
    if not 0.0 <= y < np.inf:
        raise ValueError(f"series argument must be nonnegative and finite, got {y}")
    if deriv > 0 and y == 0.0:
        raise ValueError("series derivatives need y > 0")
    ratio = y * y / 4.0
    total = np.zeros_like(u)
    scale = 0.0
    # Once a term overflows, the partial sum turns inf or nan and so does its norm:
    # the series stops there instead of warning its way through the budget
    with np.errstate(over="ignore", invalid="ignore"):
        work = c0 * np.float64(y) ** p0 * u
        for k in range(p.max_terms):
            total = total + _deriv_weight(p0 + 2.0 * k, y, deriv) * work
            scale = max(scale, np.linalg.norm(total))
            if not isfinite(scale):
                raise ConvergenceError(
                    f"phi_{kind} operator series: term {k} overflows "
                    f"(||T|| y^2 too large for the series)"
                )
            if k >= 4 and np.linalg.norm(work) <= p.trunc_tol * max(scale, 1e-300):
                return total
            work = _apply(mat, work)
            work *= ratio / ((k + 1.0) * (k + 1.0 + shift))
    raise ConvergenceError(
        f"phi_{kind} operator series: {p.max_terms}-term budget exhausted "
        f"(||T|| y^2 too large for the requested tolerance)"
    )


def ivp_classify(a, b):
    """Well-posedness verdict for the initial value problem with data
    ``phi(0) = alpha`` and ``lim y^b phi'(y) = beta``.

    Returns ``'unique'`` exactly when ``a = b`` lies in ``[-1, 1)``; weights
    below the natural one (``b < a``) admit solutions only for constrained
    data, weights above it (``b > a``) lose uniqueness.  The remaining corner
    ``a = b < -1`` also forces the data (the weighted derivative blows up
    unless the coefficients are tuned), so it reports ``'forced_data'``.
    """
    if a >= 1.0:
        raise ValueError(f"classifier needs a < 1, got {a}")
    if b > a:
        return "non_unique"
    if b < a:
        return "forced_data"
    return "unique" if -1.0 <= a else "forced_data"


def ode_cross_solve(gen: Generator, a, u0, v0, y, p: BesselParams = None):
    """Reconstruct the unique solution with data ``(u0, v0)`` at ``y``.

    Evaluates ``phi_1(y, T) u0 + phi_2(y, T) v0`` with ``T = -L``.  Restricted
    to ``||L|| y^2 <= 100``: the operator series is entire but numerically
    explosive beyond that, and the uniqueness cross-checks only need moderate
    ``y``.
    """
    if p is None:
        p = BesselParams(a=a)
    elif p.a != a:
        raise ValueError(f"params carry a={p.a} but a={a} was requested")
    u0 = gen._check_vector(u0)
    v0 = gen._check_vector(v0)
    budget = gen.norm2 * y * y
    if not budget <= 100.0:
        raise ValueError(f"||L|| y^2 = {budget:.1f} must be finite and within the series "
                         "budget 100")
    mat = -gen._mat
    return phi_op(1, y, mat, a, u0, p) + phi_op(2, y, mat, a, v0, p)
