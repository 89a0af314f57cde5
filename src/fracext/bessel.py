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

import numpy as np

from .operators import Generator
from .quadrature import ConvergenceError, QuadratureSpec, integrate_unit

__all__ = [
    "BesselParams",
    "phi",
    "phi_op",
    "phi_particular",
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


def _series_start(kind, a):
    """Leading power and coefficient, and the shift in the term ratio."""
    nu = (1.0 - a) / 2.0
    if kind == 1:
        return 0.0, 1.0, -nu
    if kind == 2:
        return 1.0 - a, 1.0 / (1.0 - a), +nu
    raise ValueError(f"solution kind must be 1 or 2, got {kind!r}")


def _deriv_factor(power, y, deriv):
    if deriv == 0:
        return y**power
    if deriv == 1:
        return 0.0 * y if power == 0.0 else power * y ** (power - 1.0)
    if deriv == 2:
        if power in (0.0, 1.0):
            return 0.0 * y
        return power * (power - 1.0) * y ** (power - 2.0)
    raise ValueError(f"derivative order must be 0, 1 or 2, got {deriv}")


def phi(kind, y, p: BesselParams, deriv=0):
    """Scalar Frobenius solution (or its first/second derivative) at ``y``.

    ``kind=1`` is the solution with ``phi(0) = 1``; ``kind=2`` behaves like
    ``y^{1-a}/(1-a)`` at the origin.  Derivatives are exact term-by-term
    differentiations of the series.
    """
    p0, c0, shift = _series_start(kind, p.a)
    if y == 0.0:
        if deriv != 0:
            raise ValueError("series derivatives need y > 0")
        return c0 if kind == 1 else 0.0
    if y < 0.0:
        raise ValueError(f"series argument must be nonnegative, got {y}")
    coeff = c0
    total = 0.0
    scale = 0.0
    for k in range(p.max_terms):
        power = p0 + 2.0 * k
        contrib = coeff * _deriv_factor(power, y, deriv)
        total += contrib
        size = abs(coeff) * y**power
        scale = max(scale, abs(total), 1e-300)
        if k >= 4 and size <= p.trunc_tol * scale:
            return total
        coeff = coeff * p.lam / (4.0 * (k + 1.0) * (k + 1.0 + shift))
    raise ConvergenceError(
        f"phi_{kind} series: {p.max_terms}-term budget exhausted at y={y}, lam={p.lam}"
    )


def _phi_series_cols(kind, ys, mat, a, cols, p: BesselParams, deriv=0):
    """Operator series applied to stacked columns, with per-column arguments.

    ``cols`` has shape ``(dim, m)`` and ``ys`` length ``m``; column ``j``
    receives the series at ``ys[j]``.  Shared powers ``T^k`` are built once
    per term.
    """
    p0, c0, shift = _series_start(kind, a)
    ys = np.asarray(ys, dtype=float)
    if deriv not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {deriv}")
    if not (np.all(ys >= 0.0) and np.all(np.isfinite(ys))):
        raise ValueError(f"series arguments must be nonnegative and finite, got {ys}")
    if deriv > 0 and np.any(ys <= 0.0):
        raise ValueError("series derivatives need y > 0")
    work = np.array(cols, dtype=complex)
    total = np.zeros_like(work)
    coeff = c0
    col_scale = np.zeros(work.shape[1])
    for k in range(p.max_terms):
        power = p0 + 2.0 * k
        total = total + coeff * _deriv_factor(power, ys, deriv)[None, :] * work
        sizes = abs(coeff) * ys**power * np.linalg.norm(work, axis=0)
        col_scale = np.maximum(col_scale, np.linalg.norm(total, axis=0))
        if k >= 4 and np.all(sizes <= p.trunc_tol * np.maximum(col_scale, 1e-300)):
            return total
        work = mat @ work
        coeff = coeff / (4.0 * (k + 1.0) * (k + 1.0 + shift))
    raise ConvergenceError(
        f"phi_{kind} operator series: {p.max_terms}-term budget exhausted "
        f"(||T|| y^2 too large for the requested tolerance)"
    )


def phi_op(kind, y, mat, a, u, p: BesselParams, deriv=0):
    """Operator-valued Frobenius solution applied to a vector.

    ``mat`` is the bounded map substituted for the spectral parameter (pass
    ``-gen.matrix`` to solve the extension equation).  Boundary data:
    ``phi_1(y, T) u -> u`` and ``y^a d/dy phi_2(y, T) v -> v`` as ``y -> 0``.
    """
    mat = np.asarray(mat, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != u.shape[0]:
        raise ValueError(f"operator/vector shape mismatch: {mat.shape} vs {u.shape}")
    out = _phi_series_cols(kind, np.array([y], dtype=float), mat, a, u[:, None], p, deriv)
    return out[:, 0]


def phi_particular(y, mat, a, g, p: BesselParams, quad=None):
    """Variation-of-parameters solution of ``phi'' + (a/y)phi' = T phi + g``.

    ``int_0^y (phi_2(y,T) phi_1(t,T) - phi_1(y,T) phi_2(t,T)) g(t) t^a dt``
    for continuous ``g`` and ``-1 < a < 1``.  Both the value and the weighted
    derivative ``y^a phi_p'`` vanish at the origin.
    """
    if not -1.0 < a < 1.0:
        raise ValueError(f"variation of parameters needs -1 < a < 1, got {a}")
    if y <= 0:
        raise ValueError(f"upper limit must be positive, got {y}")
    quad = quad or QuadratureSpec(nodes=64)
    mat = np.asarray(mat, dtype=complex)

    def integrand(xs):
        ts = y * xs
        cols = np.stack([np.asarray(g(t), dtype=complex) for t in ts], axis=1)
        inner1 = _phi_series_cols(1, ts, mat, a, cols, p)
        inner2 = _phi_series_cols(2, ts, mat, a, cols, p)
        ys = np.full(ts.shape, y)
        outer = _phi_series_cols(2, ys, mat, a, inner1, p) - _phi_series_cols(
            1, ys, mat, a, inner2, p
        )
        return outer.T

    integral = integrate_unit(
        integrand, quad.tol, singular_power=a, nodes0=quad.nodes, name="variation of parameters"
    )
    return y ** (1.0 + a) * integral


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
    mat = -gen.matrix
    return phi_op(1, y, mat, a, u0, p) + phi_op(2, y, mat, a, v0, p)
