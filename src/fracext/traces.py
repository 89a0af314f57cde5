"""Boundary-trace extraction of ``(-L)^s u`` from extension profiles.

The weighted Neumann limit

    y^{1-2(s-[s])} d/dy (2/y d/dy)^{[s]} U(y)  ->  c_s (-L)^s u

is evaluated along a geometric ``y``-schedule and Richardson-extrapolated.
The error exponents are read off the scalar closed form: the trace equals
``c_s`` times a subordination average of order ``1 - sigma`` applied to
``f = (-L)^s u``, whose small-``y`` expansion carries exactly the two power
families ``y^{2k}`` and ``y^{2(1-sigma)+2k}``.  Incremental-quotient variants
cover ``0 < s < 1`` and ``1 < s < 2``, and the initial-condition suite checks
the full data tables of the uniqueness problems.
"""

import os
from dataclasses import dataclass, field
from math import factorial

import numpy as np
from scipy.special import gamma

from .extension import (
    _csv_complex,
    _eval_chains,
    _gamma_ratio,
    _operator_parts,
    _radial_chain,
    _weighted_parts,
    extend_subordination,
    weighted_extension_derivative,
)
from .fracpow import _BBW_CONV_TOL, _bbw_ladder, as_order
from .operators import Generator
from .quadrature import QuadratureSpec, extrapolation_spread, richardson_table

__all__ = [
    "Constants",
    "trace_constants",
    "d_constant",
    "default_ysched",
    "neumann_y0",
    "TraceEstimate",
    "trace_neumann",
    "trace_incremental",
    "initial_condition_suite",
    "ICLine",
    "ICReport",
    "domain_membership",
    "bbw_estimate",
]

_TINY = 1e-300
_NEUMANN_CONV_TOL = 1e-6  # relative extrapolant spread that counts as converged
_INCREMENTAL_CONV_TOL = 1e-3  # the same for the incremental quotients
_IC_TOL = 1e-4  # relative error within which an initial-condition line passes


# -- trace constants ---------------------------------------------------------------


@dataclass(frozen=True)
class Constants:
    """Neumann-trace constant ``c_s`` and incremental constant ``d_s`` (``1<s<2`` only)."""

    c_s: float
    d_s: float = None


def trace_constants(s) -> Constants:
    """Constants of the boundary limits for order ``s``.

    ``c_s = (-1)^{[s]+1} Gamma([s]+1-s) / (4^{s-([s]+1/2)} Gamma(s))``; on
    ``(0,1)`` this reduces to ``-Gamma(1-s)/(4^{s-1/2} Gamma(s))`` and on
    ``(1,2)`` to ``Gamma(2-s)/(4^{s-3/2} Gamma(s))``.  ``d_s`` exists only for
    ``1 < s < 2``.
    """
    order = as_order(s)
    n, s_val = order.n, order.s
    c_s = (-1.0) ** (n + 1) * gamma(n + 1.0 - s_val) / (
        4.0 ** (s_val - (n + 0.5)) * gamma(s_val)
    )
    d_s = None
    if 1.0 < s_val < 2.0:
        d_s = float(
            (4.0 ** (1.0 - s_val) - 1.0) * gamma(1.0 - s_val) / gamma(1.0 + s_val)
        )
    return Constants(c_s=float(c_s), d_s=d_s)


def d_constant(s):
    """Incremental-quotient constant, defined only for ``1 < s < 2``."""
    order = as_order(s)
    if not 1.0 < order.s < 2.0:
        raise ValueError(f"incremental constant requires 1 < s < 2, got s={order.s}")
    return trace_constants(order).d_s


def default_ysched(start=0.4, factor=0.5, count=11):
    """Geometric boundary schedule ``y_j = start * factor^j``."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"schedule factor must lie in (0,1), got {factor}")
    if start <= 0 or count < 2:
        raise ValueError("schedule needs a positive start and at least two points")
    return start * factor ** np.arange(count)


def neumann_y0(gen: Generator):
    """Head of the default ``trace_neumann`` schedule: ``min(0.4, 4 / sqrt(||L||_2))``.

    The Richardson ladder models the error by powers of ``y^2 ||L||``, which
    must be small for the expansion to hold; a fixed head of 0.4 leaves stiff
    operators outside that regime.  Generators with ``||L||_2 <= 100`` keep 0.4.
    """
    return min(0.4, 4.0 / gen.norm2**0.5)


def _check_sched(ysched):
    y = np.asarray(ysched, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"y-schedule entries must be finite, got {y[~np.isfinite(y)][0]}")
    if y.ndim != 1 or y.size < 2 or np.any(y <= 0) or np.any(np.diff(y) >= 0):
        raise ValueError("y-schedule must be a decreasing positive sequence")
    ratios = y[:-1] / y[1:]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise ValueError("y-schedule must be geometric")
    return y, float(ratios[0])


def _schedule(gen, ysched, count=11):
    """``ysched``, or ``default_ysched(neumann_y0(gen), count=count)``, checked; and its ratio."""
    return _check_sched(default_ysched(neumann_y0(gen), count=count) if ysched is None else ysched)


def _merged_ladder(families, count):
    """Sorted union of exponent families ``{base + 2k}``, truncated to ``count``."""
    exps = sorted({round(base + 2.0 * k, 12) for base in families for k in range(count + 1)})
    return [e for e in exps if e > 1e-9][:count]


# -- estimates ----------------------------------------------------------------------


@dataclass
class TraceEstimate:
    """Extracted ``(-L)^s u`` candidate with extrapolation diagnostics."""

    value: np.ndarray
    method: str
    y_sequence: np.ndarray
    extrapolant_table: list
    converged: bool
    oracle_err: float
    raw_limit: np.ndarray = None
    constant: float = None

    def to_csv(self, target):
        """Per-step extrapolant rows for convergence plots.

        Columns: extrapolation ``level``, the newest ``y`` entering the entry,
        the components of the extrapolant divided by the trace constant (so
        every row is an estimate of ``(-L)^s u``), and the norm difference to
        the previous entry on the same level.  The converged estimate is the
        last row of the deepest level.
        """
        own = isinstance(target, (str, os.PathLike))
        handle = open(target, "w", newline="", encoding="utf-8") if own else target
        scale = self.constant if self.constant else 1.0
        try:
            dim = np.atleast_1d(self.value).size
            header = [f"{part}_{i}" for i in range(1, dim + 1) for part in ("re", "im")]
            handle.write(",".join(["level", "y", *header, "diff_norm"]) + "\r\n")
            for level, entries in enumerate(self.extrapolant_table):
                prev = None
                for i, entry in enumerate(entries):
                    vec = np.atleast_1d(entry) / scale
                    diff = "" if prev is None else f"{np.linalg.norm(vec - prev):.6e}"
                    y = f"{self.y_sequence[i + level]:.10g}"
                    handle.write(f"{level},{y},{_csv_complex([vec])},{diff}\r\n")
                    prev = vec
        finally:
            if own:
                handle.close()


def _finish_estimate(raws, ysched, ratio, ladder, method, constant, oracle, conv_tol):
    levels = richardson_table(raws, ladder, ratio)
    raw_limit = levels[-1][-1]
    value = raw_limit / constant
    spread = extrapolation_spread(levels)
    converged = spread <= conv_tol * max(1.0, float(np.linalg.norm(raw_limit)))
    err = float(np.linalg.norm(value - oracle) / max(np.linalg.norm(oracle), _TINY))
    return TraceEstimate(
        value=value,
        method=method,
        y_sequence=np.asarray(ysched, dtype=float),
        extrapolant_table=levels,
        converged=bool(converged),
        oracle_err=err,
        raw_limit=raw_limit,
        constant=constant,
    )


def trace_neumann(gen: Generator, s, u, quad=None, ysched=None, form="radial") -> TraceEstimate:
    """Extract ``(-L)^s u`` from the weighted Neumann boundary limit.

    Evaluates ``y^{1-2 sigma} d/dy (2/y d/dy)^{[s]} U(y)`` (or the variant
    with the full extension operator in place of the radial one, via
    ``form='operator'``, which carries an extra factor ``[s]!``) along the
    schedule, extrapolates, and divides by the trace constant.  Without
    ``ysched`` the schedule is ``default_ysched(neumann_y0(gen))``.  The
    estimate is ``converged`` when the extrapolants spread by at most
    ``_NEUMANN_CONV_TOL = 1e-6`` relative.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    ysched, ratio = _schedule(gen, ysched)
    raws = weighted_extension_derivative(gen, order, u, order.n, ysched, quad, form=form)
    ladder = _merged_ladder([2.0, 2.0 * (1.0 - order.sigma)], len(ysched) - 1)
    constant = trace_constants(order).c_s
    if form == "operator":
        constant = constant * factorial(order.n)
    oracle = gen.frac_power(order.s, u)
    return _finish_estimate(
        raws, ysched, ratio, ladder, "neumann_general", constant, oracle, _NEUMANN_CONV_TOL
    )


def trace_incremental(gen: Generator, s, u, quad=None, ysched=None) -> TraceEstimate:
    """Extract ``(-L)^s u`` from incremental quotients of ``U``.

    For ``0 < s < 1`` this is ``(2s/c_s)(U(y) - u)/y^{2s}``; for ``1 < s < 2``
    the three-point quotient ``(U(2y) - 4U(y) + 3u)/(d_s y^{2s})``, whose
    stencil cancels the ``y^2`` branch.  Without ``ysched`` the schedule is
    ``default_ysched(neumann_y0(gen))``, the head ``trace_neumann`` uses; the
    three-point quotient loses ``y^{2s}`` digits to cancellation, so its
    default schedule stops at 8 levels.  The estimate is ``converged`` when
    the extrapolants spread by at most ``_INCREMENTAL_CONV_TOL = 1e-3``
    relative.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    s_val = order.s
    oracle = gen.frac_power(s_val, u)
    if order.n == 0:
        ysched, ratio = _schedule(gen, ysched)
        values = extend_subordination(gen, order, u, ysched, quad)
        raws = (values - u) / ysched[:, None] ** (2 * s_val)
        ladder = _merged_ladder([2.0, 2.0 * (1.0 - s_val)], len(ysched) - 1)
        constant = trace_constants(order).c_s / (2.0 * s_val)
        return _finish_estimate(
            raws, ysched, ratio, ladder, "incremental_s01", constant, oracle, _INCREMENTAL_CONV_TOL
        )
    if order.n == 1:
        ysched, ratio = _schedule(gen, ysched, count=8)
        both = extend_subordination(gen, order, u, np.concatenate([ysched, 2.0 * ysched]), quad)
        near, far = np.split(both, 2)  # U(y) and U(2y), from one table
        raws = (far - 4.0 * near + 3.0 * u) / ysched[:, None] ** (2 * s_val)
        ladder = _merged_ladder([2.0, 4.0 - 2.0 * s_val], len(ysched) - 1)
        constant = d_constant(order)
        return _finish_estimate(
            raws, ysched, ratio, ladder, "incremental_s12", constant, oracle, _INCREMENTAL_CONV_TOL
        )
    raise ValueError(f"incremental quotients cover s in (0,1) or (1,2), got s={order.s}")


# -- initial-condition tables --------------------------------------------------------


@dataclass
class ICLine:
    """One verified line of the initial-value data table."""

    m: int
    kind: str
    error: float
    passed: bool
    detail: str = ""


@dataclass
class ICReport:
    s: float
    tol: float
    lines: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(line.passed for line in self.lines)


def initial_condition_suite(gen: Generator, s, u, quad=None, ysched=None) -> ICReport:
    """Verify the full initial-condition table of the uniqueness problems.

    For ``0 <= m <= [s]``: the radial value limits ``(2/y d/dy)^m U ->
    Gamma(s-m)/Gamma(s) L^m u`` and their extension-operator variants, which
    carry the extra factor ``[s]!/([s]-m)!``.  For ``0 <= m < [s]``: the
    weighted-derivative limits vanish.  For ``m = [s]``: the Neumann limit
    recovers ``c_s (-L)^s u``.  Every line is one output of a single chain
    evaluation, so the whole table runs on one semigroup table.  Each line
    reports its extrapolated error against ``_IC_TOL = 1e-4`` (the report's
    ``tol``), relative to its own scale: the norm of its limit, or for a vanishing line the norm of
    ``(-L)^{m+sigma} u``, with which its quantity scales (per mode
    ``a^{m+sigma}`` times a bounded function of ``y sqrt(a)``, ``a = -lam``).
    So no verdict depends on the size of ``u`` or ``L``.  Without ``ysched``
    the schedule is ``default_ysched(neumann_y0(gen))``, so ``y^2 ||L||``
    starts small on stiff generators too.
    """
    order = as_order(s)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    ysched, ratio = _schedule(gen, ysched)
    n, sig, s_val = order.n, order.sigma, order.s
    # one chain output and one record (m, kind, limit, scale, ladder families, detail) per line
    outputs, lines = [], []
    power = u  # L^m u
    for m in range(n + 1):
        limit = _gamma_ratio(s_val, m) * power
        factor = factorial(n) / factorial(n - m)
        families = [2.0, 2.0 * (s_val - m)]
        outputs += [[(0, 1.0, _radial_chain(m))], _operator_parts(m, 1.0 - 2.0 * sig)]
        lines += [
            (m, "radial_value", limit, np.linalg.norm(limit), families,
             "(2/y d/dy)^m U -> G(s-m)/G(s) L^m u"),
            (m, "operator_value", factor * limit, factor * np.linalg.norm(limit), families,
             "extension-operator^m U -> [s]!/([s]-m)! times the radial limit"),
        ]
        power = gen.apply(power)
    for m in range(n):  # the weighted rows, y^{1-2 sig} d/dy (2/y d/dy)^m U, come last
        outputs.append(_weighted_parts(order, m, "radial"))
        lines.append((m, "weighted_derivative_zero", 0.0,
                      np.linalg.norm(gen.frac_power(m + sig, u)),
                      [2.0 - 2.0 * sig, 2.0 * (n - m)], "y^{1-2sig} d/dy (2/y d/dy)^m U -> 0"))
    outputs.append(_weighted_parts(order, n, "radial"))
    neumann = trace_constants(order).c_s * gen.frac_power(s_val, u)
    lines.append((n, "neumann", neumann, np.linalg.norm(neumann), [2.0, 2.0 * (1.0 - sig)],
                  "y^{1-2sig} d/dy (2/y d/dy)^{[s]} U -> c_s (-L)^s u"))

    raws = _eval_chains(gen, order, u, outputs, ysched, quad)
    raws[:, 2 * (n + 1):] *= ysched[:, None, None] ** (1.0 - 2.0 * sig)
    report = ICReport(s=s_val, tol=_IC_TOL)
    for o, (m, kind, limit, scale, families, detail) in enumerate(lines):
        ladder = _merged_ladder(families, len(ysched) - 1)
        est = richardson_table(raws[:, o], ladder, ratio)[-1][-1]
        err = float(np.linalg.norm(est - limit) / max(scale, _TINY))
        report.lines.append(ICLine(m, kind, err, err <= _IC_TOL, detail))
    return report


def domain_membership(gen: Generator, s, u, quad=None, ysched=None):
    """Numerical membership verdict for ``u`` in the domain of ``(-L)^s``.

    On matrix generators the domain is the whole space, so the verdict is the
    convergence flag of the Neumann-trace extrapolation; the diagnostic
    machinery is the point.
    """
    estimate = trace_neumann(gen, s, u, quad=quad, ysched=ysched)
    return estimate.converged, estimate


def bbw_estimate(gen: Generator, s, k, u, quad=None) -> TraceEstimate:
    """Berens-Butzer-Westphal limit packaged with its extrapolation table.

    The ``eps``-ladder of :func:`fracext.fracpow.bbw_frac_power`, extrapolated
    by the same rule, so ``value`` equals that function's result bit for bit;
    ``y_sequence`` holds the cut-offs ``eps_j``.  Where ``bbw_frac_power``
    raises on a non-Cauchy sequence, this returns ``converged=False``.
    """
    order = as_order(s)
    eps_seq, estimates, exponents = _bbw_ladder(gen, order, k, u, quad)
    oracle = gen.frac_power(order.s, u)
    return _finish_estimate(estimates, eps_seq, 2.0, exponents, "bbw", 1.0, oracle, _BBW_CONV_TOL)
