"""Classical constructions of fractional powers ``(-L)^s``.

Three independent routes to the same operator, reconciled against the exact
spectral evaluation in tests:

* the Balakrishnan integral over the resolvent, split at ``mu = 1`` with
  exact power substitutions on both halves; ``L`` is reduced once to its
  complex Schur form, so each quadrature node costs one ``O(d^2)``
  triangular solve and the route stays independent of the eigensystem.  The
  two halves are blocks of one :func:`~fracext.quadrature.integrate_unit`
  call, so each level solves the nodes of both in one back-substitution
  sweep; on the diagonal Schur factor of a Hermitian ``L`` a node costs one
  division per mode;
* inverse fractional powers ``(eps I - L)^{-alpha}``: ``[alpha]`` LAPACK
  triangular solves with ``eps I - T`` and, for the fractional part, the
  same resolvent integral with its resolvent shifted by ``eps``;
* the Berens-Butzer-Westphal limit of ``(e^{tL} - I)^k`` integrals with a
  Richardson-extrapolated truncation parameter, normalized by the closed
  form of ``c(s, k)``, which runs no quadrature.  It runs per mode on the
  eigencoordinates; its tail over ``[1, inf)`` puts each exponential of the
  binomial expansion on its steepest-descent ray, where it no longer
  oscillates, and integrates there with a double-exponential trapezoid rule.
"""

from dataclasses import dataclass, field
from math import comb, expm1, factorial, fsum, log

import numpy as np
from scipy.special import gamma

from .operators import Generator
from .quadrature import (
    _KERNEL_DECAY,
    _TAIL_TERMS,
    ConvergenceError,
    QuadratureSpec,
    extrapolation_spread,
    gauss_legendre_rule,
    integrate_unit,
    richardson_table,
    trapezoid_refine,
)

__all__ = [
    "FracOrder",
    "resolvent_frac_power",
    "balakrishnan",
    "balakrishnan_general",
    "balakrishnan_second_kind",
    "c_constant",
    "bbw_frac_power",
]

_NONINTEGER_TOL = 1e-9


@dataclass(frozen=True)
class FracOrder:
    """Noninteger order ``s > 0`` with cached integer and fractional parts."""

    s: float
    n: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        s = float(self.s)
        if not 0.0 < s < np.inf:
            raise ValueError(f"fractional order must be positive and finite, got {s}")
        if abs(s - round(s)) < _NONINTEGER_TOL:
            raise ValueError(f"fractional order must be noninteger, got {s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", int(np.floor(s)))
        object.__setattr__(self, "sigma", s - int(np.floor(s)))


def as_order(s):
    """Coerce a float or :class:`FracOrder` to a :class:`FracOrder`."""
    return s if isinstance(s, FracOrder) else FracOrder(float(s))


# -- the shifted resolvent integral -------------------------------------------------


def _shifted_triangular_solve(alpha, beta, tri, rhs):
    """Solve ``(alpha_j I + beta_j T) x_j = rhs_j`` for every node ``j``; shape ``(m, d)``.

    ``T`` is upper triangular.  ``alpha`` and ``beta`` are scalars or arrays of
    shape ``(m,)``, at least one of them an array; ``rhs`` is ``(d,)`` (shared
    by every node) or ``(m, d)``.  One back-substitution sweep over the ``d``
    rows solves all ``m`` systems at once, at ``O(m d)`` per row.  A diagonal
    ``T`` (the Schur factor of a Hermitian ``L``) needs no sweep: one division
    per node and mode, in real arithmetic when ``T``, ``alpha`` and ``beta``
    are real.
    """
    dim = tri.shape[0]
    # the d^2 - 1 entries after T[0, 0]: d - 1 rows of d off the diagonal and one on it
    if not tri.ravel()[1:].reshape(dim - 1, dim + 1)[:, :dim].any():
        eig = tri.diagonal()
        eig = eig if eig.imag.any() else eig.real
        den = np.reshape(alpha, (-1, 1)) + np.reshape(beta, (-1, 1)) * eig
        x = np.empty(den.shape, dtype=complex)
        if np.iscomplexobj(den):
            return np.divide(rhs, den, out=x)
        x.real, x.imag = np.real(rhs) / den, np.imag(rhs) / den
        return x
    diag = alpha + beta * tri.diagonal()[:, None]
    m = diag.shape[1]
    b = np.broadcast_to(rhs, (m, dim)).T
    x = np.empty((dim, m), dtype=complex)
    for i in range(dim - 1, -1, -1):
        x[i] = (b[i] - beta * (tri[i, i + 1:] @ x[i + 1:])) / diag[i]
    return x.T


def _joint_solve(tri, systems):
    """Solve the systems of every open block in one :func:`_shifted_triangular_solve` sweep.

    ``systems`` holds one ``(alpha, beta, rhs)`` per block, or ``None`` for a
    block that :func:`~fracext.quadrature.integrate_unit` has closed:
    ``alpha`` and ``beta`` broadcast to the block's ``(m,)`` nodes and
    ``rhs`` to ``(m, d)``; a ``(d,)`` vector that every block shares stays
    one vector, not a copy per node.  Returns one ``(m, d)`` solution per block, and ``None`` for a
    closed one.
    """
    live = [system for system in systems if system is not None]
    alphas, betas = zip(*(np.broadcast_arrays(alpha, beta) for alpha, beta, _ in live))
    sizes = [len(alpha) for alpha in alphas]
    rhs = [system[2] for system in live]
    if all(r is rhs[0] and np.ndim(r) == 1 for r in rhs):
        rhs = rhs[0]
    else:
        rhs = np.concatenate([np.broadcast_to(r, (m, tri.shape[0])) for r, m in zip(rhs, sizes)])
    x = _shifted_triangular_solve(np.concatenate(alphas), np.concatenate(betas), tri, rhs)
    parts = iter(np.split(x, np.cumsum(sizes)[:-1]))
    return [None if system is None else next(parts) for system in systems]


def _resolvent_integral(tri, w, sig, shift, quad, name):
    """``(sin(pi sig)/pi) int_0^inf mu^{-sig} ((mu + shift) I - T)^{-1} w dmu``, ``0 < sig < 1``.

    ``T`` is the triangular Schur factor of ``L`` and ``w`` a vector in its
    basis.  The integral is split at ``mu = 1``; ``mu = 1/v`` maps the outer
    half onto ``v^{sig-1} ((1 + shift v) I - v T)^{-1} w`` on ``(0, 1)``.
    Both halves carry a pure power endpoint singularity that the unit-interval
    driver removes exactly; they are its two blocks, so each level solves the
    nodes of both in one triangular sweep.  ``sig`` is first rounded so that
    both endpoint powers ``-sig`` and ``sig - 1`` are exact, and the
    prefactor is formed from the smaller of ``sig`` and ``1 - sig``: then the
    ``1/sig`` or ``1/(1-sig)`` the driver integrates and the prefactor cancel
    to full relative accuracy even for ``sig`` within ``1e-9`` of ``0`` or
    ``1``.
    """
    sig = 1.0 + (sig - 1.0)

    def halves(nodes):
        mu, v = nodes
        return _joint_solve(tri, [None if mu is None else (mu + shift, -1.0, w),
                                  None if v is None else (1.0 + shift * v, -v, w)])

    inner, outer = integrate_unit(halves, quad.tol, singular_power=[-sig, sig - 1.0],
                                  nodes0=quad.nodes, name=name)
    return np.sin(np.pi * min(sig, 1.0 - sig)) / np.pi * (inner + outer)


# -- inverse fractional powers ---------------------------------------------------


def resolvent_frac_power(gen: Generator, eps, alpha, u, quad=None):
    """Apply ``(eps I - L)^{-alpha}`` in the cached Schur basis ``L = Z T Z^H``.

    The integer part ``[alpha]`` is that many LAPACK triangular solves with
    ``eps I - T``; the fractional part ``sigma = alpha - [alpha]``, when
    nonzero, is the Balakrishnan-type resolvent integral

        ``(eps I - L)^{-sigma} w = (sin(pi sigma)/pi)
        int_0^inf mu^{-sigma} ((mu + eps) I - L)^{-1} w dmu``,

    evaluated by the same split tanh-sinh rule as :func:`balakrishnan`.
    ``Z`` is applied once to the result; the cached eigensystem is not used.
    """
    quad = quad or QuadratureSpec()
    if not 0 <= eps < np.inf:
        raise ValueError(f"shift must be nonnegative and finite, got {eps}")
    if not 0 < alpha < np.inf:
        raise ValueError(f"power must be positive and finite, got {alpha}")
    from scipy.linalg import solve_triangular  # deferred: importing scipy.linalg is slow

    tri, unitary = gen.schur
    w = unitary.conj().T @ gen._check_vector(u)
    whole = int(np.floor(alpha))
    for _ in range(whole):
        w = solve_triangular(eps * np.eye(gen.dim) - tri, w, check_finite=False)
    sig = alpha - whole
    if sig > 0.0:
        w = _resolvent_integral(tri, w, sig, eps, quad, "inverse fractional power")
    return unitary @ w


# -- Balakrishnan integrals ------------------------------------------------------


def balakrishnan(gen: Generator, s, u, quad=None):
    """Balakrishnan integral for ``(-L)^s u`` with ``0 < s < 1``.

    ``(sin(s pi)/pi) int_0^inf mu^{s-1} (mu I + A)^{-1} A u dmu`` with
    ``A = -L``: the resolvent integral of :func:`_resolvent_integral` at
    ``sig = 1 - s`` and no shift.  Everything runs in the cached complex
    Schur basis ``L = Z T Z^H``, independent of the cached eigensystem:
    ``A u`` is formed there as ``-T Z^H u``, each node costs one triangular
    back substitution, and ``Z`` is applied once to the sum.  For normal
    ``L`` (diagonal ``T``) forming ``A u`` per Schur mode keeps the roundoff
    of stiff modes out of the soft ones.
    """
    order = as_order(s)
    if order.n != 0:
        raise ValueError(f"plain Balakrishnan integral needs 0 < s < 1, got s={order.s}")
    quad = quad or QuadratureSpec()
    tri, unitary = gen.schur
    au = -(tri @ (unitary.conj().T @ gen._check_vector(u)))
    return unitary @ _resolvent_integral(tri, au, 1.0 - order.s, 0.0, quad, "balakrishnan")


def balakrishnan_general(gen: Generator, s, u, quad=None):
    """``(-L)^s u`` for any noninteger ``s > 0`` as the order ``s - [s]`` integral of ``A^[s] u``."""
    order = as_order(s)
    return balakrishnan(gen, FracOrder(order.sigma), gen.apply_minus_power(order.n, u), quad)


def balakrishnan_second_kind(gen: Generator, s, u, quad=None):
    """Alternative Balakrishnan formula on ``0 < s < 2`` used as a cross-check.

    ``(sin(s pi)/pi) int_0^inf mu^{s-1} [(mu I + A)^{-1} - mu/(1+mu^2)] A u dmu
    + sin(s pi / 2) A u``.  The outer half is rewritten as
    ``v^{1-s} (I + vA)^{-1} (v A u - A^2 u) / (1 + v^2)`` (exact algebra, no
    cancellation at ``v = 0``).  Everything, the ``sin(s pi / 2) A u`` term
    included, runs in the Schur basis as in :func:`balakrishnan`; on stiff
    normal ``L`` a dense ``A^2 u`` would put the roundoff of the stiff modes
    into the soft ones.
    """
    order = as_order(s)
    if not 0.0 < order.s < 2.0:
        raise ValueError(f"second-kind formula needs 0 < s < 2, got s={order.s}")
    quad = quad or QuadratureSpec()
    s_val = order.s
    tri, unitary = gen.schur
    au = -(tri @ (unitary.conj().T @ gen._check_vector(u)))
    a2u = -(tri @ au)

    def halves(nodes):
        mu, v = nodes
        inner, outer = _joint_solve(tri, [None if mu is None else (mu, -1.0, au),
                                          None if v is None else (1.0, -v, v[:, None] * au - a2u)])
        return [None if mu is None else inner - (mu / (1.0 + mu**2))[:, None] * au,
                None if v is None else outer / (1.0 + v**2)[:, None]]

    inner, outer = integrate_unit(halves, quad.tol, singular_power=[s_val - 1.0, 1.0 - s_val],
                                  nodes0=quad.nodes, name="balakrishnan-II")
    return unitary @ (np.sin(s_val * np.pi) / np.pi * (inner + outer)
                      + np.sin(s_val * np.pi / 2.0) * au)


# -- the Berens-Butzer-Westphal normalization constant ----------------------------


def _check_bbw_exponent(order, k):
    if int(k) != k or k < 1:
        raise ValueError(f"power index must be a positive integer, got {k}")
    if k <= order.s:
        raise ValueError(f"need k > s for a convergent integral, got k={k}, s={order.s}")
    return int(k)


def c_constant(s, k):
    """Normalization constant ``c(s, k) = int_0^inf (e^{-t} - 1)^k t^{-1-s} dt`` in closed form.

    ``c(s, k) = Gamma(-s) sum_{j=1..k} C(k,j) (-1)^{k-j} j^s``: expanding the
    power binomially and integrating each Taylor-regularized exponential
    against ``t^{-1-s}`` leaves one ``Gamma(-s) j^s`` per term.  For
    ``1 <= m = round(s) < k`` the sum with ``j^m`` in place of ``j^s``
    vanishes, so the terms are summed as ``j^m expm1((s - m) log j)``: near an
    integer the plain sum would cancel to the distance ``s - m``, against
    which ``Gamma(-s)`` is large.  No quadrature runs;
    :func:`fracext.verify.check_bbw_constant` compares the result with SciPy's
    QUADPACK.
    """
    order = as_order(s)
    k = _check_bbw_exponent(order, k)
    s_val, m = order.s, round(order.s)
    near = 1 <= m < k  # then the sum with j^m is 0: drop j^m from every term
    powers = [j**m * expm1((s_val - m) * log(j)) if near else j**s_val for j in range(1, k + 1)]
    terms = (comb(k, j) * (-1.0) ** (k - j) * p for j, p in enumerate(powers, 1))
    return float(gamma(-s_val) * fsum(terms))


# -- the Berens-Butzer-Westphal limit ----------------------------------------------


_BBW_LEVELS = 13  # cut-offs eps_j = eps0 2^-j, j < 13
_BBW_CONV_TOL = 1e-5  # relative spread of the extrapolants that counts as converged


def _bbw_tail(lam, s, k, quad):
    """``T(lam) = int_1^inf t^{-1-s} (e^{t lam} - 1)^k dt`` per mode (``Re lam < 0``).

    Binomially ``T = (-1)^k / s + sum_{j=1..k} C(k,j) (-1)^{k-j} I(j lam)``
    with ``I(z) = int_1^inf t^{-1-s} e^{zt} dt``.  On the steepest-descent ray
    ``t = 1 - u/z``, ``u >= 0``, the exponential no longer oscillates:
    ``I(z) = (e^z / -z) int_0^inf (1 - u/z)^{-1-s} e^-u du``, and
    ``Re(1 - u/z) >= 1`` keeps the power bounded (real for real ``lam``).
    Takahasi and Mori's double-exponential map ``u = exp(x - e^-x)`` makes
    the integrand decay double-exponentially at both ends of the ``x``-axis,
    so one trapezoid lattice on ``[-log D, log D]`` (``D = _KERNEL_DECAY``)
    serves every mode and every ``j``.

    Where ``rho = k |lam| < 1`` the binomial terms cancel.  There ``t = r/rho``
    gives ``T(lam) = rho^s [T(mu) + int_rho^1 r^{-1-s} (e^{r mu} - 1)^k dr]``
    with ``mu = lam/rho`` on the circle ``k |mu| = 1``, where the ray rule is
    accurate, and the inner integral is the series
    ``sum_{n>=k} D_n mu^n (1 - rho^{n-s}) / (n! (n - s))``,
    ``D_n = sum_j C(k,j) (-1)^{k-j} j^n``, whose terms shrink like ``1/n!``.
    ``expm1`` forms ``1 - rho^{n-s}``, so the ``n = k`` term keeps its digits
    even for ``s`` just below ``k``.
    """
    lam = np.asarray(lam)
    rho = np.minimum(k * np.abs(lam), 1.0)
    mu = lam / rho
    z = np.multiply.outer(np.arange(1.0, k + 1.0), mu)
    weights = np.array([comb(k, j) * (-1.0) ** (k - j) for j in range(1, k + 1)])
    scale = weights[:, None] * np.exp(z) / -z

    def ray(x):
        shrink = np.exp(-x)
        u = np.exp(x - shrink)
        du = u * (1.0 + shrink) * np.exp(-u)
        powers = (1.0 - np.multiply.outer(u, 1.0 / z)) ** (-1.0 - s)
        return du[:, None] * (powers * scale).sum(axis=1)

    reach = log(_KERNEL_DECAY)
    tail = (-1.0) ** k / s + trapezoid_refine(ray, -reach, reach, quad.tol, name="bbw tail")
    small = rho < 1.0
    if small.any():
        n = np.arange(k, k + _TAIL_TERMS)
        # D_n / n!, exact in integers and then rounded once
        coeffs = [sum(comb(k, j) * (-1) ** (k - j) * j**m for j in range(1, k + 1)) / factorial(m)
                  for m in n.tolist()]
        rs, ms = rho[small], mu[small]
        terms = -np.expm1(np.multiply.outer(n - s, np.log(rs))) * ms ** n[:, None]
        tail[small] = rs**s * (tail[small] + (np.array(coeffs) / (n - s)) @ terms)
    return tail


def _bbw_ladder(gen: Generator, s, k, u, quad=None):
    """The truncated BBW integrals along the cut-offs: ``(eps_seq, estimates, exponents)``.

    ``estimates[j] = (1/c(s,k)) int_{eps_j}^inf (e^{tL} - I)^k u t^{-1-s} dt``
    along ``eps_j = eps0 2^{-j}``.  The truncated mass below ``eps`` scales
    like ``eps^{k-s}``, so the first two Richardson elimination exponents are
    ``k - s`` and ``k - s + 1``.  Everything runs per mode on the
    eigencoordinates, and one ``V`` product maps every ladder entry back.
    The integrals are assembled once: tanh-sinh over ``[eps0, 1]``, the tail
    over ``[1, inf)`` by :func:`_bbw_tail` on each mode's steepest-descent
    rays, and Gauss-Legendre panels over each ``[eps_{j+1}, eps_j]``.

    ``eps0 = min(0.1, 1/||L||_2)`` puts the first cut-off at the decay time
    ``1/||L||_2`` of the stiffest mode instead of far past it, so the
    extrapolated truncation error is in its asymptotic regime; the cap keeps
    ``eps0 < 1``, which the base interval ``[eps0, 1]`` needs, and leaves
    every generator with ``||L||_2 <= 10`` at ``0.1``.
    """
    order = as_order(s)
    k = _check_bbw_exponent(order, k)
    quad = quad or QuadratureSpec()
    u = gen._check_vector(u)
    eps0 = min(0.1, 1.0 / gen.norm2)
    s_val = order.s
    lam, coords = gen._modes(u)  # on a real spectrum a real expm1 is several times cheaper

    def integrand(ts):
        # (e^{tL} - I)^k u in eigencoordinates, times t^{-1-s}; products, as pow()
        # of a negative real base is slow
        base = np.expm1(np.multiply.outer(ts, lam))
        factors = base
        for _ in range(k - 1):
            factors = factors * base
        return factors * coords * (ts ** (-1.0 - s_val))[:, None]

    def inner_base(x):
        t = eps0 + (1.0 - eps0) * x
        return integrand(t) * (1.0 - eps0)

    base = integrate_unit(inner_base, quad.tol, singular_power=0.0, nodes0=quad.nodes,
                          name="bbw base")
    base = base + _bbw_tail(lam, s_val, k, quad) * coords

    eps_seq = [eps0 * 2.0 ** (-j) for j in range(_BBW_LEVELS)]
    glx, glw = gauss_legendre_rule(32)
    tails = [base]
    for j in range(_BBW_LEVELS - 1):
        lo, hi = eps_seq[j + 1], eps_seq[j]
        t = 0.5 * (hi - lo) * glx + 0.5 * (hi + lo)
        seg = (0.5 * (hi - lo)) * (glw[:, None] * integrand(t)).sum(axis=0)
        tails.append(tails[-1] + seg)

    estimates = gen._from_modes(np.array(tails) / c_constant(order, k))
    return eps_seq, list(estimates), [k - s_val, k - s_val + 1.0]


def bbw_frac_power(gen: Generator, s, k, u, quad=None):
    """``(-L)^s u`` as the extrapolated Berens-Butzer-Westphal limit.

    Richardson-extrapolates the truncated integrals
    ``(1/c(s,k)) int_eps^inf (e^{tL} - I)^k u t^{-1-s} dt`` of
    :func:`_bbw_ladder` in ``eps``.  A non-Cauchy extrapolant sequence (spread
    above ``_BBW_CONV_TOL`` relative) raises :class:`ConvergenceError`;
    :func:`fracext.traces.bbw_estimate` reports the same ladder with its table
    and a ``converged`` flag instead.
    """
    _, estimates, exponents = _bbw_ladder(gen, s, k, u, quad)
    levels = richardson_table(estimates, exponents)
    value = levels[-1][-1]
    spread = extrapolation_spread(levels)
    if spread > _BBW_CONV_TOL * max(1.0, float(np.linalg.norm(value))):
        raise ConvergenceError(
            "BBW limit: eps-sequence is not Cauchy", achieved=spread, required=_BBW_CONV_TOL
        )
    return value
