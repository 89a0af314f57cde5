"""Acceptance checks and condensed module invariants, runnable from the CLI.

Each check returns a :class:`CheckResult`; ``run_all`` executes the eleven
acceptance criteria followed by the per-module invariant sweeps.  The pytest
suite asserts the same functions, so the CLI ``verify`` method and the test
suite cannot drift apart.
"""

import csv
import os
import tempfile
import time
from dataclasses import dataclass
from math import expm1

import numpy as np
from scipy.special import gamma, iv, kv

from .bessel import BesselParams, ivp_classify, ode_cross_solve, phi
from .extension import (
    exp_tail,
    explicit_poly_part,
    extend_explicit,
    extend_subordination,
    normalization_check,
    pde_residual,
    radial_power,
)
from .fracpow import (
    FracOrder,
    balakrishnan_general,
    balakrishnan_second_kind,
    bbw_frac_power,
    c_constant,
    resolvent_frac_power,
)
from .operators import Generator, random_generator
from .traces import (
    default_ysched,
    domain_membership,
    initial_condition_suite,
    trace_constants,
    trace_incremental,
    trace_neumann,
)

_TINY = 1e-300


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def summary(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


def _rel(value, reference):
    return float(
        np.linalg.norm(value - reference) / max(np.linalg.norm(reference), _TINY)
    )


def dirichlet_sine_power(size, s, u):
    """``(-L)^s u`` for the scaled Dirichlet second-difference matrix.

    Built directly from the sine eigenbasis ``v_k(i) = sin(ik pi/(n+1))`` and
    eigenvalues ``4 (n+1)^2 sin^2(k pi / (2(n+1)))``: an oracle independent of
    any numerical eigendecomposition.
    """
    basis, mu = _sine_modes(size)
    return basis @ (mu**s * (basis @ u))


def _sine_modes(size):
    """Orthonormal (and symmetric) sine basis and the eigenvalues of ``-L``."""
    k = np.arange(1, size + 1)
    basis = np.sin(np.outer(k, k) * np.pi / (size + 1)) * np.sqrt(2.0 / (size + 1))
    mu = 4.0 * (size + 1) ** 2 * np.sin(k * np.pi / (2.0 * (size + 1))) ** 2
    return basis, mu


# -- acceptance criteria -------------------------------------------------------------


def check_scalar_closed_form():
    """U(y) for the scalar unit-decay generator equals e^-y to 1e-8 (128 nodes)."""
    gen = Generator(np.diag([-1.0]))
    one = np.ones(1, dtype=complex)
    worst = 0.0
    for y in np.arange(0.1, 2.0001, 0.1):
        val = extend_subordination(gen, 0.5, one, float(y))
        worst = max(worst, abs(val[0] - np.exp(-y)))
    return CheckResult(
        "criterion 01: scalar closed form U(y)=e^-y",
        worst <= 1e-8,
        f"max abs err {worst:.2e} (tol 1e-8)",
    )


def check_normalization():
    """Kernel normalization equals 1 to 1e-10 across orders and heights."""
    worst = 0.0
    for s in (0.3, 0.5, 1.5, 2.7):
        for y in (0.1, 1.0, 10.0):
            worst = max(worst, abs(normalization_check(s, y) - 1.0))
    return CheckResult(
        "criterion 02: kernel normalization = 1",
        worst <= 1e-10,
        f"max abs err {worst:.2e} (tol 1e-10)",
    )


def check_oracle_reconciliation(seeds=20):
    """All constructions reproduce the spectral value on random 8x8 generators."""
    tols = {"balakrishnan": 1e-7, "bbw": 1e-4, "neumann": 1e-5, "incremental": 1e-3}
    worst = {key: 0.0 for key in tols}
    for seed in range(seeds):
        gen = random_generator(8, seed)
        u = np.random.default_rng(1000 + seed).standard_normal(8) + 0j
        for s in (0.3, 0.5, 1.5, 2.7):
            order = FracOrder(s)
            oracle = gen.frac_power(s, u)
            worst["balakrishnan"] = max(
                worst["balakrishnan"], _rel(balakrishnan_general(gen, order, u), oracle)
            )
            worst["bbw"] = max(
                worst["bbw"], _rel(bbw_frac_power(gen, order, order.n + 1, u), oracle)
            )
            worst["neumann"] = max(
                worst["neumann"], trace_neumann(gen, order, u).oracle_err
            )
            if order.n <= 1:
                worst["incremental"] = max(
                    worst["incremental"], trace_incremental(gen, order, u).oracle_err
                )
    passed = all(worst[key] <= tols[key] for key in tols)
    detail = ", ".join(f"{key} {worst[key]:.2e}/{tols[key]:.0e}" for key in tols)
    return CheckResult("criterion 03: oracle reconciliation (20 seeds)", passed, detail)


def check_constants():
    """Trace constants: special values, closed forms, and the [s]! conversion."""
    gaps = [
        abs(trace_constants(0.5).c_s - (-1.0)),
        abs(trace_constants(1.5).c_s - 2.0),
        abs(trace_constants(1.5).d_s - 4.0 / 3.0),
    ]
    special = max(gaps)
    rng = np.random.default_rng(7)
    closed = 0.0
    for s in np.concatenate([rng.uniform(0.02, 0.98, 10), rng.uniform(1.02, 1.98, 10)]):
        c_gen = trace_constants(float(s)).c_s
        if s < 1.0:
            c_ref = -gamma(1.0 - s) / (4.0 ** (s - 0.5) * gamma(s))
        else:
            c_ref = gamma(2.0 - s) / (4.0 ** (s - 1.5) * gamma(s))
        closed = max(closed, abs(c_gen - c_ref) / max(1.0, abs(c_ref)))
    gen = Generator(np.diag([-1.0, -4.0]))
    u = np.array([1.0, 1.0], dtype=complex)
    radial = trace_neumann(gen, 2.5, u, form="radial")
    operator = trace_neumann(gen, 2.5, u, form="operator")
    factor_err = _rel(operator.raw_limit, 2.0 * radial.raw_limit)
    passed = special <= 1e-14 and closed <= 1e-12 and factor_err <= 1e-5
    return CheckResult(
        "criterion 04: trace constants",
        passed,
        f"special {special:.1e}/1e-14, closed-form {closed:.1e}/1e-12, "
        f"[s]! factor {factor_err:.1e}/1e-5",
    )


def check_initial_conditions():
    """Initial-condition table at s=2.5 on diag(-1,-4); tolerance 1e-4."""
    gen = Generator(np.diag([-1.0, -4.0]))
    u = np.array([1.0, 1.0], dtype=complex)
    report = initial_condition_suite(gen, 2.5, u)
    value_err = max(l.error for l in report.lines if l.kind == "radial_value")
    zero_err = max(l.error for l in report.lines if l.kind == "weighted_derivative_zero")
    passed = value_err <= 1e-4 and zero_err <= 1e-4
    return CheckResult(
        "criterion 05: initial-condition table (s=2.5)",
        passed,
        f"value limits {value_err:.2e}, weighted-derivative limits {zero_err:.2e} (tol 1e-4)",
    )


def check_pde_residuals(seeds=(3, 11, 19)):
    """Extension ODE residuals on random 8x8 generators."""
    worst_second, worst_higher = 0.0, 0.0
    for seed in seeds:
        gen = random_generator(8, seed)
        u = np.random.default_rng(2000 + seed).standard_normal(8) + 0j
        for s in (0.3, 1.5, 2.7):
            for y in (0.1, 1.0, 5.0):
                worst_second = max(worst_second, pde_residual(gen, s, u, y))
                worst_higher = max(
                    worst_higher, pde_residual(gen, s, u, y, kind="higher")
                )
    passed = worst_second <= 1e-8 and worst_higher <= 1e-7
    return CheckResult(
        "criterion 06: extension ODE residuals",
        passed,
        f"second-order {worst_second:.2e}/1e-8, higher-order {worst_higher:.2e}/1e-7",
    )


def check_uniqueness_cross():
    """Series reconstruction from boundary data matches subordination; verdict table."""
    worst = 0.0
    mats = [np.diag([-1.0, -4.0]), np.array([[-2.0, 0.5], [0.3, -1.0]])]
    for mat in mats:
        gen = Generator(mat)
        u = np.array([1.0, -0.5], dtype=complex)
        for s in (0.3, 0.6):
            order = FracOrder(s)
            a = 1.0 - 2.0 * s
            data = trace_constants(order).c_s * gen.frac_power(s, u)
            params = BesselParams(a=a)
            for y in np.linspace(0.05, 1.5, 12):
                rebuilt = ode_cross_solve(gen, a, u, data, float(y), params)
                direct = extend_subordination(gen, order, u, float(y))
                worst = max(worst, _rel(rebuilt, direct))
    table_ok = (
        ivp_classify(0.5, 0.5) == "unique"
        and ivp_classify(-1.0, -1.0) == "unique"
        and ivp_classify(0.5, 0.7) == "non_unique"
        and ivp_classify(0.5, 0.2) == "forced_data"
        and ivp_classify(-1.5, -1.5) == "forced_data"
    )
    passed = worst <= 1e-6 and table_ok
    return CheckResult(
        "criterion 07: uniqueness cross-check",
        passed,
        f"reconstruction rel err {worst:.2e}/1e-6, verdict table {'ok' if table_ok else 'BROKEN'}",
    )


def check_bbw_constant():
    """c(1/2,1) = -2 sqrt(pi), and the closed form matches QUADPACK to 1e-12 relative.

    The reference is SciPy's ``quad`` with its algebraic endpoint weight, on
    ``t^{k-1-s} (expm1(-t)/t)^k`` over ``(0, 1]`` and, after ``t = 1/v``, on
    ``v^{s-1} expm1(-1/v)^k`` over ``(0, 1]``: it shares no code with
    :func:`~fracext.fracpow.c_constant`.  Both the gap and QUADPACK's own
    error estimate must stay within ``1e-12 |c|``.
    """
    from scipy.integrate import quad  # deferred: importing scipy.integrate is slow

    anchor = abs(c_constant(0.5, 1) + 2.0 * np.sqrt(np.pi))
    gap = estimate = 0.0
    for s, k in ((0.3, 1), (0.5, 1), (1.5, 2), (2.7, 3)):
        exact = c_constant(s, k)
        inner, inner_err = quad(lambda t: (expm1(-t) / t if t else -1.0) ** k, 0.0, 1.0,
                                weight="alg", wvar=(k - 1 - s, 0), epsabs=0, epsrel=1e-13)
        outer, outer_err = quad(lambda v: (expm1(-1.0 / v) if v else -1.0) ** k, 0.0, 1.0,
                                weight="alg", wvar=(s - 1, 0), epsabs=0, epsrel=1e-13)
        gap = max(gap, abs(inner + outer - exact) / abs(exact))
        estimate = max(estimate, (inner_err + outer_err) / abs(exact))
    passed = anchor <= 1e-8 and gap <= 1e-12 and estimate <= 1e-12
    return CheckResult(
        "criterion 08: normalization constant c(s,k)",
        passed,
        f"c(1/2,1) abs err {anchor:.2e}, QUADPACK-vs-closed-form rel gap {gap:.2e} "
        f"(error estimate {estimate:.2e}, tol 1e-12)",
    )


def check_cross_representation():
    """Explicit representation and radial modes agree with subordination."""
    gen = Generator(np.diag([-0.5, -1.0, -2.0, -4.0]))
    u = np.array([1.0, -1.0, 0.5, 2.0], dtype=complex)
    worst_u = 0.0
    for y in (0.1, 1.0, 3.0):
        worst_u = max(
            worst_u,
            _rel(extend_explicit(gen, 2.5, u, y), extend_subordination(gen, 2.5, u, y)),
        )
    gen2 = Generator(np.diag([-1.0, -4.0]))
    u2 = np.array([1.0, 1.0], dtype=complex)
    worst_m = 0.0
    for m in (1, 2):
        worst_m = max(
            worst_m,
            _rel(
                radial_power(gen2, 2.5, u2, m, 0.5, mode="from_u"),
                radial_power(gen2, 2.5, u2, m, 0.5, mode="from_f"),
            ),
        )
    passed = worst_u <= 1e-8 and worst_m <= 1e-7
    return CheckResult(
        "criterion 09: cross-representation",
        passed,
        f"explicit vs subordination {worst_u:.2e}/1e-8, radial modes {worst_m:.2e}/1e-7",
    )


def check_cli_demo():
    """`fracext trace_neumann` on laplacian1d:32 matches the sine-basis oracle."""
    from .cli import main as cli_main

    size = 32
    started = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "demo.cfg")
        out = os.path.join(tmp, "demo.csv")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write("matrix = laplacian1d:32\nu = ones\ns = 0.5\n")
            handle.write(f"out = {out}\n")
        status = cli_main(["trace_neumann", "--config", cfg])
        elapsed = time.time() - started
        if status != 0:
            return CheckResult("criterion 10: CLI demo", False, f"exit status {status}")
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    deepest = max(int(row["level"]) for row in rows)
    final = [row for row in rows if int(row["level"]) == deepest][-1]
    value = np.array(
        [float(final[f"re_{i}"]) + 1j * float(final[f"im_{i}"]) for i in range(1, size + 1)]
    )
    oracle = dirichlet_sine_power(size, 0.5, np.ones(size))
    err = _rel(value, oracle)
    passed = err <= 1e-6 and elapsed < 10.0
    return CheckResult(
        "criterion 10: CLI demo (laplacian1d:32)",
        passed,
        f"sine-oracle rel err {err:.2e}/1e-6, runtime {elapsed:.2f}s/10s",
    )


def check_stiff_radial_powers():
    """Radial powers on laplacian1d:256 match the sine-basis Bessel-K values to 1e-9.

    Per mode ``(2/y d/dy)^m U = (-2a)^m 2^{1-s}/Gamma(s) z^{s-m} K_{s-m}(z)``
    with ``a = -lam`` and ``z = sqrt(a) y``; ``y^2 ||L||_2`` reaches ~7e6 here.
    """
    from .cli import builtin_matrix

    size = 256
    gen = builtin_matrix(f"laplacian1d:{size}")
    basis, a = _sine_modes(size)
    u = np.random.default_rng(256).standard_normal(size) + 0j
    coords = basis @ u
    worst = 0.0
    for s in (0.3, 1.5, 2.7):
        for y in (0.1, 1.0, 5.0):
            z = np.sqrt(a) * y
            for m in range(int(s) + 2):
                modes = (-2.0 * a) ** m * 2.0 ** (1.0 - s) / gamma(s) * z ** (s - m) * kv(s - m, z)
                got = radial_power(gen, s, u, m, y)
                worst = max(worst, _rel(got, basis @ (modes * coords)))
    return CheckResult(
        "criterion 11: stiff radial powers (laplacian1d:256)",
        worst <= 1e-9,
        f"max rel err {worst:.2e} (tol 1e-9)",
    )


# -- condensed module invariants -----------------------------------------------------


def invariant_semigroup():
    """Composition law, generator limit, uniform bound, resolvent bound, s=1 power."""
    gen = random_generator(6, 5)
    u = np.random.default_rng(55).standard_normal(6) + 0j
    rng = np.random.default_rng(56)
    comp = 0.0
    for _ in range(8):
        t1, t2 = rng.uniform(0.0, 10.0, 2)
        comp = max(
            comp,
            float(
                np.linalg.norm(
                    gen.semigroup(t1 + t2, u) - gen.semigroup(t1, gen.semigroup(t2, u))
                )
            )
            / float(np.linalg.norm(u)),
        )
    hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    errs = [
        float(np.linalg.norm((gen.semigroup(h, u) - u) / h - gen.apply(u))) for h in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    bound = max(
        float(np.linalg.norm(gen.semigroup(t, u))) for t in np.linspace(0.0, 20.0, 41)
    ) / float(np.linalg.norm(u))
    res = 0.0
    eye = np.eye(gen.dim)
    for mu in np.logspace(-3, 3, 25):
        res = max(
            res, float(np.linalg.norm(mu * np.linalg.inv(mu * eye - gen.matrix), 2))
        )
    s1 = _rel(gen.frac_power(1.0, u), -gen.apply(u))
    passed = (
        comp <= 1e-11
        and slope >= 0.9
        and bound <= gen.bound_M
        and res <= gen.bound_M * (1.0 + 1e-9)
        and s1 <= 1e-12
    )
    return CheckResult(
        "invariant: semigroup/resolvent laws",
        passed,
        f"composition {comp:.1e}, limit order {slope:.2f}, bound {bound:.3f}<=M={gen.bound_M:.3f}, "
        f"resolvent sup {res:.3f}, s=1 {s1:.1e}",
    )


def invariant_resolvent():
    """Both resolvent paths: the Hermitian spectral solve and the dense LU.

    ``laplacian1d:256`` takes the spectral solve through its unitary ``V``
    with one refinement step; its oracle is the sine basis, ``1/(mu + a_k)``
    per mode, independent of any eigensolver.  ``random_generator(8, 23)``
    takes the LU, checked by the round trip ``mu x - L x = u``.
    """
    from .cli import builtin_matrix

    size = 256
    lap = builtin_matrix(f"laplacian1d:{size}")
    basis, a = _sine_modes(size)
    rng = np.random.default_rng(258)
    u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    coords = basis @ u
    shifts = (0.5, 5.0 + 5.0j, 50.0)
    spectral = max(_rel(lap.resolvent(mu, u), basis @ (coords / (mu + a))) for mu in shifts)
    gen = random_generator(8, 23)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    roundtrip = 0.0
    for mu in shifts:
        x = gen.resolvent(mu, v)
        roundtrip = max(roundtrip, _rel(mu * x - gen.apply(x), v))
    passed = spectral <= 1e-12 and roundtrip <= 1e-12
    return CheckResult(
        "invariant: resolvent paths",
        passed,
        f"Hermitian vs sine basis {spectral:.1e}/1e-12, LU round trip {roundtrip:.1e}/1e-12",
    )


def invariant_yosida():
    """Bounded regularization: inverse convergence and the defect identity."""
    gen = random_generator(6, 9)
    u = np.random.default_rng(77).standard_normal(6) + 0j
    eye = np.eye(gen.dim)
    inv_exact = np.linalg.inv(eye - gen.matrix)
    gaps = []
    defects = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        reg = gen.yosida(eps)
        gaps.append(float(np.linalg.norm(np.linalg.inv(eye - reg.matrix) - inv_exact, 2)))
        # defect f_eps = A U_eps - A_eps U_eps evaluated two ways
        a_mat = -gen.matrix
        u_eps = np.linalg.solve(eye + eps * a_mat, u)
        direct = a_mat @ u_eps - (-reg.matrix) @ u_eps
        au = a_mat @ u
        inner = np.linalg.solve(eye / eps + a_mat, au)
        identity = np.linalg.solve(eye / eps + a_mat, a_mat @ inner) / eps
        defects.append((float(np.linalg.norm(direct)), _rel(direct, identity)))
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    vanishing = defects[-1][0] < defects[0][0] * 1e-3
    matches = max(d[1] for d in defects) <= 1e-9
    passed = monotone and vanishing and matches
    return CheckResult(
        "invariant: bounded regularization",
        passed,
        f"inverse gap monotone={monotone}, defect {defects[0][0]:.1e}->{defects[-1][0]:.1e}, "
        f"identity match {max(d[1] for d in defects):.1e}",
    )


def invariant_inverse_law():
    """Negative power composed with the positive power returns the input.

    On a random matrix the composition is checked directly.  On the stiff
    ``laplacian1d:128`` the negative power is compared with the closed-form
    sine-basis ``(-L)^{-s}``: composing there is ill-conditioned, since
    ``(-L)^s u`` spans ``(||L|| / min|lam|)^s ~ 2e10`` (at ``s = 2.7``) and
    roundoff at ``eps`` of its stiff modes lands in the soft ones.
    """
    from .cli import builtin_matrix

    gen = random_generator(6, 13)
    u = np.random.default_rng(99).standard_normal(6) + 0j
    worst = 0.0
    for s in (0.3, 0.5, 1.5, 2.7):
        via = resolvent_frac_power(gen, 0.0, s, gen.frac_power(s, u))
        worst = max(worst, _rel(via, u))
    lap = builtin_matrix("laplacian1d:128")
    u = np.random.default_rng(128).standard_normal(128) + 0j
    for s in (0.3, 1.5, 2.7):
        via = resolvent_frac_power(lap, 0.0, s, u)
        worst = max(worst, _rel(via, dirichlet_sine_power(128, -s, u)))
    return CheckResult(
        "invariant: inverse law (-L)^-s (-L)^s = I",
        worst <= 1e-8,
        f"max rel err {worst:.2e} (tol 1e-8)",
    )


def invariant_extension_bounds():
    """Boundedness by M, monotone continuity at 0, and commutation with (-L)^-s."""
    gen = Generator(np.diag([-1.0, -4.0]))
    u = np.array([1.0, 0.5], dtype=complex)
    s = 0.7
    norm_u = float(np.linalg.norm(u))
    bounded = all(
        float(np.linalg.norm(extend_subordination(gen, s, u, float(y))))
        <= gen.bound_M * norm_u * (1.0 + 1e-12)
        for y in (0.1, 0.5, 1.0, 3.0, 10.0)
    )
    gaps = [
        float(np.linalg.norm(extend_subordination(gen, s, u, 2.0**-j) - u))
        for j in range(11)
    ]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(10))
    commute = 0.0
    for y in (0.3, 1.0):
        left = extend_subordination(gen, s, gen.frac_power(-s, u), y)
        right = gen.frac_power(-s, extend_subordination(gen, s, u, y))
        commute = max(commute, _rel(left, right))
    passed = bounded and monotone and commute <= 1e-9
    return CheckResult(
        "invariant: extension bounds/continuity/commutation",
        passed,
        f"bounded={bounded}, monotone={monotone}, commutation {commute:.1e}/1e-9",
    )


def invariant_helper_identities():
    """d/dr relations of the tail and polynomial helpers (central differences)."""
    gen = Generator(np.diag([-1.0, -4.0]))
    u = np.array([1.0, 1.0], dtype=complex)
    order = FracOrder(2.5)
    h = 1e-5
    worst = 0.0
    for r in (0.2, 0.7, 1.5, 3.0):
        for n in (1, 2, 3):
            diff = (exp_tail(n, r + h) - exp_tail(n, r - h)) / (2 * h)
            worst = max(worst, abs(diff + exp_tail(n - 1, r)))
        for start in (0, 1):
            diff = (
                explicit_poly_part(gen, order, u, start, order.n, r + h)
                - explicit_poly_part(gen, order, u, start, order.n, r - h)
            ) / (2 * h)
            target = -explicit_poly_part(gen, order, u, start + 1, order.n, r)
            worst = max(worst, float(np.linalg.norm(diff - target)))
    return CheckResult(
        "invariant: helper derivative identities",
        worst <= 1e-8,
        f"max abs err {worst:.2e} (tol 1e-8)",
    )


def invariant_commutator_identity():
    """The operator commutation rule on analytic Gaussian profiles."""
    gen = Generator(np.diag([-1.0, -4.0]))
    w = np.array([1.0, -2.0], dtype=complex)
    worst = 0.0
    for a in (-1.0, 0.5):
        for beta in (0.5, 2.0):
            for y in (0.3, 1.0):
                g_val = np.exp(-beta * y * y)
                w0 = g_val * w
                w1 = -2.0 * beta * y * g_val * w
                w2 = (-2.0 * beta + 4.0 * beta**2 * y * y) * g_val * w
                w3 = (12.0 * beta**2 * y - 8.0 * beta**3 * y**3) * g_val * w
                lhs = gen.apply(-4.0 * beta * w0) + (a / y) * (-4.0 * beta * w1) - 4.0 * beta * w2
                q1 = gen.apply(w1) + (a - 2.0) * (w2 / y - w1 / (y * y)) + w3
                rhs = (2.0 / y) * q1
                worst = max(worst, float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(w)))
    return CheckResult(
        "invariant: radial commutation identity",
        worst <= 1e-9,
        f"max rel err {worst:.2e} (tol 1e-9)",
    )


def invariant_bessel_series():
    """Boundary-data matrix, entirety under budget doubling, and the I-form."""
    a, lam = 0.5, 1.0
    p = BesselParams(a=a, lam=lam)
    y0 = 1e-4
    mat = np.array(
        [
            [phi(1, y0, p), phi(2, y0, p) / (y0 ** (1.0 - a) / (1.0 - a))],
            [y0**a * phi(1, y0, p, deriv=1), y0**a * phi(2, y0, p, deriv=1)],
        ]
    )
    boundary = float(np.abs(mat - np.array([[1.0, 1.0], [0.0, 1.0]])).max())
    # entirety: doubling the budget changes nothing once converged
    entire = 0.0
    for lam_big in (1.0, 25.0, 100.0):
        p1 = BesselParams(a=a, lam=lam_big, max_terms=200)
        p2 = BesselParams(a=a, lam=lam_big, max_terms=400)
        entire = max(entire, abs(phi(1, 1.0, p1) - phi(1, 1.0, p2)))
    nu = (1.0 - a) / 2.0
    iform = 0.0
    for y in (0.3, 1.0, 2.5):
        lhs = phi(1, y, p)
        rhs = gamma(1.0 - nu) * (np.sqrt(lam) * y / 2.0) ** nu * iv(-nu, np.sqrt(lam) * y)
        iform = max(iform, abs(lhs - rhs) / abs(rhs))
    passed = boundary <= 1e-6 and entire <= p1.trunc_tol and iform <= 1e-9
    return CheckResult(
        "invariant: Frobenius series structure",
        passed,
        f"boundary matrix {boundary:.1e}/1e-6, budget-doubling {entire:.1e}, I-form {iform:.1e}/1e-9",
    )


def invariant_second_kind():
    """The alternative 0<s<2 integral agrees with the composed construction."""
    gen = random_generator(5, 21)
    u = np.random.default_rng(22).standard_normal(5) + 0j
    worst = 0.0
    for s in (0.3, 0.7, 1.5, 1.9):
        worst = max(
            worst,
            _rel(balakrishnan_second_kind(gen, s, u), gen.frac_power(s, u)),
        )
    return CheckResult(
        "invariant: alternative Balakrishnan branch",
        worst <= 1e-7,
        f"max rel err {worst:.2e} (tol 1e-7)",
    )


def invariant_membership_stability():
    """Membership verdicts are stable under schedule refinement."""
    gen = random_generator(6, 31)
    u = np.random.default_rng(33).standard_normal(6) + 0j
    flag8, est8 = domain_membership(gen, 1.5, u, ysched=default_ysched(count=8))
    flag12, est12 = domain_membership(gen, 1.5, u, ysched=default_ysched(count=12))
    gap = _rel(est8.value, est12.value)
    passed = flag8 and flag12 and gap <= 1e-4
    return CheckResult(
        "invariant: membership refinement stability",
        passed,
        f"depth-8 {flag8}, depth-12 {flag12}, estimate gap {gap:.1e}",
    )


CRITERIA = (
    check_scalar_closed_form,
    check_normalization,
    check_oracle_reconciliation,
    check_constants,
    check_initial_conditions,
    check_pde_residuals,
    check_uniqueness_cross,
    check_bbw_constant,
    check_cross_representation,
    check_cli_demo,
    check_stiff_radial_powers,
)

INVARIANTS = (
    invariant_semigroup,
    invariant_resolvent,
    invariant_yosida,
    invariant_inverse_law,
    invariant_extension_bounds,
    invariant_helper_identities,
    invariant_commutator_identity,
    invariant_bessel_series,
    invariant_second_kind,
    invariant_membership_stability,
)


def run_all(verbose=False):
    """Run every acceptance criterion plus the invariant sweeps."""
    results = []
    for check in CRITERIA + INVARIANTS:
        started = time.time()
        result = check()
        if verbose:
            result.detail += f" [{time.time() - started:.2f}s]"
        results.append(result)
    return results
