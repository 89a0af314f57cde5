"""Seeded inputs, operations and independent oracles for the benchmark workloads.

Every matrix is generated here together with the eigenpairs it was built
from, so each result is checked against an oracle that does not use the
eigendecomposition the library computes:

* ``laplacian1d:n`` is the scaled Dirichlet second-difference matrix; its
  oracle is the closed-form sine basis (``fracext.verify.dirichlet_sine_power``
  for powers).
* ``random:n`` and ``complex:n`` are non-normal matrices ``V diag V^{-1}``
  with ``V`` drawn from the seed and a fixed lattice spectrum in the open
  left half-plane (real for ``random``, complex for ``complex``).

Profiles are checked per mode against ``(2/Gamma(s)) (z/2)^s K_s(z)`` with
``z = sqrt(-lam) y``, and ``ode_cross_solve`` against the scalar
``fracext.phi`` per mode.  Oracles are evaluated lazily, outside any
operation timer, and cached.
"""

import contextlib
import csv
import functools
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma, kv

import fracext as fx
import fracext.cli
from fracext.verify import dirichlet_sine_power

WORKLOADS = ("extension_stiff", "resolvent_dense", "factor_apply")

S_VALUES = (0.3, 1.5, 2.7)

# Oracle tolerances of acceptance criterion 03; every other route uses 1e-7.
TOL_BALAKRISHNAN = 1e-7
TOL_BBW = 1e-4
TOL_NEUMANN = 1e-5
TOL_INCREMENTAL = 1e-3
TOL_OTHER = 1e-7
TOL_IC = 1e-4  # initial_condition_suite's own line tolerance; its lines are its oracle

PROFILE_GRID = np.geomspace(0.05, 2.0, 12)
YOSIDA_EPS = 1e-2
SEMIGROUP_TIMES = (1e-3, 1e-2, 1e-1)
RESOLVENT_SHIFTS = (0.5, 5.0 + 5.0j, 50.0)
ODE_BUDGET = 50.0  # ode_cross_solve at y = sqrt(ODE_BUDGET / ||L||)

# Inputs drawn from FIXED_INPUT_SEED instead of --seed, because whether a known
# failure shows on them depends on the draw (see build_resolvent_dense).
FIXED_INPUTS = ("random:128",)
FIXED_INPUT_SEED = 0
CHEAP_ROUTE_VECTORS = 2  # vectors per matrix and s for resolvent_dense's BBW and inverse powers


# -- matrices with known eigenpairs ---------------------------------------------------


class SineModes:
    """``laplacian1d:n`` with its closed-form sine eigenbasis."""

    def __init__(self, n):
        k = np.arange(1, n + 1)
        self.basis = np.sin(np.outer(k, k) * np.pi / (n + 1)) * np.sqrt(2.0 / (n + 1))
        self.lam = -4.0 * (n + 1) ** 2 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
        main = np.full(n, -2.0)
        off = np.ones(n - 1)
        self.matrix = (n + 1) ** 2 * (np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
        self.dim = n

    def apply(self, fvals, u):
        return self.basis @ (fvals * (self.basis @ u))

    def power(self, s, u):
        return dirichlet_sine_power(self.dim, s, u)


class GeneratingModes:
    """A matrix ``V diag V^{-1}`` kept with the ``V`` and ``diag`` it was built from."""

    def __init__(self, vecs, diag):
        self.vecs = vecs
        self.lam = diag
        self.matrix = (vecs * diag) @ np.linalg.inv(vecs)
        self.dim = diag.size

    def apply(self, fvals, u):
        return self.vecs @ (fvals * np.linalg.solve(self.vecs, u))

    def power(self, s, u):
        return self.apply(np.exp(s * np.log(-self.lam)), u)


def _lattice(n, lo, hi):
    """``n`` evenly spaced points filling ``(lo, hi)``."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def random_modes(n, seed):
    """Real non-normal generator ``V diag V^{-1}`` with ``V = I + m N`` drawn from ``seed``.

    ``m = 0.25 sqrt(8/n)`` is ``fracext.random_generator``'s 0.25 at n=8.
    Unscaled, ``I + 0.25 N`` is far from "mildly non-orthogonal" at larger
    ``n``: at n=128 its condition number has median ~560 and reaches ~2e4
    over 20 draws, and near-defective draws made one run's cost triple.
    Scaled, it stays near 11.  The spectrum is a lattice in ``(-10, -0.5)``,
    shuffled.
    """
    rng = np.random.default_rng(seed)
    diag = rng.permutation(_lattice(n, -10.0, -0.5))
    vecs = np.eye(n) + 0.25 * math.sqrt(8.0 / n) * rng.standard_normal((n, n))
    return GeneratingModes(vecs, diag)


def complex_modes(n, seed):
    """Complex non-normal generator: a fixed lattice spectrum and ``V`` drawn from ``seed``.

    The spectrum fills ``Re lam`` in ``(-10, -0.5)`` and ``Im lam`` in
    ``(-10, 10)``; imaginary parts are permuted by a stride coprime to ``n``.
    A random spectrum moved the quadrature work per call by up to 2x between
    seeds; with the lattice it moves by a few percent.
    """
    rng = np.random.default_rng(seed)
    stride = 37 if math.gcd(37, n) == 1 else 1
    order = (np.arange(n) * stride) % n
    diag = _lattice(n, -10.0, -0.5) + 1j * _lattice(n, -10.0, 10.0)[order]
    noise = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return GeneratingModes(np.eye(n) + 0.25 * noise, diag)


def make_modes(name, rng):
    """Resolve ``family:n``; random and complex matrices draw their seed from ``rng``."""
    family, size = name.split(":")
    n = int(size)
    if family == "laplacian1d":
        return SineModes(n)
    seed = int(rng.integers(2**31))
    if family == "random":
        return random_modes(n, seed)
    if family == "complex":
        return complex_modes(n, seed)
    raise ValueError(f"unknown matrix family {family!r}")


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# -- per-mode oracles ----------------------------------------------------------------


def profile_oracle(modes, s, u, ys):
    """``U(y)`` per mode from the Bessel-K closed form; shape ``(len(ys), dim)``."""
    root = np.sqrt(-modes.lam.astype(complex))
    rows = []
    for y in ys:
        z = root * y
        rows.append(modes.apply(2.0 / gamma(s) * (z / 2.0) ** s * kv(s, z), u))
    return np.array(rows)


def ode_oracle(modes, a, u0, v0, y):
    """``phi_1(y, -L) u0 + phi_2(y, -L) v0`` from the scalar series per mode."""
    mus = -modes.lam
    phi1 = np.array([fx.phi(1, y, fx.BesselParams(a=a, lam=float(mu))) for mu in mus])
    phi2 = np.array([fx.phi(2, y, fx.BesselParams(a=a, lam=float(mu))) for mu in mus])
    return modes.apply(phi1, u0) + modes.apply(phi2, v0)


def rel_err(candidate, oracle):
    """Relative 2-norm error; for stacked rows, the worst row."""
    candidate = np.atleast_2d(candidate)
    oracle = np.atleast_2d(oracle)
    num = np.linalg.norm(candidate - oracle, axis=1)
    den = np.maximum(np.linalg.norm(oracle, axis=1), 1e-300)
    return float(np.max(num / den))


def spectrum_err(eigenvalues, diag):
    """Distance from each generating eigenvalue to the nearest computed one, relative."""
    gaps = np.abs(np.subtract.outer(diag, eigenvalues)).min(axis=1)
    return float(gaps.max() / np.abs(diag).max())


# -- operations -----------------------------------------------------------------------


@dataclass
class Op:
    """One public call on one input.

    ``call(state)`` is the timed part.  It looks the route up on ``fracext``
    when it runs, so a traced run calls the tracer's wrappers.  ``extract(result)`` returns the
    candidate array and whether the library itself flagged a failure;
    ``error(candidate)`` compares it with the oracle.
    """

    name: str
    call: Callable
    extract: Callable
    error: Callable
    tol: float


def _against(oracle_fn):
    oracle = functools.cache(oracle_fn)
    return lambda candidate: rel_err(candidate, oracle())


def _vector(result):
    return np.asarray(result), False


def _estimate(result):
    return np.asarray(result.value), not result.converged


def _profile(result):
    return np.array(result.values), False


def _ic_report(result):
    return np.array([line.error for line in result.lines]), not result.all_passed


def _worst(candidate):
    return float(np.max(candidate))


def _read_cli_trace(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    deepest = max(int(row["level"]) for row in rows)
    final = [row for row in rows if int(row["level"]) == deepest][-1]
    dim = sum(1 for key in final if key.startswith("re_"))
    return np.array([float(final[f"re_{i}"]) + 1j * float(final[f"im_{i}"]) for i in range(1, dim + 1)])


def _read_cli_profile(path):
    with open(path, newline="", encoding="utf-8") as handle:
        handle.readline()  # '# s=..., dim=..., scheme=...'
        rows = list(csv.DictReader(handle))
    dim = sum(1 for key in rows[0] if key.startswith("re_U"))
    ys = np.array([float(row["y"]) for row in rows])
    values = np.array(
        [[float(row[f"re_U{i}"]) + 1j * float(row[f"im_U{i}"]) for i in range(1, dim + 1)] for row in rows]
    )
    return ys, values


def _cli_op(name, argv, reader, oracle_fn, tol):
    """In-process ``fracext.cli.main``; its console output is discarded."""

    def call(state):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return fracext.cli.main(argv)

    out = argv[argv.index("--out") + 1]
    return Op(name, call, lambda status: (reader(out), status != 0), _against(oracle_fn), tol)


def _write_cli_config(path, matrix, s, u_seed):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"matrix = {matrix}\nu = random:{u_seed}\ns = {s}\n")


def _cli_vector(u_seed, n):
    """The vector the CLI builds for ``u = random:<seed>``."""
    return np.random.default_rng(u_seed).standard_normal(n) + 0j


@dataclass
class Workload:
    name: str
    ops: list


def build_extension_stiff(rng, workdir):
    names = ("laplacian1d:128", "laplacian1d:256", "laplacian1d:512", "complex:64")
    modes = {name: make_modes(name, rng) for name in names}
    gens = {name: fx.Generator(m.matrix) for name, m in modes.items()}
    us = {name: random_vector(rng, m.dim) for name, m in modes.items()}
    ops = []

    def add_trace(label, route, name, s, tol, **kwargs):
        gen, u, m = gens[name], us[name], modes[name]
        ops.append(Op(
            f"{label}/{name}/s={s}",
            lambda state: getattr(fx, route)(gen, s, u, **kwargs),
            _estimate,
            _against(lambda: m.power(s, u)),
            tol,
        ))

    for name in names:
        for s in S_VALUES:
            add_trace("trace_neumann", "trace_neumann", name, s, TOL_NEUMANN)
    for s in S_VALUES:
        add_trace("trace_neumann_operator", "trace_neumann", "laplacian1d:128", s, TOL_NEUMANN,
                  form="operator")
    for name in names:
        for s in S_VALUES[:2]:
            add_trace("trace_incremental", "trace_incremental", name, s, TOL_INCREMENTAL)
    for name in names:
        for s in S_VALUES:
            gen, u, m = gens[name], us[name], modes[name]
            ops.append(Op(
                f"build_profile/{name}/s={s}",
                lambda state, gen=gen, u=u, s=s: fx.build_profile(gen, s, u, PROFILE_GRID),
                _profile,
                _against(lambda m=m, u=u, s=s: profile_oracle(m, s, u, PROFILE_GRID)),
                TOL_OTHER,
            ))
    gen, u = gens["laplacian1d:128"], us["laplacian1d:128"]
    for s in S_VALUES:
        ops.append(Op(
            f"initial_condition_suite/laplacian1d:128/s={s}",
            lambda state, s=s: fx.initial_condition_suite(gen, s, u),
            _ic_report,
            _worst,
            TOL_IC,
        ))

    cli_modes = SineModes(64)
    cli_s = 1.5
    u_seed = int(rng.integers(2**31))
    cli_u = _cli_vector(u_seed, 64)
    config = os.path.join(workdir, "cli.cfg")
    _write_cli_config(config, "laplacian1d:64", cli_s, u_seed)
    trace_out = os.path.join(workdir, "cli_trace_neumann.csv")
    extend_out = os.path.join(workdir, "cli_extend.csv")
    ops.append(_cli_op(
        f"cli_trace_neumann/laplacian1d:64/s={cli_s}",
        ["trace_neumann", "--config", config, "--out", trace_out],
        _read_cli_trace,
        lambda: cli_modes.power(cli_s, cli_u),
        TOL_NEUMANN,
    ))

    def extend_oracle():
        ys = _read_cli_profile(extend_out)[0]
        return profile_oracle(cli_modes, cli_s, cli_u, ys)

    ops.append(_cli_op(
        f"cli_extend/laplacian1d:64/s={cli_s}",
        ["extend", "--config", config, "--out", extend_out],
        lambda path: _read_cli_profile(path)[1],
        extend_oracle,
        TOL_OTHER,
    ))
    return Workload("extension_stiff", ops)


def build_resolvent_dense(rng, workdir):
    """Dense routes on seeded inputs, except ``random:128``, which is fixed.

    Whether ``resolvent_frac_power`` on a ``random:128`` input reaches its
    node doubling cap depends on both the matrix and ``u`` (at ``s=1.5`` it
    did for 10 of 12 seeded draws).  A fixed matrix and vectors make that
    known failure count the same on every run.

    The cheap routes, BBW and inverse powers, run on ``CHEAP_ROUTE_VECTORS``
    vectors per matrix and ``s``; the Balakrishnan routes on the first one.
    With one vector each, 21 operations took under 0.02 s and 20 over 0.1 s,
    so the median latency fell in the gap between them, on the few BBW calls
    whose cost depends on ``u``, and moved by up to 24% between runs.
    """
    names = ("random:64", "random:128", "complex:128", "laplacian1d:128")
    fixed = np.random.default_rng(FIXED_INPUT_SEED)
    draw = {name: fixed if name in FIXED_INPUTS else rng for name in names}
    modes = {name: make_modes(name, draw[name]) for name in names}
    gens = {name: fx.Generator(m.matrix) for name, m in modes.items()}
    us = {name: [random_vector(draw[name], m.dim)] for name, m in modes.items()}
    for _ in range(1, CHEAP_ROUTE_VECTORS):
        for name, m in modes.items():
            us[name].append(random_vector(draw[name], m.dim))
    ops = []

    def add(label, name, s, call, oracle_power, tol, k=0):
        gen, u, m = gens[name], us[name][k], modes[name]
        ops.append(Op(
            f"{label}/{name}/s={s}" + (f"/u{k}" if k else ""),
            lambda state: call(gen, s, u),
            _vector,
            _against(lambda: m.power(oracle_power, u)),
            tol,
        ))

    for name in names:
        for s in S_VALUES:
            add("balakrishnan_general", name, s,
                lambda gen, s, u: fx.balakrishnan_general(gen, s, u), s, TOL_BALAKRISHNAN)
        for s in S_VALUES[:2]:
            add("balakrishnan_second_kind", name, s,
                lambda gen, s, u: fx.balakrishnan_second_kind(gen, s, u), s, TOL_BALAKRISHNAN)
        for k in range(CHEAP_ROUTE_VECTORS):
            for s in S_VALUES:
                add("bbw_frac_power", name, s,
                    lambda gen, s, u: fx.bbw_frac_power(gen, s, int(s) + 1, u), s, TOL_BBW, k)
            for s in S_VALUES:
                add("resolvent_frac_power", name, s,
                    lambda gen, s, u: fx.resolvent_frac_power(gen, 0.0, s, u), -s, TOL_OTHER, k)
    return Workload("resolvent_dense", ops)


def build_factor_apply(rng, workdir):
    names = ("laplacian1d:512", "random:512", "complex:256")
    ops = []
    for name in names:
        m = make_modes(name, rng)
        us = [random_vector(rng, m.dim) for _ in range(3)]

        def factor(state, name=name, m=m):
            state[name] = fx.Generator(m.matrix)
            return state[name]

        ops.append(Op(f"factor/{name}", factor, lambda gen: (gen.eigenvalues, False),
                      lambda eig, m=m: spectrum_err(eig, m.lam), TOL_OTHER))
        for u, s in zip(us, S_VALUES):
            ops.append(Op(
                f"frac_power/{name}/s={s}",
                lambda state, name=name, u=u, s=s: state[name].frac_power(s, u),
                _vector, _against(lambda m=m, u=u, s=s: m.power(s, u)), TOL_OTHER,
            ))
        for u, t in zip(us, SEMIGROUP_TIMES):
            ops.append(Op(
                f"semigroup/{name}/t={t}",
                lambda state, name=name, u=u, t=t: state[name].semigroup(t, u),
                _vector, _against(lambda m=m, u=u, t=t: m.apply(np.exp(t * m.lam), u)), TOL_OTHER,
            ))
        for mu in RESOLVENT_SHIFTS:
            ops.append(Op(
                f"resolvent/{name}/mu={mu}",
                lambda state, name=name, u=us[0], mu=mu: state[name].resolvent(mu, u),
                _vector, _against(lambda m=m, u=us[0], mu=mu: m.apply(1.0 / (mu - m.lam), u)),
                TOL_OTHER,
            ))
        a_vals = -m.lam
        ops.append(Op(
            f"yosida/{name}/eps={YOSIDA_EPS}",
            lambda state, name=name: state[name].yosida(YOSIDA_EPS),
            lambda gen, u=us[0]: (gen.matrix @ u, False),
            _against(lambda m=m, u=us[0], a=a_vals: m.apply(-a / (1.0 + YOSIDA_EPS * a), u)),
            TOL_OTHER,
        ))
        if name.startswith("laplacian1d"):
            a = 1.0 - 2.0 * S_VALUES[0]
            y = math.sqrt(ODE_BUDGET / float(np.max(-m.lam)))
            ops.append(Op(
                f"ode_cross_solve/{name}/y={y:.6g}",
                lambda state, name=name, u0=us[1], v0=us[2], a=a, y=y:
                    fx.ode_cross_solve(state[name], a, u0, v0, y),
                _vector, _against(lambda m=m, u0=us[1], v0=us[2], a=a, y=y: ode_oracle(m, a, u0, v0, y)),
                TOL_OTHER,
            ))
    return Workload("factor_apply", ops)


BUILDERS = {
    "extension_stiff": build_extension_stiff,
    "resolvent_dense": build_resolvent_dense,
    "factor_apply": build_factor_apply,
}


def build(name, seed, workdir):
    """Generate the inputs of workload ``name`` from ``seed`` (same seed, same inputs)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](rng, workdir)
