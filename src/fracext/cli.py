"""Command-line front end.

Usage::

    fracext <method> --config <path> [--out <path>] [--verbose]

with method one of ``spectral``, ``balakrishnan``, ``bbw``, ``trace_neumann``,
``trace_incremental``, ``extend``, ``verify``.  Configuration is line-oriented
``key = value`` text with ``#`` comments; see ``fracext --help`` for the key
table and the CSV column layouts.  Exit codes: 0 success, 2 configuration or
validation error, 3 numerical non-convergence (or a failed verification run).

``FRACEXT_THREADS`` caps worker parallelism in grid evaluations.
"""

import argparse
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .extension import build_profile
from .fracpow import FracOrder, balakrishnan_general
from .operators import Generator, load_vector, random_generator
from .quadrature import ConvergenceError, QuadratureSpec
from .traces import bbw_estimate, default_ysched, neumann_y0, trace_incremental, trace_neumann

METHODS = (
    "spectral",
    "balakrishnan",
    "bbw",
    "trace_neumann",
    "trace_incremental",
    "extend",
    "verify",
)

_EPILOG = """\
configuration keys (key = value, '#' comments):
  matrix        path to a matrix file, or a builtin:
                  diag-demo            diag(-1, -4, -9)
                  laplacian1d:<n>      (n+1)^2 * tridiag(1, -2, 1), Dirichlet
                  random:<n>:<seed>    seeded random diagonalizable matrix
                matrix files: first line 'dim', then dim rows of dim
                whitespace-separated entries, complex written a+bi
  u             vector source: 'ones' (default), 'basis:<i>', 'random:<seed>',
                or a path to a whitespace-separated entry file
  s             fractional order (positive, noninteger); required except for
                'verify'
  k             power index for 'bbw' (integer > s; default [s]+1)
  ygrid_start   head of the geometric y-schedule        [default 0.4;
                for 'trace_neumann' min(0.4, 4/sqrt(||L||_2))]
  ygrid_factor  schedule ratio, in (0, 1)               [default 0.5]
  ygrid_count   number of schedule points               [default 11]
  nodes         first-level node budget                 [default 128]
  tol           quadrature refinement tolerance         [default 1e-12]
  out           output CSV path (the --out flag overrides this)
  seed          seed for 'u = random'                   [default 0]

output CSV layout:
  spectral, balakrishnan   '# method=..., s=..., dim=...' then index,re,im
  trace_*, bbw             extrapolation table: level, y (or eps), re_i/im_i
                           per component, diff_norm; the final estimate is the
                           last row of the deepest level
  extend                   profile: y, re_U1, im_U1, ..., re_dU1, ... with a
                           first line naming s and dim
"""


class ConfigError(ValueError):
    """Configuration problem, annotated with a file position."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")


@dataclass
class RunConfig:
    method: str
    matrix_source: str
    u_source: str = "ones"
    s: float = None
    k: int = None
    ygrid_start: float = None  # None: the method's default head
    ygrid_factor: float = 0.5
    ygrid_count: int = 11
    nodes: int = 128
    tol: float = 1e-12
    output_path: str = None
    seed: int = 0
    verbose: bool = False
    config_path: str = field(default="<config>", repr=False)

    def quadrature(self):
        return QuadratureSpec(nodes=self.nodes, tol=self.tol)

    def ysched(self, start=0.4):
        """The configured schedule; ``start`` is the head when ``ygrid_start`` is unset."""
        if self.ygrid_start is not None:
            start = self.ygrid_start
        return default_ysched(start, self.ygrid_factor, self.ygrid_count)


_CASTS = {
    "matrix": ("matrix_source", str),
    "u": ("u_source", str),
    "s": ("s", float),
    "k": ("k", int),
    "ygrid_start": ("ygrid_start", float),
    "ygrid_factor": ("ygrid_factor", float),
    "ygrid_count": ("ygrid_count", int),
    "nodes": ("nodes", int),
    "tol": ("tol", float),
    "out": ("output_path", str),
    "seed": ("seed", int),
}


def parse_config(path, method):
    """Parse a ``key = value`` configuration file into a :class:`RunConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(path, 0, f"cannot read configuration: {exc}") from None
    config = RunConfig(method=method, matrix_source=None, config_path=path)
    seen = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CASTS:
            raise ConfigError(path, lineno, f"unknown key {key!r}")
        if key in seen:
            raise ConfigError(path, lineno, f"duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = lineno
        attr, cast = _CASTS[key]
        try:
            setattr(config, attr, cast(value))
        except ValueError:
            raise ConfigError(
                path, lineno, f"invalid value for {key!r}: {value!r}"
            ) from None
    end = len(raw_lines) + 1
    if config.matrix_source is None and method != "verify":
        raise ConfigError(path, end, "missing required key 'matrix'")
    if config.s is None and method != "verify":
        raise ConfigError(path, end, "missing required key 's'")
    if config.s is not None:
        try:
            FracOrder(config.s)
        except ValueError as exc:
            raise ConfigError(path, seen.get("s", end), str(exc)) from None
    if not 0.0 < config.ygrid_factor < 1.0:
        raise ConfigError(
            path, seen.get("ygrid_factor", end), "ygrid_factor must lie in (0, 1)"
        )
    try:
        config.quadrature()
    except ValueError as exc:
        raise ConfigError(path, end, str(exc)) from None
    return config


def builtin_matrix(name):
    """Resolve a builtin matrix name to a :class:`Generator`.

    ``diag-demo``; ``laplacian1d:<n>`` (the Dirichlet second-difference matrix
    scaled by ``(n+1)^2``); ``random:<n>:<seed>`` (seeded, bit-reproducible).
    """
    if name == "diag-demo":
        return Generator(np.diag([-1.0, -4.0, -9.0]))
    if name.startswith("laplacian1d:"):
        try:
            size = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad laplacian1d size in {name!r}") from None
        if size < 2:
            raise ValueError(f"laplacian1d needs n >= 2, got {size}")
        main = np.full(size, -2.0)
        off = np.ones(size - 1)
        mat = (size + 1) ** 2 * (np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
        return Generator(mat)
    if name.startswith("random:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected random:<n>:<seed>, got {name!r}")
        try:
            size, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"expected integer size and seed in {name!r}") from None
        if size < 2:
            raise ValueError(f"random generator needs n >= 2, got {size}")
        return random_generator(size, seed)
    raise ValueError(f"unknown builtin matrix {name!r}")


def resolve_matrix(source):
    if source in ("diag-demo",) or source.startswith(("laplacian1d:", "random:")):
        return builtin_matrix(source)
    if os.path.exists(source):
        return Generator.from_file(source)
    raise ValueError(f"matrix source {source!r} is neither a builtin nor a readable file")


def resolve_vector(source, dim, seed):
    if source == "ones":
        return np.ones(dim, dtype=complex)
    if source.startswith("basis:"):
        idx = int(source.split(":", 1)[1])
        if not 1 <= idx <= dim:
            raise ValueError(f"basis index {idx} outside 1..{dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[idx - 1] = 1.0
        return vec
    if source == "random" or source.startswith("random:"):
        use = seed if source == "random" else int(source.split(":", 1)[1])
        rng = np.random.default_rng(use)
        return rng.standard_normal(dim) + 0j
    if os.path.exists(source):
        return load_vector(source, dim)
    raise ValueError(f"vector source {source!r} is neither a builtin nor a readable file")


def _atomic_write(path, writer):
    """Write through a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_vector_csv(path, method, s, value):
    def writer(handle):
        handle.write(f"# method={method}, s={s}, dim={value.size}\n")
        handle.write("index,re,im\n")
        for i, z in enumerate(value, 1):
            handle.write(f"{i},{z.real:.17g},{z.imag:.17g}\n")

    _atomic_write(path, writer)


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    if config.method == "verify":
        from .verify import run_all

        results = run_all(verbose=config.verbose)
        failed = [r for r in results if not r.passed]
        for r in results:
            print(r.summary())
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 0 if not failed else 3

    try:
        gen = resolve_matrix(config.matrix_source)
        u = resolve_vector(config.u_source, gen.dim, config.seed)
        order = FracOrder(config.s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    quad = config.quadrature()
    out = config.output_path or f"fracext_{config.method}.csv"

    try:
        if config.method == "spectral":
            value = gen.frac_power(order.s, u)
            _write_vector_csv(out, "spectral", order.s, value)
            summary = f"|(-L)^s u| = {np.linalg.norm(value):.6e}"
        elif config.method == "balakrishnan":
            value = balakrishnan_general(gen, order, u, quad)
            _write_vector_csv(out, "balakrishnan", order.s, value)
            reference = gen.frac_power(order.s, u)
            err = np.linalg.norm(value - reference) / max(np.linalg.norm(reference), 1e-300)
            summary = f"|result| = {np.linalg.norm(value):.6e}, oracle rel err {err:.2e}"
        elif config.method == "bbw":
            k = config.k if config.k is not None else order.n + 1
            estimate = bbw_estimate(gen, order, k, u, quad)
            _atomic_write(out, estimate.to_csv)
            summary = f"oracle rel err {estimate.oracle_err:.2e} (k={k})"
        elif config.method == "trace_neumann":
            estimate = trace_neumann(gen, order, u, quad, ysched=config.ysched(neumann_y0(gen)))
            _atomic_write(out, estimate.to_csv)
            if not estimate.converged:
                print("trace_neumann: extrapolation did not converge", file=sys.stderr)
                return 3
            summary = f"converged, oracle rel err {estimate.oracle_err:.2e}"
        elif config.method == "trace_incremental":
            estimate = trace_incremental(gen, order, u, quad, ysched=config.ysched())
            _atomic_write(out, estimate.to_csv)
            if not estimate.converged:
                print("trace_incremental: extrapolation did not converge", file=sys.stderr)
                return 3
            summary = f"converged, oracle rel err {estimate.oracle_err:.2e}"
        elif config.method == "extend":
            ygrid = np.sort(config.ysched())
            profile = build_profile(gen, order, u, ygrid, quad)
            _atomic_write(out, profile.to_csv)
            summary = f"{ygrid.size} grid points, {len(profile.derivs[0])} derivative orders"
        else:
            print(f"error: unknown method {config.method!r}", file=sys.stderr)
            return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{config.method}: {summary}")
    print(f"wrote {out}")
    if config.verbose:
        print(f"matrix={config.matrix_source} dim={gen.dim} bound_M={gen.bound_M:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracext",
        description="Fractional powers of semigroup generators via extension problems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("method", choices=METHODS)
    parser.add_argument("--config", required=False, help="path to a key = value file")
    parser.add_argument("--out", help="output CSV path (overrides 'out' in the config)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.config is None:
        if args.method == "verify":
            config = RunConfig(method="verify", matrix_source=None, verbose=args.verbose)
            return run(config)
        parser.error(f"method {args.method!r} requires --config")
    try:
        config = parse_config(args.config, args.method)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config.verbose = args.verbose or config.verbose
    if args.out:
        config.output_path = args.out
    started = time.time()
    status = run(config)
    if config.verbose:
        print(f"elapsed {time.time() - started:.2f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
