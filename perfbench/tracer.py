"""Outside-in spans around fracext's public functions, for the traced run.

The tracer rebinds public names from the outside; no library file changes.
A module calls another module's function through the name bound in its own
namespace (``fracext.extension.trapezoid_refine``, for example), so each
such binding is wrapped, together with the integrands handed to the
quadrature drivers and the ``Generator`` methods.  Wrappers return exactly
what the wrapped function returns, so traced results equal untraced ones
bit for bit.

Spans stay in memory.  Each span's self time is its duration minus the
time covered by its child spans.
"""

import time
from collections import Counter

import numpy as np

import fracext
import fracext.bessel
import fracext.cli
import fracext.extension
import fracext.fracpow
import fracext.operators
import fracext.quadrature
import fracext.traces

LAYERS = ("operators", "quadrature", "fracpow", "extension", "traces", "bessel", "cli")

# Public functions per layer, and every module that binds them.
_FUNCTIONS = {
    "fracpow": (
        "balakrishnan", "balakrishnan_general", "balakrishnan_second_kind", "bbw_frac_power",
        "c_constant", "c_constant_direct", "c_constant_expsum", "resolvent_frac_power",
    ),
    "extension": (
        "extend_subordination", "y_derivatives_upto", "y_derivative", "radial_power",
        "weighted_extension_derivative", "extension_operator_power", "build_profile",
        "extend_explicit", "pde_residual",
    ),
    "traces": (
        "trace_neumann", "trace_incremental", "initial_condition_suite", "bbw_estimate",
        "domain_membership",
    ),
    "bessel": ("ode_cross_solve",),
    "quadrature": ("richardson_table",),
    "cli": ("main",),
}
_BINDERS = (fracext, fracext.bessel, fracext.cli, fracext.extension, fracext.fracpow,
            fracext.quadrature, fracext.traces)
_DRIVERS = ("trapezoid_refine", "integrate_unit")
_METHODS = {
    "__init__": "operators.factor",
    "semigroup_batch": "operators.semigroup_batch",
    "resolvent": "operators.resolvent",
    "spectral_apply": "operators.spectral_apply",
}
_BALAKRISHNAN = frozenset({"fracpow.balakrishnan", "fracpow.balakrishnan_second_kind"})


class Tracer:
    """Span stack, self times, exact counts and per-layer RuntimeWarnings."""

    def __init__(self):
        self.stack = []  # open spans: [name, layer, child_seconds, span_id, parent_id]
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.self_s = Counter()
        self.counts = Counter()
        self.warnings = Counter()
        self.record_spans = True
        self._next_id = 0
        self._patches = []

    # -- spans ------------------------------------------------------------------------

    def call(self, name, layer, fn, /, *args, **kwargs):
        parent = self.stack[-1][3] if self.stack else None
        frame = [name, layer, 0.0, self._next_id, parent]
        self._next_id += 1
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            if self.record_spans:
                self.spans.append((frame[3], parent, name, start, end))

    def note_warning(self):
        """Attribute one RuntimeWarning to the innermost open span's layer."""
        self.warnings[self.stack[-1][1] if self.stack else "benchmark"] += 1

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self.warnings.clear()

    # -- wrappers ---------------------------------------------------------------------

    def _function(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return wrapper

    def _driver(self, fn, driver, integrand_layer):
        name = f"quadrature.{driver}"
        integrand_name = f"{integrand_layer}.integrand"

        def wrapper(integrand, *args, **kwargs):
            level_nodes = []
            under_balakrishnan = any(frame[0] in _BALAKRISHNAN for frame in self.stack)

            def traced_integrand(x):
                level_nodes.append(len(x))
                if under_balakrishnan:
                    self.counts["fracpow.resolvent_solves"] += len(x)
                return self.call(integrand_name, integrand_layer, integrand, x)

            accepted = False
            try:
                result = self.call(name, "quadrature", fn, traced_integrand, *args, **kwargs)
                accepted = True
                return result
            finally:
                self.counts[f"{name}.nodes"] += sum(level_nodes)
                self.counts[f"{name}.levels"] += len(level_nodes)
                if accepted:  # the driver returns the last level it evaluated
                    self.counts["quadrature.accepted_nodes"] += level_nodes[-1]

        return wrapper

    def _method(self, fn, name):
        def wrapper(gen, *args, **kwargs):
            if name == "operators.semigroup_batch":
                self.counts["operators.semigroup_states"] += int(np.size(args[0])) * gen.dim
            elif name == "operators.factor":
                self.counts["operators.factor_calls"] += 1
            return self.call(name, "operators", fn, gen, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        """Rebind every traced name; :meth:`uninstall` restores the originals."""
        for layer, names in _FUNCTIONS.items():
            for fname in names:
                for module in _BINDERS:
                    fn = module.__dict__.get(fname)
                    if callable(fn):
                        self._patch(module, fname, self._function(fn, f"{layer}.{fname}", layer))
        for module in (fracext.extension, fracext.fracpow, fracext.bessel):
            layer = module.__name__.split(".")[-1]
            for driver in _DRIVERS:
                fn = module.__dict__.get(driver)
                if fn is not None:
                    self._patch(module, driver, self._driver(fn, driver, layer))
        generator = fracext.operators.Generator
        for method, name in _METHODS.items():
            self._patch(generator, method, self._method(generator.__dict__[method], name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers for everything traced since the last :meth:`reset`."""
        s, c = self.self_s, self.counts
        trap, unit = "quadrature.trapezoid_refine", "quadrature.integrate_unit"
        evaluated = c[f"{trap}.nodes"] + c[f"{unit}.nodes"]
        out = {
            "operators.factor_s": s["operators.factor"],
            "operators.factor_calls": c["operators.factor_calls"],
            "operators.semigroup_batch_s": s["operators.semigroup_batch"],
            "operators.semigroup_states": c["operators.semigroup_states"],
            "operators.resolvent_s": s["operators.resolvent"],
            "operators.spectral_apply_s": s["operators.spectral_apply"],
            "quadrature.trapezoid_refine_s": s[trap],
            "quadrature.trapezoid_nodes": c[f"{trap}.nodes"],
            "quadrature.trapezoid_levels": c[f"{trap}.levels"],
            "quadrature.integrate_unit_s": s[unit],
            "quadrature.integrate_unit_nodes": c[f"{unit}.nodes"],
            "quadrature.integrate_unit_levels": c[f"{unit}.levels"],
            "quadrature.useful_node_frac": c["quadrature.accepted_nodes"] / evaluated if evaluated else 0.0,
            "quadrature.richardson_s": s["quadrature.richardson_table"],
            "fracpow.integrand_s": s["fracpow.integrand"],
            "fracpow.resolvent_solves": c["fracpow.resolvent_solves"],
            "fracpow.bbw_s": s["fracpow.bbw_frac_power"],
            "fracpow.c_constant_s": sum(s[f"fracpow.{n}"] for n in ("c_constant", "c_constant_direct",
                                                                   "c_constant_expsum")),
            "fracpow.inverse_power_s": s["fracpow.resolvent_frac_power"],
            "extension.integrand_s": s["extension.integrand"],
            "extension.weighted_derivative_s": s["extension.weighted_extension_derivative"],
            "extension.radial_power_s": s["extension.radial_power"],
            "extension.operator_power_s": s["extension.extension_operator_power"],
            "extension.y_derivatives_s": s["extension.y_derivatives_upto"] + s["extension.y_derivative"],
            "extension.subordination_s": s["extension.extend_subordination"],
            "traces.self_s": sum(s[f"traces.{n}"] for n in _FUNCTIONS["traces"]),
            "bessel.ode_cross_solve_s": s["bessel.ode_cross_solve"],
            "cli.self_s": s["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.warnings"] = self.warnings[layer]
        return out
