"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs a cheap subset of the real operations and checks that every metric of
``BENCHMARK.json`` is computed and carries a unit, that the failure rule
counts known failures, that two traced runs give identical counts and
bitwise the results of the untraced run, that the oracles agree with the
library's own references, and that the benchmark refuses to run without
the library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import worker  # first: pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402

import fracext as fx  # noqa: E402
import workloads  # noqa: E402

SUBSET = (
    ("resolvent_dense", "balakrishnan_general/random:64/s=1.5"),
    ("resolvent_dense", "balakrishnan_second_kind/random:64/s=0.3"),
    ("resolvent_dense", "bbw_frac_power/random:64/s=0.3"),
    ("resolvent_dense", "resolvent_frac_power/random:64/s=1.5"),
    ("resolvent_dense", "bbw_frac_power/laplacian1d:128/s=0.3"),
    ("extension_stiff", "trace_neumann/laplacian1d:128/s=2.7"),
    ("extension_stiff", "trace_incremental/laplacian1d:128/s=0.3"),
    ("extension_stiff", "build_profile/laplacian1d:128/s=0.3"),
    ("extension_stiff", "cli_extend/laplacian1d:64/s=1.5"),
    ("factor_apply", "factor/complex:256"),
    ("factor_apply", "frac_power/complex:256/s=0.3"),
    ("factor_apply", "yosida/complex:256/eps=0.01"),
)
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def subset_workload(workdir, seed=0):
    built = {name: workloads.build(name, seed, workdir) for name in {w for w, _ in SUBSET}}
    ops = []
    for name, op_name in SUBSET:
        ops += [op for op in built[name].ops if op.name == op_name]
    check(len(ops) == len(SUBSET), "every selected operation exists")
    return workloads.Workload("selftest", ops)


def test_metrics(spec, workload):
    records, metrics, _ = worker.measure(workload, 0.0, started=time.monotonic())
    for entry in spec["end_to_end"]:
        check(entry["name"] in metrics and UNIT.match(entry["unit"]) is not None,
              f"end-to-end metric {entry['name']} computed, unit {entry['unit']!r}")
        check(metrics.get(entry["name"], 0) > 0, f"end-to-end metric {entry['name']} is nonzero here")
    by_name = {r.op.name: r for r in records}
    bbw = by_name["bbw_frac_power/laplacian1d:128/s=0.3"]
    check(bbw.failed and bbw.raised is not None, "bbw_frac_power on laplacian1d:128 counts as failed")
    trace = by_name["trace_neumann/laplacian1d:128/s=2.7"]
    check(trace.failed and trace.warnings > 0,
          "unconverged trace_neumann counts as failed and its RuntimeWarnings are counted")
    check(not by_name["balakrishnan_general/random:64/s=1.5"].failed, "a converged route passes")


def test_traced(spec, workload):
    first = worker.measure_traced(workload, 0.0)
    second = worker.measure_traced(workload, 0.0)
    for entry in spec["per_layer"]:
        check(entry["name"] in first[1] and UNIT.match(entry["unit"]) is not None,
              f"per-layer metric {entry['name']} computed, unit {entry['unit']!r}")
    counts = [name for name, value in first[1].items() if isinstance(value, int)]
    check(all(first[1][n] == second[1][n] for n in counts), "two traced runs give identical counts")
    check(first[1]["quadrature.trapezoid_nodes"] > 0 and first[1]["fracpow.resolvent_solves"] > 0,
          "traced run counts trapezoid nodes and Balakrishnan solves")
    check(first[1]["traces.self_s"] > 0 and first[1]["fracpow.bbw_s"] > 0,
          "spans cover the routes the benchmark calls")
    check(first[1]["extension.warnings"] > 0, "RuntimeWarnings are attributed to the extension layer")
    for raw in (first[2], second[2]):
        check(raw["repeat_mismatches"] == 0, "traced results are bitwise equal to untraced ones")


def test_oracles():
    rng = np.random.default_rng(5)
    u = workloads.random_vector(rng, 32)
    sine = workloads.SineModes(32)
    direct = sine.apply(np.exp(0.7 * np.log(-sine.lam)), u)
    check(workloads.rel_err(direct, sine.power(0.7, u)) < 1e-13, "sine basis agrees with dirichlet_sine_power")
    real = workloads.random_modes(16, 9)
    check(workloads.spectrum_err(fx.Generator(real.matrix).eigenvalues, real.lam) < 1e-12,
          "random:n keeps its generating spectrum")
    cplx = workloads.complex_modes(16, 3)
    gen = fx.Generator(cplx.matrix)
    check(workloads.spectrum_err(gen.eigenvalues, cplx.lam) < 1e-12, "complex:n keeps its generating spectrum")
    s, ys = 1.5, np.array([0.3, 1.0])
    profile = fx.build_profile(gen, s, u[:16], ys)
    check(workloads.rel_err(np.array(profile.values), workloads.profile_oracle(cplx, s, u[:16], ys)) < 1e-9,
          "Bessel-K profile oracle agrees with build_profile")


def test_refuses_without_sources():
    stripped = os.path.join(worker.OUT_DIR, "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(os.path.join(stripped, "perfbench"))
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), stripped)
    for name in os.listdir(os.path.dirname(os.path.abspath(__file__))):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(os.path.dirname(os.path.abspath(__file__)), name),
                        os.path.join(stripped, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor_apply", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py exits nonzero without a result when src/fracext is absent")
    shutil.rmtree(stripped, ignore_errors=True)


def main():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as workdir:
        workload = subset_workload(workdir)
        test_metrics(spec, workload)
        test_traced(spec, workload)
    test_oracles()
    test_refuses_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
