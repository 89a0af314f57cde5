"""Benchmark of fracext: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds ``src/fracext``.  Each run
starts fresh worker processes from this one (BLAS pinned to one thread,
``FRACEXT_THREADS=1``): four that only set up, for the median ``setup_s``, and
one that sets up and measures.  With ``--trace 0`` the last line holds the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median with the measuring one
DEADLINE_S = 170.0  # the whole run ends within this many seconds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(args, timeout):
    """Start one worker, wait for it, and parse its last line of output."""
    started = time.monotonic()
    argv = [sys.executable, WORKER, "--started", repr(started)] + args
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracext", "__init__.py")):
        print(f"error: no fracext sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    begin = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - begin)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(common + ["--setup-only"], remaining())["setup_s"])
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining()
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = result["metrics"]
    if not args.trace:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
        result["raw"]["setup_samples_s"] = setups
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    for row in result["ops"]:
        print("op " + json.dumps(row))
    print("env " + json.dumps(result["env"]))
    print("raw " + json.dumps(result["raw"]))
    for m in wanted:
        print(f"metric {m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": result["checked"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
