"""One workload in one fresh process: set up, run the closed loop, check, report.

Started by ``run.py``; prints one JSON object as its last line of output.
BLAS threads are pinned here, before numpy is imported.
"""

import os
import sys

BLAS_THREADS = "1"  # single-threaded BLAS: at most nproc, and steadier timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["FRACEXT_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.dont_write_bytecode = True
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracext  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DIGITS_CAP = 14.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
MIN_SAMPLE_S = 0.1  # cheaper operations are repeated back to back to fill one latency sample
MAX_REPEATS = 1000


class WarningCounter:
    """``warnings.showwarning`` replacement counting RuntimeWarnings."""

    def __init__(self, tracer=None):
        self.count = 0
        self.tracer = tracer

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            self.count += 1
            if self.tracer is not None:
                self.tracer.note_warning()


class OpRecord:
    """Latencies and the checked outcome of one operation across passes."""

    def __init__(self, op):
        self.op = op
        self.latencies = []
        self.calls = 0
        self.failed = None
        self.raised = None
        self.silent = False
        self.digits = 0.0
        self.error = None
        self.warnings = 0
        self.digest = None
        self.repeat_mismatches = 0


def call(op, state):
    try:
        return op.call(state), None
    except Exception as exc:  # a raising route is a failed operation, not a crash
        return None, exc


def execute(op, state, counter, repeat):
    """Run one operation, timing only the calls; returns the first call's outcome.

    With ``repeat``, an operation faster than ``MIN_SAMPLE_S`` is called again
    back to back until the sample covers that long; the latency is the mean
    over the calls.  RuntimeWarnings are those of the first call.
    """
    counter.count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = counter
        start = time.perf_counter()
        result, raised = call(op, state)
        elapsed = time.perf_counter() - start
        nwarn = counter.count
        calls = 1
        if repeat and elapsed < MIN_SAMPLE_S:
            extra = min(MAX_REPEATS, math.ceil(MIN_SAMPLE_S / max(elapsed, 1e-6)))
            start = time.perf_counter()
            for _ in range(extra):
                call(op, state)
            elapsed += time.perf_counter() - start
            calls += extra
    return elapsed / calls, calls, result, raised, nwarn


def digest(candidate, flagged):
    h = hashlib.sha256(np.ascontiguousarray(candidate).tobytes())
    h.update(b"F" if flagged else b"T")
    return h.hexdigest()


def evaluate(record, result, raised):
    """Apply the failure rule and score digits against the oracle."""
    op = record.op
    if raised is not None:
        record.failed, record.raised, record.digits = True, f"{type(raised).__name__}: {raised}", 0.0
        record.digest = "raised:" + type(raised).__name__
        return
    candidate, flagged = op.extract(result)
    record.digest = digest(candidate, flagged)
    err = op.error(candidate)
    record.error = err
    ok = math.isfinite(err) and err <= op.tol
    record.failed = flagged or not ok
    record.silent = not flagged and not ok
    if not math.isfinite(err):
        record.digits = 0.0
    elif err == 0.0:
        record.digits = DIGITS_CAP
    else:
        record.digits = min(DIGITS_CAP, max(0.0, -math.log10(err)))


def repeat_digest(record, result, raised):
    if raised is not None:
        return "raised:" + type(raised).__name__
    return digest(*record.op.extract(result))


def run_pass(records, counter, deadline=None, repeat=True):
    """One pass over the operation list; stops early once ``deadline`` is reached.

    The first pass checks every result against its oracle; later passes
    compare result digests with it.
    """
    state = {}
    for record in records:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        latency, calls, result, raised, nwarn = execute(record.op, state, counter, repeat)
        record.latencies.append(latency)
        record.calls += calls
        if record.failed is None:
            record.warnings = nwarn
            evaluate(record, result, raised)
        elif repeat_digest(record, result, raised) != record.digest:
            record.repeat_mismatches += 1


def tail(values):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0, ordered[0]
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return pct, ordered[rank - 1]


def end_to_end(records):
    """End-to-end metrics (all but ``setup_s``) and the raw figures behind them.

    Each operation's latency is the median of its repetitions; throughput,
    median and tail are taken across the workload's operations.
    """
    per_op = [statistics.median(r.latencies) for r in records]
    count = len(records)
    passed = [r for r in records if not r.failed]
    pct, tail_value = tail(per_op)
    metrics = {
        "ops_per_s": count / sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail_value,
        "pass_frac": len(passed) / count,
        "digits_min": min((r.digits for r in passed), default=0.0),
        "digits_mean": statistics.fmean(r.digits for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warning_free_frac": sum(1 for r in records if r.warnings == 0) / count,
    }
    raw = {
        "fail_frac": 1.0 - metrics["pass_frac"],
        "runtime_warnings": sum(r.warnings for r in records),
        "latency_tail_percentile": pct,
        "latency_samples": count,
        "silent_wrong": sum(1 for r in records if r.silent),
        "repeat_mismatches": sum(r.repeat_mismatches for r in records),
    }
    return metrics, raw


def op_table(records):
    return [
        {
            "op": r.op.name,
            "failed": r.failed,
            "raised": r.raised,
            "silent_wrong": r.silent,
            "rel_err": r.error,
            "digits": r.digits,
            "warnings": r.warnings,
            "latency_s": statistics.median(r.latencies),
            "samples": len(r.latencies),
            "calls": r.calls,
        }
        for r in records
    ]


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "fracext_threads": int(os.environ["FRACEXT_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fracext_sources_sha256": source_hash(),
        "commit": git_commit(),
        "seed": seed,
    }


def source_hash():
    h = hashlib.sha256()
    package = os.path.join(SRC, "fracext")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def git_commit():
    """The checked-out commit when the tree is a git work tree, else ``None``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    return None


def measure(workload, seconds, started):
    """Untraced closed loop: one full pass, then passes until ``seconds`` elapse."""
    records = [OpRecord(op) for op in workload.ops]
    counter = WarningCounter()
    first_op = time.monotonic()
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    passes = 0
    while True:
        run_pass(records, counter, deadline if passes else None)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    metrics, raw = end_to_end(records)
    metrics["setup_s"] = first_op - started
    raw["passes"] = passes
    raw["measured_s"] = time.perf_counter() - loop_start
    return records, metrics, raw


def measure_traced(workload, seconds, spans_path=None):
    """Two untraced passes, then full traced passes until ``seconds`` elapse.

    The first pass checks results and fills caches; the second is the
    untraced baseline of ``trace_overhead``.  Counts come from the first
    traced pass and must repeat exactly in the others; times are medians over
    the traced passes.  Every traced result is compared bit for bit with the
    untraced passes.
    """
    records = [OpRecord(op) for op in workload.ops]
    counter = WarningCounter()
    loop_start = time.perf_counter()
    run_pass(records, counter, repeat=False)
    run_pass(records, counter, repeat=False)
    untraced_s = sum(r.latencies[1] for r in records)
    tracer = tracing.Tracer()
    traced_counter = WarningCounter(tracer)
    per_pass = []
    tracer.install()
    try:
        while not per_pass or time.perf_counter() < loop_start + seconds:
            tracer.reset()
            run_pass(records, traced_counter, repeat=False)
            values = tracer.layer_metrics()
            values["trace_overhead"] = sum(r.latencies[-1] for r in records) / untraced_s
            per_pass.append(values)
            tracer.record_spans = False
    finally:
        tracer.uninstall()
    if spans_path is not None:
        write_spans(spans_path, tracer.spans)
    metrics = {}
    count_repeats = True
    for name, first in per_pass[0].items():
        if isinstance(first, int):
            metrics[name] = first
            count_repeats &= all(p[name] == first for p in per_pass)
        else:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    raw = {
        "traced_passes": len(per_pass),
        "counts_repeat": count_repeats,
        "repeat_mismatches": sum(r.repeat_mismatches for r in records),
        "spans_recorded": len(tracer.spans),
    }
    return records, metrics, raw


def write_spans(path, spans):
    """Spans of the first traced pass as JSON lines: id, parent, name, start, end."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = os.path.dirname(os.path.abspath(fracext.__file__))
    if os.path.commonpath([package, SRC]) != SRC:
        raise SystemExit(f"fracext was imported from {package}, not from {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        return run(args, workdir)


def run(args, workdir):
    workload = workloads.build(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.started}))
        return 0
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        records, metrics, raw = measure_traced(workload, args.seconds, spans)
        checked = raw["counts_repeat"]
    else:
        records, metrics, raw = measure(workload, args.seconds, args.started)
        checked = True
    checked = checked and all(r.failed is not None and not r.silent for r in records)
    print(json.dumps({
        "checked": checked,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failed),
        "metrics": metrics,
        "raw": raw,
        "ops": op_table(records),
        "env": environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
