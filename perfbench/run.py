"""Benchmark for pcmanip.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ./src, so
nothing needs installing.  One closed-loop client in this process runs
a fixed number of whole cycles of the workload's operations, T seconds'
worth on the reference machine, checking every output against
computations made in checks.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the functions of every
layer are wrapped and the metrics are per layer and per operation.
Results and traces are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# at most two threads in all: one BLAS thread, in this process and in
# every process it starts (the machine has 2 cores)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("pair-stream", "scan-sweep", "large-n", "cli-batch")
# Operation time of one cycle on the reference machine (see README.md).
# A run does round(T / CYCLE_S) cycles, so that every run of a workload
# attempts the same operations, however fast the program is.
CYCLE_S = {"pair-stream": 0.0165, "scan-sweep": 1.25, "large-n": 0.3, "cli-batch": 6.2}
# this process's own set-up and fresh interpreters spread through the run
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 60
SHOWN_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def probe_setup(args):
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def import_cli_ms():
    """Time to import pcmanip.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pcmanip.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        samples.append(1000.0 * float(out.stdout.split()[-1]))
    return statistics.median(samples)


def run_cycles(workload, n_cycles, tracer, between):
    """`n_cycles` whole cycles of the workload's operations, calling
    `between(k)` untimed after cycle k; returns (per-cycle latencies,
    failed, wrong, problems)."""
    from workloads import OpFailed

    cycles, failed, wrong, problems = [], 0, 0, []
    attempted = 0
    for k in range(n_cycles):
        latencies = []
        for op in workload.ops:
            if tracer:
                tracer.op = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                result = OpFailed(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - start)
            if tracer:
                tracer.op = -1
            try:
                if isinstance(result, OpFailed):
                    raise result
                op.check(result)
            except OpFailed as exc:
                failed += 1
                problems.append(f"failed: {op.label}: {exc}")
            except Exception as exc:  # any other check error is a wrong output
                wrong += 1
                problems.append(f"wrong output: {op.label}: {type(exc).__name__}: {exc}")
        cycles.append(latencies)
        between(k)
    return cycles, failed, wrong, problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pcmanip", "__init__.py")):
        print(f"perfbench: no pcmanip package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import pcmanip.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import tracing
    import workloads

    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir, bool(args.trace))
        start = time.perf_counter()
        workload.warm_up()
        setup_s = import_s + time.perf_counter() - start
        if args.setup_probe:
            print(repr(setup_s))
            return 0

        n_cycles = max(1, round(args.seconds / CYCLE_S[args.workload]))
        setup_samples = [setup_s]
        # probes after evenly spaced cycles, so that the set-up samples
        # see the same changes in the machine's speed as the operations
        probes_after = [] if args.trace else [
            p * n_cycles // (SETUP_SAMPLES - 1) for p in range(SETUP_SAMPLES - 1)]

        def between(k):
            setup_samples.extend(probe_setup(args) for _ in range(probes_after.count(k)))

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        cycles, failed, wrong, problems = run_cycles(workload, n_cycles, tracer, between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = sum(map(len, cycles))
    ops_per_s = n_ops / sum(map(sum, cycles))
    # The median of each cycle, averaged over the run.  The machine's speed
    # changes in spells of seconds; a median over the whole run jumps
    # between the latency clusters of the operation sizes as the share of
    # slow spells changes, while an average follows that share smoothly.
    op_p50_ms = 1000.0 * statistics.fmean(statistics.median(c) for c in cycles)
    if tracer:
        tracer.uninstall()
        values = tracing.layer_metrics(tracer.spans, n_ops)
        values["cli.import_ms"] = import_cli_ms()
        values["traced.ops_per_s"] = ops_per_s
    else:
        if args.workload == "cli-batch":
            peak_kb = workload.max_child_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": op_p50_ms,
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup_samples),
        }
    result = {
        "correct": wrong == 0,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(values.items())},
    }

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer:
        origin = min((s[4] for s in tracer.spans), default=0.0)
        names = sorted({s[2] for s in tracer.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "names": names,
                       "spans": [(i, p, index[name], op, round((s - origin) * 1e9),
                                  round((e - origin) * 1e9))
                                 for i, p, name, op, s, e in tracer.spans]},
                      fh, separators=(",", ":"))
    for line in problems[:SHOWN_PROBLEMS]:
        print(line, file=sys.stderr)
    if len(problems) > SHOWN_PROBLEMS:
        print(f"... {len(problems) - SHOWN_PROBLEMS} more", file=sys.stderr)
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "calls/op"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
