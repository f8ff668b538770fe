"""pinchlab benchmark: one workload, one seed, one JSON line.

Run from the repository root (the checkout holding ``src/pinchlab``):

    python3 benchmarks/run.py --workload pinch_sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  A fuller record goes to ``benchmarks/out/``.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pinchlab.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the set-up time and exit")
    return ap.parse_args(argv)


def timed_setup(args, work_dir):
    """Import, model builds, inputs and one warm-up call of each operation kind."""
    t0 = perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, os.getcwd(), bool(args.trace),
                                            work_dir)
    wl.setup()
    return perf_counter() - t0, wl


def setup_samples(args, first):
    """The parent's set-up time plus that of fresh interpreters doing the same."""
    times = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.path.abspath("src")
                + (os.pathsep + path if path else ""))


def import_metrics():
    """cli.import_s (fresh interpreters) and cli.import_scipy_s (-X importtime)."""
    env = child_env()
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip()))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pinchlab.cli"],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    scipy_us = 0
    for line in out.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
            scipy_us += int(parts[0].split(":")[1])
    return statistics.median(times), scipy_us * 1e-6


def summarize(times):
    if not times:
        return None
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {"n": len(times), "median_s": statistics.median(times), "q1_s": q[0],
            "q3_s": q[2]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pinchlab", "__init__.py")):
        print("benchmark: run from the repository root; src/pinchlab not found",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path[:0] = [HERE, os.path.abspath("src")]
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        t_setup, wl = timed_setup(args, work_dir)
        if args.setup_only:
            print(t_setup)
            return 0
        return measure(args, spec, wl, t_setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, spec, wl, t_setup):
    import workloads
    from tracing import Tracer

    ops = workloads.Ops()
    # probes only in traced runs: they give every layer work, so that every
    # per-layer metric has a value on every workload
    probes = workloads.Probes(wl) if args.trace else None
    tracer = Tracer() if args.trace else None
    with tracer if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        if probes:
            ops.between = lambda: probes.step(ops, (perf_counter() - t0) / args.seconds)
        rounds = 0
        while rounds < wl.min_rounds or perf_counter() - t0 < args.seconds:
            wl.round(ops, rounds)
            rounds += 1
        # the workload's own operations and the time they took
        timed_ops = ops.attempted - (probes.ops if probes else 0)
        timed_s = perf_counter() - t0 - (probes.busy_s if probes else 0.0)
        ops.between = None
        if probes:
            probes.step(ops, 1.0)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "timed_s": timed_s, "timed_ops": timed_ops,
              "ops_per_s": timed_ops / timed_s,
              "kinds": {k: summarize(v) for k, v in sorted(ops.times.items())},
              "errors": ops.errors, "env": environment()}

    if args.trace:
        values = tracer.layer_metrics()
        values["cli.import_s"], values["cli.import_scipy_s"] = import_metrics()
        for kind, (metric, scale) in workloads.KIND_METRICS.items():
            if not ops.times.get(kind):
                raise SystemExit(f"benchmark: no successful {kind} operation, "
                                 f"so {metric} has no value")
            values[metric] = ops.typical_time(kind) * scale
        names = spec["per_layer"]
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        samples = setup_samples(args, t_setup)
        record["setup_samples_s"] = samples
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_reports" \
            else resource.RUSAGE_SELF
        values = dict(setup_s=statistics.median(samples),
                      ops_per_s=timed_ops / timed_s,
                      peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0)
        names = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record["metrics"] = metrics
    result = {"correct": ops.wrong == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, **{k: result[k] for k in ("correct", "attempted", "failed")}),
                  fh, indent=1, sort_keys=True)
    for err in ops.errors:
        print(f"benchmark: failed operation: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def environment():
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


if __name__ == "__main__":
    sys.exit(main())
