#!/usr/bin/env python3
"""Benchmark for apportion: four workloads, each a closed-loop client.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout.  The client runs one operation at a time (in
cli-calls one child process at a time) through a fixed, seeded list of
operations, checks every output with ``oracle.py``, and prints the metrics,
the operations attempted and the operations failed.  The last line of stdout
is one JSON object.  With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` the run records spans around every call into the package,
replays a sweep over every layer, writes the spans to ``.bench_out/`` and
prints the per-layer metrics instead.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("certify-mix", "search-grid", "search-orders", "cli-calls")
#: fresh interpreters started per run to measure set-up time
SETUP_PROBES = 5
#: BLAS and OpenMP pools held to one thread: the client runs one operation at
#: a time on a small machine, and a pinned pool makes outcomes repeat exactly
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_rank(count: int) -> int:
    """1-based rank of the tail sample.

    The highest percentile, up to p99, that still has at least ten samples
    beyond it.  Above p99 single stalls of the virtual machine decide the
    value (see README.md, "Steadiness").
    """
    return max(1, min(count - 10, math.ceil(0.99 * count)))


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to its first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
    return float(proc.stdout.decode().split()[-1]) - start


def execute(plan, tr, speed):
    """Time every operation, then check it.

    Returns per-operation (wall seconds, scale), the timed section as
    (wall seconds, scale) per batch, the failures by kind and the wrong
    outputs.  ``speed`` is sampled after every batch, and the scales are
    read from it once the run is over.
    """
    from workloads import FAILED, Wrong

    timings, batches, failed, wrong = [], [], {}, []
    ops = plan.ops
    for start in range(0, len(ops), plan.chunk):
        batch = ops[start:start + plan.chunk]
        outs, walls = [], []
        t_batch = perf_counter()
        for k, op in enumerate(batch):
            tr.op = start + k
            with tr.span("op." + op.kind):
                t0 = perf_counter()
                try:
                    out = op.run(tr)
                except Exception as exc:  # the client keeps going; check() fails it
                    out = exc
                walls.append(perf_counter() - t0)
            outs.append(out)
        wall = perf_counter() - t_batch
        index = speed.sample()
        batches.append((wall, index))
        timings += [(w, index) for w in walls]
        for op, out in zip(batch, outs):
            try:
                status = op.check(out)
            except Wrong as exc:
                wrong.append(str(exc))
                continue
            if status == FAILED:
                reason = type(out).__name__ if isinstance(out, Exception) else "check"
                key = f"{op.kind} ({reason})"
                failed[key] = failed.get(key, 0) + 1

    def scaled(pairs):
        return [(w, speed.scale(i)) for w, i in pairs]

    return scaled(timings), scaled(batches), failed, wrong


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the weights being the mass of a
    Beta(p (n+1), (1-p) (n+1)) distribution on each interval ((i-1)/n, i/n].
    Against the single order statistic at the same rank it narrowed the
    run-to-run spread of the tail on every workload and of p50 on
    search-orders (README.md, "Quantile estimator").
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    t = np.linspace(max(1e-12, p - 12 * sd), min(1 - 1e-12, p + 12 * sd), 4001)
    logpdf = ((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
              + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    pdf = np.exp(logpdf)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(t))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def end_to_end(latencies, section, rss_kb, setups):
    """The five end-to-end metrics from (already rescaled) seconds."""
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1e3 * harrell_davis(latencies, 0.5), "ms"),
        "latency_tail_ms": (1e3 * harrell_davis(latencies, tail_rank(n) / n), "ms"),
        "throughput_ops_s": (n / section, "ops/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_workload(args) -> dict:
    import workloads
    from speed import SpeedTrack
    from tracing import NullTracer, Tracer

    setup_speed = SpeedTrack(child=True)
    setups = [(setup_probe(args), setup_speed.sample()) for _ in range(SETUP_PROBES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        plan = workloads.build(args.workload, args.seed, args.seconds, ROOT, workdir)
        tr = Tracer() if args.trace else NullTracer()
        speed = SpeedTrack(child=plan.cli is not None)
        timings, batches, failed, wrong = execute(plan, tr, speed)
        if plan.cli is not None:
            rss = plan.cli.peak_rss_kb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw = end_to_end([w for w, _ in timings], sum(w for w, _ in batches), rss,
                         [s for s, _ in setups])
        e2e = end_to_end([w * k for w, k in timings], sum(w * k for w, k in batches), rss,
                         [s * setup_speed.scale(i) for s, i in setups])
        if args.trace:
            import layers

            metrics = layers.per_layer(tr, args, ROOT, workdir)
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            tr.write(path, {"workload": args.workload, "seed": args.seed,
                            "end_to_end": {k: v[0] for k, v in e2e.items()},
                            "end_to_end_raw": {k: v[0] for k, v in raw.items()},
                            "speed_samples": speed.samples})
            print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(timings)
    for key, count in sorted(failed.items()):
        print(f"failed: {count} x {key}", file=sys.stderr)
    for problem in wrong[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"{args.workload}: {n} operations, {sum(failed.values())} failed, "
          f"{len(wrong)} wrong; latency_tail_ms is p{100.0 * tail_rank(n) / n:.4g}")
    print(f"  reference at {speed.level():.3f} x its nominal time; times below are "
          f"rescaled by it")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name:48s} {value:14.6g} {unit}{extra}")
    return {"correct": not wrong, "attempted": n,
            "failed": sum(failed.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sets how many whole rounds of operations one run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "apportion", "__init__.py")):
        print(f"error: no apportion sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    if args.setup_probe:
        import workloads

        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        try:
            workloads.build(args.workload, args.seed, args.seconds, ROOT, workdir)
            ready = perf_counter()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(ready))
        return 0

    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    # each workload in a child of its own, so that its peak RSS is its own
    results = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                               text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results.append({"workload": name, **json.loads(lines[-1])})
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
