"""hermhecke benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload genus --seed 1 --seconds 24 --trace 0

Closed loop with one client: passes run back to back.  The run imports
hermhecke from ./src, sets its inputs up SETUP_REPS times, runs one
warm-up pass outside the timings, then measures passes until --seconds
have passed.  Every pass builds fresh inputs from the seed first (outside
its timing), so no lattice's cached invariants carry over between passes.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half of
--seconds on untraced passes and half on traced ones, and prints the
per-layer metrics per traced pass, with the tracing overhead.  The last
line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

SETUP_REPS = 5


def run_pass(workload, name: str, seed: int, ops) -> float:
    inputs = workload.build(random.Random(f"{name}:{seed}"))
    start = time.perf_counter()
    workload.run(inputs, ops)
    return time.perf_counter() - start


def measure(workload, name: str, seed: int, ops, seconds: float) -> list:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run_pass(workload, name, seed, ops))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        import workloads
        import tracing
    except ImportError as exc:
        print(f"cannot import hermhecke from ./src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    build_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        workload.build(random.Random(f"{args.workload}:{args.seed}"))
        build_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(build_times)

    ops = workloads.Ops()
    warmup_s = run_pass(workload, args.workload, args.seed, ops)
    budget = args.seconds / 2 if args.trace else args.seconds
    times = measure(workload, args.workload, args.seed, ops, budget)
    solve_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}, seed {args.seed}: warm-up pass {warmup_s:.3f} s, "
          f"passes " + " ".join(f"{t:.3f}" for t in times) + " s")
    failed_share = len(ops.failures) / ops.attempted
    summary = [("setup_s", setup_s, "s"), ("solve_s", solve_s, "s")]
    if ops.neighbours_built:
        built_per_pass = ops.neighbours_built / (len(times) + 1)
        summary.append(("neighbours_per_s", built_per_pass / solve_s, "1/s"))
    summary += [("ops_failed_share", failed_share, "ratio"),
                ("peak_rss_mb", peak_rss_mb, "MB")]
    for key, value, unit in summary:
        print(f"  {key:<18} {value:.6g} {unit}")
    for message in sorted(set(f"{call}: {problem}" for call, problem in ops.failures)):
        print(f"  failed: {message}")

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = measure(workload, args.workload, args.seed, ops, budget)
        layers = tracer.metrics(len(traced), statistics.median(traced), solve_s)
        for key, (value, unit) in sorted(layers.items()):
            print(f"  {key:<48} {value:.6g} {unit}")
        metrics = layers
    else:
        metrics = {"setup_s": (setup_s, "s"), "solve_s": (solve_s, "s"),
                   "ops_ok_share": (1 - failed_share, "ratio"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": ops.wrong_results == 0,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
