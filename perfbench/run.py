#!/usr/bin/env python3
"""Benchmark of camel's meta-training and evaluation.

Run it from the root of a source checkout:

    python3 perfbench/run.py --workload train_so1 --seed 1 --seconds 20 --trace 0

Workloads: train_so1, train_so5, eval_wide (see perfbench/README.md).  A run
does a fixed number of steps, ``seconds`` times the workload's nominal step
rate, on episodes drawn from a stream seeded by ``--seed``, then checks the
outputs.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the same object, and the spans of a traced run, are
written under perfbench/out/.  The exit code is 0 when every output check
passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The metrics of BENCHMARK.json's end_to_end list.  steps_per_s,
# step_ms_best and cpu_ms_per_step are measured and printed too, but on a
# 2-vCPU host they spread too far from run to run to be held under a bound
# that catches a 10% change (README.md has the figures).
END_TO_END = ("setup_s", "peak_rss_mb")
SETUP_PROBES = 4          # fresh processes timed before the timed loop, and again after it
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up in this process and print the seconds")
    return ap.parse_args(argv)


def probe_setup(args) -> float:
    """Set-up time of one fresh process: from before ``import camel`` to the
    moment the first step could start."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "camel", "__init__.py")):
        print(f"error: no camel sources under {SRC}; run from a camel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports camel and numpy, so it belongs to set-up

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    steps = workloads.step_count(w, args.seconds)

    if args.setup_probe:
        workloads.set_up(w, args.seed, steps)
        print(f"{time.perf_counter() - t_start!r}")
        return 0

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        from spans import Tracer

        s = workloads.set_up(w, args.seed, steps)
        tracer = Tracer()
        rounds = workloads.round_count(w, args.seconds)
        res = workloads.run_traced(s, rounds, tracer, stem + ".caml")
        os.remove(stem + ".caml")
        tracer.write(stem + ".spans.jsonl")
        attempted, failed, failures = res.attempted, 0, res.failures
        metrics = res.metrics
        round_ms = tracer.median_ms("round")
        span_us = workloads.span_cost_us()
        print(f"{w.name} seed {args.seed}: {rounds} traced rounds at "
              f"{rounds / res.wall_s:.3f} rounds/s; {res.spans_per_round:.1f} spans per round "
              f"at {span_us:.2f} us each, {100 * res.spans_per_round * span_us / (1000 * round_ms):.4f}% "
              f"of the median round")
    else:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        s = workloads.set_up(w, args.seed, steps)
        res = workloads.run_timed(s, steps)
        setup += [probe_setup(args) for _ in range(SETUP_PROBES)]
        attempted, failed, failures = res.attempted, res.failed, res.failures
        done = attempted - failed
        measured = {
            "setup_s": (statistics.median(setup), "s"),
            "steps_per_s": (done / res.wall_s, "1/s"),
            "step_ms_best": (min(res.step_ms), "ms"),
            "cpu_ms_per_step": (1000.0 * res.cpu_s / max(1, done), "ms"),
            "peak_rss_mb": (res.peak_rss_mb, "MB"),
        }
        metrics = {k: measured[k] for k in END_TO_END}
        print(f"{w.name} seed {args.seed}: {attempted} steps in {res.wall_s:.2f} s; "
              + ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in measured.items())
              + f"; median step {statistics.median(res.step_ms):.1f} ms; set-up probes "
              + ", ".join(f"{x:.3f}" for x in setup) + " s")

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
