"""cptate benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload quad-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. Every
run happens in fresh single-threaded interpreters (perfbench/worker.py):

--trace 0  set-up is timed in several fresh interpreters, then one timed
           loop measures the end-to-end metrics of BENCHMARK.json over the
           whole passes through the workload's inputs that fit in --seconds.
--trace 1  an untraced timed loop (the baseline for the tracing overhead
           and the source of the cache hit ratios), then one traced pass
           that gives the per-layer metrics.

The last line of standard output is
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("quad-small", "quad-large", "manifolds")
SETUP_SAMPLES = 11
CHILD_TIMEOUT = 170


def _spawn(mode, args):
    """Run the worker to completion; returns its result and set-up time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if args.limit:
        cmd += ["--limit", str(args.limit)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def tail_quantile(items_per_pass):
    """Highest of p90/p99/p99.9 leaving at least 10 of one pass's samples
    beyond it; fixed per workload by its pass size."""
    for q in (0.999, 0.99):
        if items_per_pass * (1 - q) >= 10:
            return q
    return 0.9


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values) - 1e-9) - 1)]


def end_to_end(args):
    _spawn("setup", args)  # warm-up: byte-compiles the sources once
    setups = [_spawn("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = _spawn("plain", args)
    setups.append(run["setup_s"])
    # rates and percentiles over whole passes only, so every run measures
    # the same mix of items; the partial pass after them is still checked
    passes = len(run["pass_ends"])
    if passes:
        n, seconds = passes * run["items_per_pass"], run["pass_ends"][-1]
    else:
        n, seconds = run["attempted"], run["wall_s"]
    durations = sorted(run["durations"][:n])
    q = tail_quantile(run["items_per_pass"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (n / seconds, "1/s"),
        "item_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "item_tail_ms": (quantile(durations, q) * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    print(f"{args.workload} seed={args.seed}: {run['attempted']} items in "
          f"{run['wall_s']:.3f} s, of them {n} in {passes} whole passes of "
          f"{run['items_per_pass']} in {seconds:.3f} s; item_tail_ms is p{q * 100:g}; "
          f"error_rate {run['failed'] / run['attempted']:.6f}")
    print("set-up samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    for note in run["notes"]:
        print(f"check: {note}")
    return [run], metrics


def _hit_ratio(cache, name):
    hits, misses = cache.get(name, (0, 0))
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(args):
    plain = _spawn("plain", args)
    traced = _spawn("traced", args)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["numfield.class_data.hit_ratio"] = (
        _hit_ratio(plain["cache"], "cptate.numfield._class_data"), "ratio")
    metrics["numfield.fundamental_unit.hit_ratio"] = (
        _hit_ratio(plain["cache"], "cptate.numfield.fundamental_unit"), "ratio")
    k = min(len(plain["durations"]), len(traced["durations"]))
    base = sum(plain["durations"][:k])
    overhead = sum(traced["durations"][:k]) / base - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    print(f"{args.workload} seed={args.seed}: traced pass of {traced['attempted']} items, "
          f"{traced['spans']} spans written to {traced['spans_file']}; tracing overhead "
          f"{overhead * 100:+.2f}% over the first {k} items "
          f"({sum(traced['durations'][:k]):.3f} s traced vs {base:.3f} s untraced)")
    for note in traced["notes"]:
        print(f"check: {note}")
    return [plain, traced], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="use only the first LIMIT inputs of the workload (smoke tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cptate", "__init__.py")):
        print(f"error: no cptate sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    runs, metrics = (per_layer if args.trace else end_to_end)(args)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
