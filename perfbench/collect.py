"""Run the benchmark over several seeds and save every result line.

    python3 perfbench/collect.py --seeds 1-10 --traced 1 --out perfbench/results/NAME.json

For each workload (all of BENCHMARK.json's by default) this runs
perfbench/run.py once per seed with --trace 0, then with --trace 1 for the
first --traced seeds, one after another. It prints, per end-to-end metric,
the median and the spread (distance between the quartiles as a share of
the median) next to the metric's bound. Compare two saved files with
perfbench/diff.py.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    """Interquartile distance as a share of the median (inf below 2 runs)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, limit=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if limit:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py failed for {workload} seed {seed} trace {trace}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description="run the benchmark over several seeds")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", type=int, default=0,
                    help="also make a --trace 1 run for this many of the seeds")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--limit", type=int, default=0, help="passed on to run.py")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seeds = _seeds(args.seeds)
    doc = {
        "meta": {
            "commit": _commit(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": args.seconds,
        },
        "runs": [],
    }
    for workload in args.workloads.split(","):
        for trace, chosen in ((0, seeds), (1, seeds[:args.traced])):
            for seed in chosen:
                result, lines = run_once(workload, seed, args.seconds, trace, args.limit)
                print(f"[{workload} seed={seed} trace={trace}] " + " | ".join(lines[:1]),
                      flush=True)
                doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                    "result": result})
        plain = [r["result"] for r in doc["runs"]
                 if r["workload"] == workload and r["trace"] == 0]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            s = spread(values)
            flag = "ok" if s < m["bound"] / 3 else ("wide" if s <= m["bound"] else "TOO WIDE")
            print(f"  {workload:<11} {m['name']:<13} median {statistics.median(values):12.5g} "
                  f"{m['unit']:<4} spread {s * 100:6.2f}%  bound {m['bound'] * 100:4.0f}%  {flag}")
        bad = sum(r["failed"] for r in plain)
        print(f"  {workload:<11} failed {bad} of {sum(r['attempted'] for r in plain)} attempted",
              flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
