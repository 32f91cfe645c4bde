"""One run of one workload in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is one of
  setup   import cptate, make the inputs, print the moment that was done;
  plain   the timed loop, untraced, for S seconds (at least one item);
  traced  exactly one pass over the inputs with the layer tracer installed.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cptate  # noqa: E402  (must come from this checkout's src)

ORIGINAL_SNF = cptate.intlinalg.snf

import tracer  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traces")


def _cache_totals(totals, stats):
    for name, (hits, misses) in stats.items():
        h, m = totals.get(name, (0, 0))
        totals[name] = (h + hits, m + misses)


def timed_loop(items, fn, traced, seconds):
    """Run items in order, wrapping around with cold caches, until the
    deadline (plain) or the end of the first pass (traced)."""
    clock = time.perf_counter
    durations = []
    outputs = [None] * len(items)
    repeat_mismatches = 0
    pass_ends = []
    cache = {}
    k = 0
    start = clock()
    deadline = start + seconds
    while True:
        item = items[k]
        t0 = clock()
        try:
            out = fn(item, traced)
        except Exception as err:  # counted as a failed item, loop goes on
            out = err
        t1 = clock()
        durations.append(t1 - t0)
        if not pass_ends:
            outputs[k] = out
        elif isinstance(out, Exception) or out != outputs[k]:
            repeat_mismatches += 1
        k += 1
        if k == len(items):
            pass_ends.append(t1 - start)
            k = 0
            if traced:
                break
            _cache_totals(cache, workloads.clear_caches())
        if not traced and t1 >= deadline:
            break
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _cache_totals(cache, workloads.clear_caches())
    first = outputs if pass_ends else outputs[:k]
    return {
        "durations": durations, "wall_s": wall, "pass_ends": pass_ends,
        "first_pass": first, "repeat_mismatches": repeat_mismatches,
        "peak_rss_mb": rss_mb, "cache": cache,
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--limit", type=int, default=0,
                    help="use only the first LIMIT inputs (smoke tests)")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    items = wl.inputs(args.seed)
    if args.limit:
        items = items[:args.limit]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"mode": args.mode, "ready": ready, "items_per_pass": len(items)}
    if args.mode == "setup":
        return result

    traced = args.mode == "traced"
    fn = wl.item
    tr = None
    if traced:
        tr = tracer.Tracer()
        tr.install()
        fn = tr.wrap(tracer.ITEM, fn)
    run = timed_loop(items, fn, traced, args.seconds)
    if not traced:
        # the untraced run must have measured the program as shipped
        wrapped = tracer.wrapped_names()
        if (wrapped or cptate.intlinalg.snf is not ORIGINAL_SNF
                or cptate.cpmod.snf is not ORIGINAL_SNF):
            raise RuntimeError(f"untraced run found tracer wrappers: {wrapped}")

    if traced:
        # before the checks, which call into cptate themselves
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}.spans.gz")
        tr.write(path)
        result["spans"] = len(tr.start)
        result["spans_file"] = os.path.relpath(path, ROOT)
        result["layers"] = tracer.layer_metrics(tr, len(run["durations"]))

    first = run.pop("first_pass")
    bad, notes = wl.check(items[:len(first)], first, args.seed)
    raised = [f"{items[i]!r}: {first[i]!r}" for i in bad if isinstance(first[i], Exception)]
    result.update(run)
    result.update({
        "attempted": len(run["durations"]),
        "failed": len(bad) + run["repeat_mismatches"],
        "notes": notes + raised[:5],
    })
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
