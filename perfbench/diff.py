"""Compare two result files from perfbench/collect.py, metric by metric.

    python3 perfbench/diff.py perfbench/results/baseline.json NEW.json

For every workload and end-to-end metric of BENCHMARK.json it prints the
parent's and the change's medians and spreads and one verdict:

worse       the change's median is worse than the parent's by more than
            the metric's bound;
unresolved  the spread of either side is wider than the bound, and not
            every run of the change reads better than every run of the
            parent (or a side has fewer than two runs);
better      the medians differ by more than the parent's spread, and the
            change wins at least nine in ten runs paired by seed;
unchanged   otherwise.

Per-layer metrics of traced runs are listed where their medians differ,
without a verdict. Exits 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from collect import load_spec, spread


def _runs(doc, workload, trace):
    return {r["seed"]: r["result"] for r in doc["runs"]
            if r["workload"] == workload and r["trace"] == trace}


def verdict(base, new, better, bound):
    """base, new: {seed: value}. Returns (verdict, signed change share)."""
    mb, mn = statistics.median(base.values()), statistics.median(new.values())
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mn - mb) / mb
    if worse_by > bound:
        return "worse", worse_by
    sb, sn = spread(list(base.values())), spread(list(new.values()))
    if max(sb, sn) > bound:
        if (max(new.values()) < min(base.values()) if better == "lower"
                else min(new.values()) > max(base.values())):
            return "better", worse_by
        return "unresolved", worse_by
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    if -worse_by > sb and seeds and wins >= 0.9 * len(seeds):
        return "better", worse_by
    return "unchanged", worse_by


def main(argv=None):
    ap = argparse.ArgumentParser(description="compare two benchmark result files")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"base {base['meta']['commit'][:12]}  new {new['meta']['commit'][:12]}")
    any_worse = False
    for w in spec["workloads"]:
        name = w["name"]
        b0, n0 = _runs(base, name, 0), _runs(new, name, 0)
        if not b0 or not n0:
            print(f"{name}: no untraced runs in {'base' if not b0 else 'new'}")
            continue
        for side, runs in (("base", b0), ("new", n0)):
            att = sum(r["attempted"] for r in runs.values())
            bad = sum(r["failed"] for r in runs.values())
            print(f"{name:<11} {side:<4} {len(runs)} runs, error_rate {bad / att:.6f} "
                  f"({bad} of {att})")
        for m in spec["end_to_end"]:
            bv = {s: r["metrics"][m["name"]]["value"] for s, r in b0.items()}
            nv = {s: r["metrics"][m["name"]]["value"] for s, r in n0.items()}
            v, change = verdict(bv, nv, m["better"], m["bound"])
            any_worse |= v == "worse"
            print(f"  {m['name']:<13} {statistics.median(bv.values()):11.5g} "
                  f"(±{spread(list(bv.values())) * 100:5.1f}%) -> "
                  f"{statistics.median(nv.values()):11.5g} "
                  f"(±{spread(list(nv.values())) * 100:5.1f}%) {m['unit']:<4} "
                  f"worse by {change * 100:+6.1f}% (bound {m['bound'] * 100:.0f}%)  {v}")
        b1, n1 = _runs(base, name, 1), _runs(new, name, 1)
        if b1 and n1:
            for m in spec["per_layer"]:
                bv = [r["metrics"][m["name"]]["value"] for r in b1.values()]
                nv = [r["metrics"][m["name"]]["value"] for r in n1.values()]
                mb, mn = statistics.median(bv), statistics.median(nv)
                if mb != mn:
                    ratio = f"x{mn / mb:.3f}" if mb else "new"
                    print(f"  layer {m['name']:<40} {mb:11.5g} -> {mn:11.5g} "
                          f"{m['unit']:<10} {ratio}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
