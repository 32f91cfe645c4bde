"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest perfbench/test_bench.py -q

Every run here is tiny (--limit, sub-second --seconds): they check that the
driver, the tracer, the collector and the diff execute and that the
correctness gate catches a wrong reference, not how fast anything is.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts this checkout's src first on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402
from cptate import numfield  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=0, limit=6, seconds=0.3, cwd=ROOT, check=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--limit", str(limit)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = run_bench(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    out = run_bench(workload, trace=1)
    assert out["correct"], out
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["intlinalg.snf.calls"]["value"] > 0
    assert metrics["intlinalg.IntMatrix.validations"]["value"] > 0
    buckets = sum(metrics[f"intlinalg.snf.calls.size-{b}"]["value"]
                  for _, b in tracer.SNF_BUCKETS)
    assert buckets == pytest.approx(metrics["intlinalg.snf.calls"]["value"])
    quadratic = workload.startswith("quad")
    assert (metrics["numfield.field_report.calls"]["value"] > 0) == quadratic
    assert (metrics["mfld.run_all_checks.calls"]["value"] > 0) == (not quadratic)
    labels, spans = tracer.read_spans(os.path.join(HERE, "traces", f"{workload}.spans.gz"))
    assert sum(1 for s in spans if labels[s[0]] == tracer.ITEM) == 6
    # only the timed items are traced, not the checks after them
    assert all(labels[name] == tracer.ITEM for name, parent, _, _ in spans if parent < 0)
    assert all(start <= end for _, _, start, end in spans)


def test_traced_counts_repeat_exactly():
    a = run_bench("manifolds", trace=1, seed=3)["metrics"]
    b = run_bench("manifolds", trace=1, seed=3)["metrics"]
    for name, m in a.items():
        if m["unit"] == "calls/item":
            assert m["value"] == b[name]["value"], name


def test_corrupted_reference_raises_error_rate(monkeypatch):
    doc = json.loads(workloads.load_quad_small_reference())
    doc["reports"][0]["class_number"] += 1
    corrupted = json.dumps(doc, indent=2).encode()
    monkeypatch.setattr(workloads, "load_quad_small_reference", lambda: corrupted)
    result = worker.main(["--workload", "quad-small", "--seed", "0", "--seconds", "0.2",
                          "--mode", "plain", "--limit", "5"])
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert tracer.wrapped_names() == []


def test_dirichlet_oracle_agrees_with_class_number():
    for d in range(-5, -1500, -1):
        if workloads.factor_squarefree(d) is not None:
            assert workloads.dirichlet_class_number(d) == numfield.class_number(d), d


def test_collect_and_diff_execute(tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        cmd = [sys.executable, os.path.join(HERE, "collect.py"), "--seeds", "1-2",
               "--workloads", "quad-small,manifolds", "--traced", "1", "--seconds", "0.2",
               "--limit", "4", "--out", str(path)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(str(path))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "diff.py"), *outs],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    verdicts = ("better", "worse", "unchanged", "unresolved")
    rows = [line for line in proc.stdout.splitlines() if line.rstrip().endswith(verdicts)]
    assert len(rows) == 2 * len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = run_bench("quad-small", trace=0, cwd=str(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
