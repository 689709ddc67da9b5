"""Smoke test of the end-to-end benchmark at 2^8 rows.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SMALL = ["--seconds", "1", "--log2-rows", "8"]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(RUN + ["--seed", "3", "--out", str(out)] + SMALL,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((out / "results.json").read_text())["runs"]
    return out, runs, proc.stdout


def test_names_are_well_formed_and_used_once():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert "setup_s" in END_TO_END


def test_every_workload_emits_every_metric_once(full_run):
    _, runs, stdout = full_run
    by_pass = {(r["meta"]["workload"], r["meta"]["trace"]): r for r in runs}
    assert set(by_pass) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for (workload, trace), run in by_pass.items():
        assert run["correct"] and run["failed"] == 0, (workload, trace)
        assert run["attempted"] >= 1
        assert set(run["metrics"]) == (PER_LAYER if trace else END_TO_END)
        units = {m["name"]: m["unit"]
                 for m in CONTRACT["per_layer" if trace else "end_to_end"]}
        for name, metric in run["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
        for key in ("python", "nproc", "git_sha", "seed", "operations",
                    "samples"):
            assert key in run["meta"]
    # The printed report names each metric once per workload.
    for name in END_TO_END | PER_LAYER:
        printed = re.findall(rf"^{re.escape(name)}\s", stdout, re.MULTILINE)
        assert len(printed) == len(WORKLOADS), name


def test_workloads_stress_and_bypass_what_they_claim(full_run):
    _, runs, _ = full_run
    traced = {r["meta"]["workload"]: {k: v["value"]
                                      for k, v in r["metrics"].items()}
              for r in runs if r["meta"]["trace"]}
    for workload in ("lib_modify", "query_default"):
        for name, value in traced[workload].items():
            if name.startswith(("serve.", "cache.")) and not name.endswith("_ms"):
                assert value == 0, (workload, name)
    hot = traced["serve_hot"]
    assert hot["cache.misses"] == 0 and hot["cache.installs"] == 0
    assert hot["cache.hits"] > 0
    churn = traced["serve_churn"]
    assert min(churn["cache.installs"], churn["cache.spills"],
               churn["cache.rehydrates"]) > 0
    assert traced["serve_burst"]["serve.planned_batches"] > 0


def test_trace_spans_have_valid_parents(full_run):
    out, _, _ = full_run
    spans = [json.loads(line)
             for line in (out / "trace.jsonl").read_text().splitlines()]
    assert {s["workload"] for s in spans} == set(WORKLOADS)
    ids = {(s["workload"], s["id"]) for s in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            assert (span["workload"], span["parent"]) in ids, span
    layers = {s["layer"] for s in spans}
    assert {"client", "floor", "fastpath", "core", "sorting", "ovc", "engine",
            "query", "cache", "plan", "exec", "serve"} <= layers


def _driver_run(workload: str, trace: int, cwd: Path = ROOT,
                run: list = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        run + ["--workload", workload, "--seed", "5", "--trace", str(trace)]
        + SMALL, capture_output=True, text=True, timeout=300, cwd=cwd)


def test_reference_engine_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _driver_run("lib_modify", 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["core.row_comparisons"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it must not report."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _driver_run(
        "lib_modify", 0, cwd=tmp_path,
        run=[sys.executable, "benchmarks/e2e/run.py"])
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
