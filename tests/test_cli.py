"""Tests for the ``python -m repro`` experiment runner."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_cli_table1(capsys):
    assert main(["table1", "--log2-rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "Table 1 cases" in out
    assert "A,C,B,D" in out


def test_cli_fig10(capsys):
    assert main(["fig10", "--log2-rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10" in out
    assert "no-ovc" in out and "ovc" in out


def test_cli_fig11(capsys):
    assert main(["fig11", "--log2-rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    assert "combined" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_design(capsys):
    assert main(["design", "--log2-rows", "10"]) == 0
    out = capsys.readouterr().out
    assert "Physical design" in out
    assert "with modification" in out
    assert "Three-table join planning" in out


def test_cli_bench_writes_json(capsys, tmp_path):
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--log2-rows", "8", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "reference vs fast" in out
    assert "speedup" in out
    import json

    record = json.loads(out_path.read_text())
    assert record["n_rows"] == 256
    assert record["cells"]
    for cell in record["cells"]:
        assert cell["fast_seconds"] > 0
        assert cell["reference_seconds"] > 0
        assert cell["row_comparisons"] >= 0


def test_cli_bench_exits_nonzero_on_fidelity_failure(capsys, monkeypatch):
    import repro.bench.trajectory as trajectory

    record = {
        "n_rows": 256,
        "fidelity_ok": False,
        "min_speedup": 1.0,
        "geomean_speedup": 1.0,
        "cells": [
            {"label": "fake", "speedup": 1.0, "fidelity_ok": False},
        ],
    }
    monkeypatch.setattr(trajectory, "run_trajectory", lambda *a, **k: record)
    assert main(["bench", "--log2-rows", "8"]) == 1
    assert "FIDELITY FAILURE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--workers", "1,2"],
        ["trace", "--trace-workers", "2"],
        ["table1", "--shard-timeout-s", "1.5"],
        ["table1", "--shard-timeout", "1.5"],
        ["table1", "--shard-retries", "2"],
        ["table1", "--memory-budget", "1MiB"],
    ],
)
def test_cli_rejects_removed_pool_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case", [1, 5])
def test_cli_trace_writes_validated_single_process_artifact(
    case, capsys, tmp_path
):
    import json

    from repro.obs.exporters import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    argv = ["trace", "--case", str(case), "--log2-rows", "10",
            "--out", str(out_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"case {case}:" in out and "modify" in out
    obj = json.loads(out_path.read_text())
    assert validate_chrome_trace(obj) == []
    spans = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert spans and len({e["pid"] for e in spans}) == 1


def test_cli_serve_exits_after_duration(capsys):
    from repro.obs import METRICS

    try:
        assert main(["serve", "--duration", "0.1", "--warm"]) == 0
    finally:
        METRICS.disable()
        METRICS.reset()
    out = capsys.readouterr().out
    assert "telemetry serving on http://" in out
    assert "warmed" in out


def test_cli_serve_endpoints_respond(capsys):
    import json
    import threading
    import urllib.request

    from repro.obs import METRICS

    results = {}

    def scrape():
        out = capsys.readouterr().out
        url = next(
            word for word in out.split() if word.startswith("http://")
        )
        with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
            results["health"] = json.loads(resp.read())
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            results["metrics"] = resp.read().decode("utf-8")

    # The serve loop blocks until --duration elapses, so scrape from a
    # helper thread while the CLI is the foreground "process".
    scraper = threading.Timer(0.2, scrape)
    scraper.start()
    try:
        assert main(["serve", "--duration", "0.8", "--warm"]) == 0
    finally:
        scraper.join()
        METRICS.disable()
        METRICS.reset()
    assert results["health"]["status"] in ("ok", "degraded")
    assert "repro_" in results["metrics"]


def test_cli_experiment_with_telemetry_port(capsys):
    from repro.obs import METRICS

    try:
        assert main(
            ["table1", "--log2-rows", "8", "--telemetry-port", "0"]
        ) == 0
    finally:
        METRICS.disable()
        METRICS.reset()
    out = capsys.readouterr().out
    assert "telemetry serving on http://" in out
    assert "Table 1 cases" in out


def test_cli_profile_writes_collapsed_stacks(capsys, tmp_path):
    path = tmp_path / "profile.folded"
    assert main(
        ["table1", "--log2-rows", "10", "--profile", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "collapsed stacks" in out
    text = path.read_text()
    if text:  # tiny runs can fall under the sampling interval
        stack, count = text.splitlines()[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert "repro" in stack
