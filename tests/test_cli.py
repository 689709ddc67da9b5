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


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--workers", "1,2"],
        ["trace", "--trace-workers", "2"],
        ["table1", "--shard-timeout-s", "1.5"],
        ["table1", "--shard-timeout", "1.5"],
        ["table1", "--shard-retries", "2"],
        ["table1", "--memory-budget", "1MiB"],
        ["bench"],
        ["table1", "--profile", "x"],
    ],
)
def test_cli_rejects_removed_pool_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("case", [1, 5])
def test_cli_trace_writes_validated_single_process_artifact(
    case, capsys, monkeypatch, tmp_path
):
    import repro.obs.exporters as exporters

    written = []
    write_jsonl = exporters.write_jsonl

    def capture(path, records, **kwargs):
        written.extend(records)
        write_jsonl(path, records, **kwargs)

    monkeypatch.setattr(exporters, "write_jsonl", capture)
    out_path = tmp_path / "trace.jsonl"
    argv = ["trace", "--case", str(case), "--log2-rows", "10",
            "--out", str(out_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"case {case}:" in out and "modify" in out
    spans, metrics, meta = exporters.read_jsonl(str(out_path))
    assert spans and spans == written
    assert len({s["pid"] for s in spans}) == 1
    assert metrics is not None and meta["case"] == case


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

