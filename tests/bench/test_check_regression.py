"""The regression sentinel: green on committed records, red on slowdowns."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import check_regression

REPO = Path(__file__).resolve().parent.parent.parent


def _committed(name: str) -> dict:
    return json.loads((REPO / name).read_text())


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # The sentinel resolves committed artifacts by relative path.
    monkeypatch.chdir(REPO)


def _args(tmp_path, fastpath: dict, **extra: str) -> list[str]:
    fp = tmp_path / "fresh_fastpath.json"
    fp.write_text(json.dumps(fastpath))
    argv = ["--fresh-fastpath", str(fp)]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", value]
    return argv


def test_green_on_committed_artifacts(tmp_path, capsys):
    rc = check_regression.main(
        _args(tmp_path, _committed("BENCH_fastpath.json"))
        + ["--json", str(tmp_path / "report.json")]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True
    assert report["problems"] == []


def test_fails_on_synthetically_slowed_record(tmp_path, capsys):
    slowed = _committed("BENCH_fastpath.json")
    for cell in slowed["cells"]:
        cell["speedup"] /= 4.0
    rc = check_regression.main(
        _args(tmp_path, slowed, json=str(tmp_path / "report.json"))
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is False
    assert any("geomean" in p for p in report["problems"])
    assert any("fell below committed" in p for p in report["problems"])


def test_fails_when_a_cell_disappears(tmp_path):
    shrunk = _committed("BENCH_fastpath.json")
    shrunk["cells"].pop()
    rc = check_regression.main(_args(tmp_path, shrunk))
    assert rc == 1


def test_single_cell_regression_is_reported_by_label(tmp_path, capsys):
    doctored = _committed("BENCH_fastpath.json")
    victim = doctored["cells"][0]
    victim["speedup"] /= 10.0
    rc = check_regression.main(_args(tmp_path, doctored))
    assert rc == 1
    assert victim["label"] in capsys.readouterr().out


def test_noise_band_tolerates_flutter(tmp_path):
    flutter = _committed("BENCH_fastpath.json")
    for cell in flutter["cells"]:
        cell["speedup"] *= 0.9  # within the 25% default band
    rc = check_regression.main(_args(tmp_path, flutter))
    assert rc == 0


def test_overhead_gate(tmp_path):
    good = {"budget": 0.05, "ok": True,
            "disabled": {"overhead_ratio": 0.001},
            "enabled": {"overhead_ratio": 0.02}}
    bad = {"budget": 0.05, "ok": False,
           "disabled": {"overhead_ratio": 0.001},
           "enabled": {"overhead_ratio": 0.30}}
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    base = _args(tmp_path, _committed("BENCH_fastpath.json"))
    assert check_regression.main(base + ["--overhead", str(good_path)]) == 0
    assert check_regression.main(base + ["--overhead", str(bad_path)]) == 1
