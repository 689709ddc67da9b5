"""The enabled-telemetry gate reads telemetry's cost, not the host's.

``benchmarks/check_trace_overhead.py`` times interleaved off/on Table 1
sweeps and compares the minimum of each side.  Here every sweep really
runs (at 2^10 rows, with the telemetry plane really switched), but the
gate reads a virtual clock that each sweep advances by a fixed cost, so
the verdicts do not depend on how busy the host is: a fixed extra cost
of 10 % of a sweep, paid only while telemetry is on, must fail the 5 %
budget, and a host that slows down sweep after sweep must not.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

from repro.obs import METRICS

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_trace_overhead.py"
SWEEP_S = 0.040


def _gate_on_virtual_clock(monkeypatch, cost):
    """The gate module, its clock advanced by ``cost(sweep_index,
    telemetry_on)`` seconds per sweep; returns it and the list of
    telemetry states the sweeps ran under."""
    spec = importlib.util.spec_from_file_location("check_trace_overhead", SCRIPT)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    real = gate.table1_sweep
    clock = [0.0]
    states: list[bool] = []

    def sweep(n_rows):
        real(n_rows)
        states.append(METRICS.enabled)
        clock[0] += cost(len(states) - 1, METRICS.enabled)

    monkeypatch.setattr(gate, "table1_sweep", sweep)
    monkeypatch.setattr(
        gate, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
    )
    return gate, states


def test_gate_fails_on_a_ten_percent_telemetry_cost(monkeypatch):
    gate, states = _gate_on_virtual_clock(
        monkeypatch, lambda i, on: SWEEP_S * (1.10 if on else 1.0)
    )
    report: dict = {}
    assert not gate.check_enabled(1 << 10, report)
    assert abs(report["enabled"]["overhead_ratio"] - 0.10) < 1e-3
    assert states == [False, True] * gate.PAIRS
    assert not METRICS.enabled


def test_gate_reads_no_overhead_from_host_drift(monkeypatch):
    """Each sweep 2 % slower than the last, telemetry free: three "off"
    sweeps timed before three "on" sweeps would read 6 % here."""
    gate, states = _gate_on_virtual_clock(
        monkeypatch, lambda i, on: SWEEP_S * (1.0 + 0.02 * i)
    )
    report: dict = {}
    assert gate.check_enabled(1 << 10, report)
    assert report["enabled"]["overhead_ratio"] < gate.BUDGET
