"""The enabled-telemetry gate reads telemetry's cost, not the host's.

``benchmarks/check_trace_overhead.py`` times interleaved off/on Table 1
sweeps.  It bills ``sum(count * cost)`` of the telemetry primitives the
"on" sweeps call against the fastest "off" sweep, and takes the median
of the pairs' on/off ratios; both must hold the 5 % budget.  Here every
sweep really runs (at 2^10 rows, with the telemetry plane really
switched), but the gate reads a virtual clock: each sweep advances it by
a fixed cost, and each call of a primitive by that primitive's seeded
cost.  So the verdicts do not depend on how busy the host is: an extra
10 % paid by every sweep with telemetry on must fail the budget, so
must one primitive costing 10 % of a sweep or made 10x dearer, and a
host that slows down sweep after sweep must not.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

import pytest

from repro.obs import METRICS, server

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_trace_overhead.py"
SWEEP_S = 0.040
N_ROWS = 1 << 10


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_trace_overhead", SCRIPT)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


GATE = _load_gate()
PRIMITIVES = list(GATE.PRIMITIVES)


@pytest.fixture(scope="module")
def counts():
    """Each primitive's calls over one telemetry-on sweep (it is
    deterministic: the sweep's tables are seeded)."""
    with GATE.counting(dict.fromkeys(PRIMITIVES, 0)) as got:
        with GATE.telemetry_plane():
            GATE.table1_sweep(N_ROWS)
    assert all(got.values()), got
    return got


def _gate_on_virtual_clock(monkeypatch, sweep_cost, unit_cost=None):
    """The gate module, its clock advanced by ``sweep_cost(sweep_index,
    telemetry_on)`` seconds per sweep and by ``unit_cost[p]`` per call
    of primitive ``p``; returns it and the list of telemetry states the
    sweeps ran under."""
    gate = _load_gate()
    real = gate.table1_sweep
    clock = [0.0]
    states: list[bool] = []

    def sweep(n_rows):
        real(n_rows)
        states.append(METRICS.enabled)
        clock[0] += sweep_cost(len(states) - 1, METRICS.enabled)

    def charged(method, cost):
        def call(*args, **kwargs):
            clock[0] += cost
            return method(*args, **kwargs)

        return call

    for name, cost in (unit_cost or {}).items():
        for cls, attr in gate.PRIMITIVES[name][0]:
            monkeypatch.setattr(cls, attr, charged(getattr(cls, attr), cost))
    monkeypatch.setattr(gate, "table1_sweep", sweep)
    monkeypatch.setattr(gate, "COST_CALLS", 20)
    monkeypatch.setattr(
        gate, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
    )
    return gate, states


def _shares(counts, share):
    """Per-call costs that make each primitive ``share`` of a sweep."""
    return {name: share * SWEEP_S / counts[name] for name in PRIMITIVES}


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


@pytest.fixture
def no_server(monkeypatch):
    """The idle ``/metrics`` server is no primitive: not starting it
    saves its shutdown poll on every switch of the plane."""
    for name in ("start_telemetry_server", "stop_telemetry_server"):
        monkeypatch.setattr(server, name, lambda **kwargs: None)


def test_gate_bills_a_ten_percent_primitive_cost(monkeypatch, counts, no_server):
    """Histogram observations costing 10 % of a sweep: the bill and the
    wall clock both read it, and no sweep runs beyond the pairs."""
    name = "histogram_observation"
    gate, states = _gate_on_virtual_clock(
        monkeypatch,
        lambda i, on: SWEEP_S,
        {name: 0.10 * SWEEP_S / counts[name]},
    )
    report: dict = {}
    assert not gate.check_enabled(N_ROWS, report)
    assert report["enabled"]["counts"][name] == counts[name]
    assert abs(report["enabled"]["bill_ratio"] - 0.10) < 1e-3
    assert abs(report["enabled"]["wall_clock_ratio"] - 0.10) < 1e-3
    assert states == [False, True] * gate.PAIRS
    assert not METRICS.enabled


def test_gate_passes_every_primitive_at_half_a_percent(
    monkeypatch, counts, no_server
):
    """Every primitive at 0.5 % of a sweep: 2.5–3 % in all (a log
    event's own metric update is billed twice; spans and marks also run,
    as no-ops, in the sweeps with telemetry off)."""
    gate, _states = _gate_on_virtual_clock(
        monkeypatch, lambda i, on: SWEEP_S, _shares(counts, 0.005)
    )
    report: dict = {}
    assert gate.check_enabled(N_ROWS, report)
    assert 0.02 <= report["enabled"]["overhead_ratio"] < gate.BUDGET


@pytest.mark.parametrize("dearer", PRIMITIVES)
def test_gate_fails_when_one_primitive_is_ten_times_dearer(
    monkeypatch, counts, no_server, dearer
):
    """The profile above, with any one primitive 10x dearer."""
    unit = _shares(counts, 0.005)
    unit[dearer] *= 10
    gate, _states = _gate_on_virtual_clock(
        monkeypatch, lambda i, on: SWEEP_S, unit
    )
    report: dict = {}
    assert not gate.check_enabled(N_ROWS, report)
