"""ExecutionConfig construction, validation, env parsing, and derivation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig, parse_memory
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.query import Query


# ------------------------------------------------------------ parse_memory


@pytest.mark.parametrize(
    "value,expected",
    [
        (1, 1),
        (4096, 4096),
        ("512", 512),
        ("1B", 1),
        ("1K", 1024),
        ("1KiB", 1024),
        ("1KB", 1000),
        ("1MiB", 1024 ** 2),
        ("1MB", 1000 ** 2),
        ("2GiB", 2 * 1024 ** 3),
        ("1.5MiB", int(1.5 * 1024 ** 2)),
        ("  64 kib ", 64 * 1024),
        ("1_000", 1000),
        (None, None),
        ("", None),
    ],
)
def test_parse_memory_accepts(value, expected):
    assert parse_memory(value) == expected


@pytest.mark.parametrize(
    "value", [0, -1, "0B", "-5MiB", "1TiB", "xMiB", True, 1.5, [1]]
)
def test_parse_memory_rejects(value):
    with pytest.raises(ValueError):
        parse_memory(value)


# --------------------------------------------------------- ExecutionConfig


def test_defaults_are_ungoverned_serial_auto():
    cfg = ExecutionConfig()
    assert cfg.engine == "auto"
    assert cfg.max_fan_in is None
    assert cfg.cache_budget is None


#: Removed knobs: the worker pool's four, then the output byte budget
#: and the two observability requests nothing read, then the cache TTL
#: and the config-wide default deadline.
_REMOVED_FIELDS = (
    "workers", "data_plane", "shard_timeout_s", "shard_retries",
    "memory_budget", "trace", "metrics", "cache_ttl", "service_deadline_ms",
)


def test_field_count_is_eight():
    names = {f.name for f in dataclasses.fields(ExecutionConfig)}
    assert len(names) == 8
    assert names.isdisjoint(_REMOVED_FIELDS)


@pytest.mark.parametrize("name", _REMOVED_FIELDS)
def test_removed_pool_fields_are_plain_errors(name):
    with pytest.raises(TypeError, match="unexpected keyword"):
        ExecutionConfig(**{name: 1})
    with pytest.raises(TypeError, match="unexpected keyword"):
        ExecutionConfig().with_(**{name: 1})


def test_removed_config_layers_are_gone():
    # A config comes from code or from the environment: there is no
    # file layer and no base config under the environment.
    assert not hasattr(ExecutionConfig, "from_file")
    with pytest.raises(TypeError, match="unexpected keyword"):
        ExecutionConfig.from_env({}, base=ExecutionConfig())


def test_memory_budget_string_is_parsed_at_construction():
    cfg = ExecutionConfig(cache_budget="1MiB")
    assert cfg.cache_budget == 1024 ** 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "turbo"},
        {"max_fan_in": 1},
        {"cache_budget": 0},
        {"max_fan_in": 2.5},
        {"max_fan_in": 4.0},
        {"max_fan_in": True},
        {"max_fan_in": "8"},
        {"cache_budget": 1.5},
    ],
)
def test_invalid_fields_raise(kwargs):
    with pytest.raises(ValueError):
        ExecutionConfig(**kwargs)


def test_frozen():
    cfg = ExecutionConfig()
    with pytest.raises(Exception):
        cfg.engine = "fast"


def test_with_returns_validated_copy():
    cfg = ExecutionConfig(max_fan_in=4)
    derived = cfg.with_(cache_budget="4KiB", engine="reference")
    assert derived.max_fan_in == 4
    assert derived.cache_budget == 4096
    assert derived.engine == "reference"
    assert cfg.cache_budget is None  # original untouched
    with pytest.raises(ValueError):
        cfg.with_(engine="bogus")


def test_from_env_reads_all_fields():
    env = {
        "REPRO_ENGINE": "reference",
        "REPRO_MAX_FAN_IN": "8",
        "REPRO_CACHE_BUDGET": "1MiB",
        "REPRO_SPILL_DIR": "/tmp/spills",
    }
    cfg = ExecutionConfig.from_env(env)
    assert cfg.engine == "reference"
    assert cfg.max_fan_in == 8
    assert cfg.cache_budget == 1024 ** 2
    assert cfg.spill_dir == "/tmp/spills"


def test_from_env_ignores_removed_variables_and_empty_env():
    assert ExecutionConfig.from_env({}) == ExecutionConfig()
    # A leftover variable of a removed knob from an old deployment
    # configures nothing and breaks nothing — whatever it holds.
    leftovers = {
        "REPRO_CACHE_TTL": "soon",
        "REPRO_SERVICE_DEADLINE_MS": "-1",
        "REPRO_MEMORY_BUDGET": "1MiB",
        "REPRO_WORKERS": "auto",
        "REPRO_DATA_PLANE": "shm",
        "REPRO_SHARD_TIMEOUT": "soon",
        "REPRO_SHARD_RETRIES": "3",
        "REPRO_FAULTS": "kill@0x1",
    }
    assert ExecutionConfig.from_env(leftovers) == ExecutionConfig()


@pytest.mark.parametrize(
    "var,field",
    [
        ("REPRO_MAX_FAN_IN", "max_fan_in"),
        ("REPRO_SERVICE_THREADS", "service_threads"),
        ("REPRO_SERVICE_QUEUE_DEPTH", "service_queue_depth"),
        ("REPRO_PLAN_WINDOW_MS", "plan_window_ms"),
    ],
)
def test_from_env_malformed_number_names_the_variable(var, field):
    with pytest.raises(ValueError) as exc:
        ExecutionConfig.from_env({var: "abc"})
    message = str(exc.value)
    assert var in message and "'abc'" in message and field in message


@pytest.fixture
def fresh_default():
    """Re-read the environment on the next ``default()``, and again
    after the test (its variables are gone by then)."""
    ExecutionConfig.default.cache_clear()
    yield
    ExecutionConfig.default.cache_clear()


def test_default_respects_environment(monkeypatch, fresh_default):
    monkeypatch.setenv("REPRO_CACHE_BUDGET", "2KiB")
    assert ExecutionConfig.default().cache_budget == 2048


def test_default_reads_the_environment_once(monkeypatch, fresh_default):
    first = ExecutionConfig.default()
    assert ExecutionConfig.default() is first
    monkeypatch.setenv("REPRO_CACHE_BUDGET", "2KiB")
    assert ExecutionConfig.default() is first
    ExecutionConfig.default.cache_clear()
    assert ExecutionConfig.default().cache_budget == 2048
    assert ExecutionConfig.from_env() == ExecutionConfig.default()


# ------------------------------------------------------------ order cache


def test_cache_defaults_off_and_validates():
    cfg = ExecutionConfig()
    assert cfg.cache == "off"
    assert cfg.cache_budget is None
    on = ExecutionConfig(cache="on", cache_budget="8MiB")
    assert on.cache == "on"
    assert on.cache_budget == 8 * 1024 ** 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cache": "yes"},
        {"cache": "ON"},
        {"cache_budget": -1},
        {"cache_budget": "0B"},
        {"cache_budget": 2.0},
        {"cache_budget": b"1MiB"},
        {"cache": "auto"},
    ],
)
def test_cache_field_rejects(kwargs):
    with pytest.raises(ValueError):
        ExecutionConfig(**kwargs)


def test_cache_from_env():
    cfg = ExecutionConfig.from_env(
        {
            "REPRO_CACHE": "on",
            "REPRO_CACHE_BUDGET": "2MiB",
        }
    )
    assert cfg.cache == "on"
    assert cfg.cache_budget == 2 * 1024 ** 2
    # 1/0 spellings and case-insensitivity.
    assert ExecutionConfig.from_env({"REPRO_CACHE": "1"}).cache == "on"
    assert ExecutionConfig.from_env({"REPRO_CACHE": "0"}).cache == "off"
    assert ExecutionConfig.from_env({"REPRO_CACHE": "ON"}).cache == "on"
    for bogus in ("maybe", "auto"):
        with pytest.raises(ValueError, match="unknown cache mode"):
            ExecutionConfig.from_env({"REPRO_CACHE": bogus})


def test_cache_with_derivation():
    cfg = ExecutionConfig()
    derived = cfg.with_(cache="on", cache_budget="1KiB")
    assert derived.cache == "on"
    assert derived.cache_budget == 1024
    assert cfg.cache == "off"  # original untouched


# ----------------------------------------------------- service knobs


def test_service_defaults():
    cfg = ExecutionConfig()
    assert cfg.service_threads == 4
    assert cfg.service_queue_depth == 64
    assert cfg.plan_window_ms is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"service_threads": 0},
        {"service_threads": True},
        {"service_threads": 1.5},
        {"service_queue_depth": 0},
        {"service_queue_depth": False},
        {"plan_window_ms": float("nan")},
        {"plan_window_ms": float("inf")},
        {"plan_window_ms": 0},
        {"plan_window_ms": -5.0},
    ],
)
def test_service_knobs_validate(kwargs):
    with pytest.raises(ValueError):
        ExecutionConfig(**kwargs)


def test_service_knobs_from_env():
    cfg = ExecutionConfig.from_env({
        "REPRO_SERVICE_THREADS": "8",
        "REPRO_SERVICE_QUEUE_DEPTH": "128",
        "REPRO_PLAN_WINDOW_MS": "2.5",
    })
    assert cfg.service_threads == 8
    assert cfg.service_queue_depth == 128
    assert cfg.plan_window_ms == 2.5
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="plan_window_ms"):
            ExecutionConfig.from_env({"REPRO_PLAN_WINDOW_MS": raw})


# ------------------------------------------------- config= at entry points
#
# ``engine=``/``workers=``/``max_fan_in=`` kwargs were removed in favour
# of ``config=``; a stale call site gets Python's own "unexpected
# keyword argument" TypeError at every entry point that used to accept
# them.


def _entry_point_table():
    schema = Schema.of("A", "B", "C")
    rows = sorted((a % 3, b % 4, (a + b) % 5) for a in range(6) for b in range(5))
    table = Table(schema, rows, SortSpec.of("A", "B", "C"))
    table = dataclasses.replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


def test_entry_points_reject_removed_kwargs():
    table = _entry_point_table()
    spec = SortSpec.of("A", "C", "B")
    with pytest.raises(TypeError):
        modify_sort_order(table, spec, engine="fast")
    with pytest.raises(TypeError):
        Sort(TableScan(table), spec, memory_capacity=64, workers=2)
    with pytest.raises(TypeError):
        Sort(
            TableScan(table), spec, memory_capacity=64,
            run_generation="load_sort",
        )
    with pytest.raises(TypeError):
        Sort(TableScan(table), spec, engine="fast")
    with pytest.raises(TypeError):
        StreamingModify(TableScan(table), spec, workers=2)
    with pytest.raises(TypeError):
        Query(table).order_by("A", "C", "B", workers=2)
    with pytest.raises(TypeError):
        Query(table).order_by("A", "C", "B", max_fan_in=4)


def test_config_spelling_still_works_everywhere():
    table = _entry_point_table()
    spec = SortSpec.of("A", "C", "B")
    cfg = ExecutionConfig(engine="fast")
    ref = modify_sort_order(table, spec)
    out = modify_sort_order(table, spec, config=cfg)
    assert out.rows == ref.rows and out.ovcs == ref.ovcs
    out = Sort(TableScan(table), spec, config=cfg).to_table()
    assert out.rows == ref.rows and out.ovcs == ref.ovcs
    out = Query(table).order_by("A", "C", "B", config=cfg).to_table()
    assert out.rows == ref.rows and out.ovcs == ref.ovcs
