"""Unified execution configuration: one object instead of kwarg sprawl.

Threading loose kwargs (engine, fan-in cap, cache and service settings)
through ``modify_sort_order``, ``modify_sort_order_external``, ``Sort``,
``StreamingModify``, ``Query.order_by``, and the CLI does not scale;
:class:`ExecutionConfig` carries all of them as one frozen value.

Construction patterns::

    cfg = ExecutionConfig.default()                  # env-aware defaults
    cfg = ExecutionConfig(engine="fast", cache="on")
    cfg = ExecutionConfig.from_env()                 # REPRO_* variables
    low = cfg.with_(cache_budget="1MiB")             # derived variant

A config comes from exactly two places: code (the constructor and
:meth:`~ExecutionConfig.with_`) and the ``REPRO_*`` variables
(:meth:`~ExecutionConfig.from_env`).  Entry points called without a
config use :meth:`ExecutionConfig.default`, so ``REPRO_*`` variables
govern bare calls — the CLI's included.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

_ENGINES = ("auto", "fast", "reference")

_CACHE_MODES = ("off", "on")

#: Multipliers for the memory-size suffixes :func:`parse_memory` accepts.
_UNITS = {
    "b": 1,
    "k": 1024, "kb": 1000, "kib": 1024,
    "m": 1024 ** 2, "mb": 1000 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1000 ** 3, "gib": 1024 ** 3,
}

#: ``(variable, field, conversion)`` read by
#: :meth:`ExecutionConfig.from_env`; ``str`` leaves the value to the
#: field's own validation.
_ENV_FIELDS = (
    ("REPRO_ENGINE", "engine", str),
    ("REPRO_MAX_FAN_IN", "max_fan_in", int),
    ("REPRO_SPILL_DIR", "spill_dir", str),
    ("REPRO_CACHE", "cache", str),
    ("REPRO_CACHE_BUDGET", "cache_budget", str),
    ("REPRO_SERVICE_THREADS", "service_threads", int),
    ("REPRO_SERVICE_QUEUE_DEPTH", "service_queue_depth", int),
    ("REPRO_PLAN_WINDOW_MS", "plan_window_ms", float),
)


def parse_memory(value: int | str | None) -> int | None:
    """Parse a memory size: an int (bytes) or a string like ``"1MiB"``.

    Accepted suffixes: ``B``, ``K``/``KB``/``KiB``, ``M``/``MB``/``MiB``,
    ``G``/``GB``/``GiB`` (case-insensitive; the binary forms and the
    bare letters are powers of 1024, the decimal ``*B`` forms powers of
    1000).  ``None`` and ``""`` mean "no budget".
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"memory size must be an int or string, got {value!r}")
    if isinstance(value, int):
        if value <= 0:
            raise ValueError(f"memory size must be positive, got {value}")
        return value
    text = value.strip().lower().replace("_", "").replace(",", "")
    if not text:
        return None
    digits = text
    unit = "b"
    for i, ch in enumerate(text):
        if not (ch.isdigit() or ch == "."):
            digits, unit = text[:i], text[i:].strip()
            break
    if unit not in _UNITS:
        raise ValueError(
            f"unknown memory unit {unit!r} in {value!r}; "
            f"use one of {sorted(set(_UNITS))}"
        )
    try:
        number = float(digits)
    except ValueError:
        raise ValueError(f"cannot parse memory size {value!r}") from None
    n = int(number * _UNITS[unit])
    if n <= 0:
        raise ValueError(f"memory size must be positive, got {value!r}")
    return n


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob of the engine, as one frozen value.

    Fields
    ------
    engine:
        ``"auto"`` | ``"reference"`` | ``"fast"`` — executor selection;
        ``auto`` means the packed-code kernels unless something
        reference-only was requested (one rule for every entry point:
        :func:`repro.core.modify.resolve_engine`).
    max_fan_in:
        Cap on runs merged per step in the reference merge executors
        (graceful degradation to multi-step merges beyond it); an
        ``int`` of at least 2.
    spill_dir:
        Directory for the order cache's spill files; ``None`` uses the
        system temp dir.
    cache:
        Order-cache mode (:mod:`repro.cache`): ``"off"`` (default)
        never consults it, ``"on"`` uses the process-wide cache
        (created on first use with this config's ``cache_budget`` /
        ``spill_dir`` unless one exists already).
    cache_budget:
        Resident-byte budget for the order cache (int bytes or a
        ``parse_memory`` string); cold entries spill to disk beyond
        it.  ``None`` means unlimited.
    service_threads:
        Scheduler threads of an :class:`~repro.serve.OrderService`
        built from this config (concurrent executions).
    service_queue_depth:
        Bound on the service's admission queue (pending executions;
        coalesced waiters and exact cache hits, which are answered at
        submit, take no slot).  A full queue rejects new work with
        :class:`~repro.serve.ServiceOverloadError` instead of buffering
        unboundedly.
    plan_window_ms:
        Micro-batch window of the serving layer: after picking up a
        request, a scheduler thread keeps draining the admission queue
        for at most this many milliseconds — less when arrivals stop:
        one wait of an eighth of the window without an arrival closes
        it — and then runs every drained request as a solo one.  Must
        be finite and positive; ``None`` (default) disables batching —
        every request executes independently on arrival.
    """

    engine: str = "auto"
    max_fan_in: int | None = None
    spill_dir: str | None = None
    cache: str = "off"
    cache_budget: int | None = None
    service_threads: int = 4
    service_queue_depth: int = 64
    plan_window_ms: float | None = None

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {sorted(_ENGINES)}"
            )
        if self.max_fan_in is not None and (
            isinstance(self.max_fan_in, bool)
            or not isinstance(self.max_fan_in, int)
            or self.max_fan_in < 2
        ):
            raise ValueError(
                f"max_fan_in must be an int of at least 2, "
                f"got {self.max_fan_in!r}"
            )
        if self.cache not in _CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.cache!r}; "
                f"choose from {sorted(_CACHE_MODES)}"
            )
        object.__setattr__(
            self, "cache_budget", parse_memory(self.cache_budget)
        )
        if (
            isinstance(self.service_threads, bool)
            or not isinstance(self.service_threads, int)
            or self.service_threads < 1
        ):
            raise ValueError(
                f"service_threads must be a positive int, "
                f"got {self.service_threads!r}"
            )
        if (
            isinstance(self.service_queue_depth, bool)
            or not isinstance(self.service_queue_depth, int)
            or self.service_queue_depth < 1
        ):
            raise ValueError(
                f"service_queue_depth must be a positive int, "
                f"got {self.service_queue_depth!r}"
            )
        if self.plan_window_ms is not None and not (
            math.isfinite(self.plan_window_ms) and self.plan_window_ms > 0
        ):
            raise ValueError(
                f"plan_window_ms must be finite and positive, "
                f"got {self.plan_window_ms}"
            )

    # ------------------------------------------------------ constructors

    @classmethod
    def default(cls) -> "ExecutionConfig":
        """The environment-aware default used when no config is passed.

        Equivalent to :meth:`from_env`: a plain ``ExecutionConfig()``
        unless ``REPRO_*`` variables override fields, so a test matrix
        (e.g. ``REPRO_ENGINE=reference pytest``) reaches every entry
        point without touching call sites.
        """
        return cls.from_env()

    @classmethod
    def from_env(cls, env: dict | None = None) -> "ExecutionConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Recognized: ``REPRO_ENGINE``, ``REPRO_MAX_FAN_IN``,
        ``REPRO_SPILL_DIR``, ``REPRO_CACHE`` (``off``/``on``;
        ``1``/``0`` are accepted as ``on``/``off``),
        ``REPRO_CACHE_BUDGET`` (``parse_memory`` syntax),
        ``REPRO_SERVICE_THREADS``, ``REPRO_SERVICE_QUEUE_DEPTH``,
        ``REPRO_PLAN_WINDOW_MS``.  Any other ``REPRO_*`` variable is
        ignored here, and a malformed number is a ``ValueError`` that
        names the variable.  Unset variables keep the field defaults.
        """
        e = os.environ if env is None else env
        kwargs: dict = {}
        for var, field, convert in _ENV_FIELDS:
            raw = e.get(var)
            if not raw:
                continue
            try:
                kwargs[field] = convert(raw)
            except ValueError:
                raise ValueError(
                    f"environment variable {var}={raw!r} is not a valid "
                    f"{convert.__name__} for ExecutionConfig.{field}"
                ) from None
        if "cache" in kwargs:
            raw = kwargs["cache"].strip().lower()
            kwargs["cache"] = {"1": "on", "0": "off"}.get(raw, raw)
        return cls(**kwargs)

    def with_(self, **overrides) -> "ExecutionConfig":
        """A copy with the given fields replaced (validated anew)."""
        return dataclasses.replace(self, **overrides)
