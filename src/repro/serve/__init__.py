"""Concurrent serving layer for order-by workloads.

This package is the **stable serving API** (re-exported from
:mod:`repro`): an in-process :class:`OrderService` that admits
concurrent ``order_by`` requests through a bounded queue, coalesces
duplicates onto shared executions, enforces per-request deadlines, and
dequeues fairly across tenants — while every response's rows and
offset-value codes stay bit-identical to what a serial uncached
execution would return.

Typical use::

    from repro import ExecutionConfig, OrderService

    cfg = ExecutionConfig(cache="on", service_threads=4)
    with OrderService(cfg) as svc:
        resp = svc.order_by(table, "A", "C", "B")
        resp.table      # sorted rows + offset-value codes
        resp.label      # the strategy that produced them
        resp.coalesced  # True when served by another request's run

Module map: :mod:`.service` (OrderService/Ticket), :mod:`.queue`
(bounded multi-tenant admission), :mod:`.registry` (in-flight
coalescing), :mod:`.request` (response/in-flight shapes),
:mod:`.normalize` (unique-prefix order normalization),
:mod:`.errors` (failure contract), :mod:`.load` (closed-loop load
driver behind ``serve --load``).

With ``ExecutionConfig.plan_window_ms`` set, scheduler threads drain
the queue in micro-batches (a request plus what is already queued
behind it; nothing is held for later arrivals) and run each drained
request exactly as a solo one, answering it as soon as its order is
derived; a same-source group of two or more counts as one
``planned_batches``.
"""

from .errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from .load import default_orders, run_load
from .normalize import SpecNormalizer
from .queue import AdmissionQueue
from .registry import InflightRegistry
from .request import OrderResponse
from .service import OrderService, Ticket, current_service

__all__ = [
    "OrderService",
    "OrderResponse",
    "Ticket",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "AdmissionQueue",
    "InflightRegistry",
    "SpecNormalizer",
    "current_service",
    "run_load",
    "default_orders",
]
