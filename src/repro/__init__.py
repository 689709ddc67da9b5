"""repro — reproduction of *Modifying an existing sort order with
offset-value codes* (Graefe, Kuhrt, Seeger; EDBT 2025).

Quick start::

    from repro import Schema, SortSpec, modify_sort_order
    from repro.workloads import random_sorted_table

    table = random_sorted_table(schema=Schema.of("A", "B", "C"),
                                sort_spec=SortSpec.of("A", "B", "C"),
                                n_rows=10_000, seed=42)
    result = modify_sort_order(table, SortSpec.of("A", "C", "B"))
    assert result.is_sorted()

Concurrent serving::

    from repro import ExecutionConfig, OrderService

    with OrderService(ExecutionConfig(cache="on")) as svc:
        resp = svc.order_by(table, "A", "C", "B")

**This namespace is the stable public API** — everything in
``__all__`` below follows the compatibility contract spelled out in
``docs/API.md`` (model types, the modification entry points, the
``Query``/``Sort`` operators, ``ExecutionConfig``, the order service
and its error types, and the order-cache controls).  Anything imported
from a submodule *not* re-exported here is internal and may change
without notice; the examples and docs import only public names, and a
test (``tests/serve/test_facade.py``) enforces that.
"""

from .model import Desc, Schema, SortColumn, SortSpec, Table
from .ovc.stats import ComparisonStats
from .core.analysis import ModificationPlan, Strategy, analyze_order_modification
from .core.modify import modify_sort_order
from .exec import ExecutionConfig
from .cache import OrderCache, configure_cache, reset_cache
from .engine.sort_op import Sort
from .engine.modify_op import StreamingModify
from .query import Query
from .serve import (
    DeadlineExceededError,
    OrderResponse,
    OrderService,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from .trace import explain_analyze

__version__ = "1.1.0"

__all__ = [
    # model
    "Desc",
    "Schema",
    "SortColumn",
    "SortSpec",
    "Table",
    "ComparisonStats",
    # order modification
    "ModificationPlan",
    "Strategy",
    "analyze_order_modification",
    "modify_sort_order",
    # execution
    "ExecutionConfig",
    # query & operators
    "Query",
    "Sort",
    "StreamingModify",
    "explain_analyze",
    # order cache
    "OrderCache",
    "configure_cache",
    "reset_cache",
    # serving
    "OrderService",
    "OrderResponse",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "__version__",
]
