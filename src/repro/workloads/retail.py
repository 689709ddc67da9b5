"""A TPC-H-flavored retail workload: customers, orders, lineitems.

Scaled-down analytics schema for end-to-end demonstrations of the
engine and optimizer.  The stored physical design follows the paper's
philosophy: ONE sorted copy per table, with related orders produced by
modification instead of extra indexes:

* ``customers``  sorted on (region, customer)
* ``orders``     sorted on (customer, order_id)   — FK-clustered
* ``lineitems``  sorted on (order_id, line_nr)

Queries needing orders by ``(order_id)`` (to join lineitems) or
lineitems by ``(partkey)`` re-sort through Table 1's cases rather than
maintaining second copies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..model import Schema, SortSpec, Table

REGIONS = 5


@dataclass
class RetailWorkload:
    customers: Table
    orders: Table
    lineitems: Table

    @property
    def tables(self) -> dict[str, Table]:
        return {
            "customers": self.customers,
            "orders": self.orders,
            "lineitems": self.lineitems,
        }


def make_retail_workload(
    n_customers: int = 300,
    n_orders: int = 2_000,
    max_lines_per_order: int = 4,
    n_parts: int = 200,
    seed: int = 0,
) -> RetailWorkload:
    """Build a seeded retail workload with FK integrity."""
    rng = random.Random(seed)

    customer_schema = Schema.of("region", "customer", "segment")
    customers = sorted(
        (rng.randrange(REGIONS), c, rng.randrange(5))
        for c in range(n_customers)
    )
    customers_table = Table(
        customer_schema, customers, SortSpec.of("region", "customer")
    ).with_ovcs()

    order_schema = Schema.of("customer", "order_id", "order_date", "priority")
    orders = sorted(
        (
            rng.randrange(n_customers),
            o,
            rng.randrange(2_400),  # day number
            rng.randrange(3),
        )
        for o in range(n_orders)
    )
    orders_table = Table(
        order_schema, orders, SortSpec.of("customer", "order_id")
    ).with_ovcs()

    line_schema = Schema.of("order_id", "line_nr", "partkey", "qty", "price")
    lineitems: list[tuple] = []
    for _cust, order_id, _date, _prio in orders:
        for line_nr in range(1 + rng.randrange(max_lines_per_order)):
            lineitems.append(
                (
                    order_id,
                    line_nr,
                    rng.randrange(n_parts),
                    1 + rng.randrange(20),
                    10 + rng.randrange(990),
                )
            )
    lineitems.sort()
    lineitems_table = Table(
        line_schema, lineitems, SortSpec.of("order_id", "line_nr")
    ).with_ovcs()
    return RetailWorkload(customers_table, orders_table, lineitems_table)
