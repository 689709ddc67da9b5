#!/usr/bin/env python3
"""Offset-value codes beyond integers: strings and descending keys.

The paper stresses that each sort "column" may be a list of columns, a
text string, or a normalized key, and that order analysis must respect
ascending/descending directions.  This example re-orders a string-keyed
table (think: a log indexed on (service, level, timestamp DESC)) into
(service, timestamp DESC, level) — Table 1 case 5 on strings.

Run:  python examples/strings_and_descending.py
"""

from __future__ import annotations

import random

from repro import analyze_order_modification
from repro import modify_sort_order
from repro import Schema, SortSpec, Table
from repro import ComparisonStats

SERVICES = ["auth", "billing", "catalog", "checkout", "search", "shipping"]
LEVELS = ["DEBUG", "ERROR", "INFO", "WARN"]


def main() -> None:
    rng = random.Random(99)
    schema = Schema.of("service", "level", "ts", "message_id")
    stored_order = SortSpec.of("service", "level", "ts DESC")

    rows = [
        (
            rng.choice(SERVICES),
            rng.choice(LEVELS),
            f"2026-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            i,
        )
        for i in range(30_000)
    ]
    rows.sort(key=stored_order.key_for(schema))
    table = Table(schema, rows, stored_order).with_ovcs()

    desired = SortSpec.of("service", "ts DESC", "level")
    plan = analyze_order_modification(stored_order, desired)
    print(f"stored:  {stored_order}")
    print(f"desired: {desired}")
    print(f"plan:    {plan.describe()}")
    print()

    stats = ComparisonStats()
    result = modify_sort_order(table, desired, stats=stats)
    assert result.is_sorted()

    naive = ComparisonStats()
    modify_sort_order(table, desired, method="full_sort", stats=naive)

    print("first rows of the new order:")
    print(result.pretty(6))
    print()
    print(
        f"string comparisons (modify): {stats.column_comparisons:,}   "
        f"(full sort): {naive.column_comparisons:,}"
    )
    print(
        "codes cached by the stored order decided "
        f"{stats.ovc_comparisons:,} of {stats.row_comparisons:,} row "
        "comparisons without touching a single character."
    )


if __name__ == "__main__":
    main()
