"""Synthetic data generators mirroring the paper's experiments.

The paper's engine fixes rows at 32 8-byte integer columns; we size
schemas to the columns an experiment actually uses.  Inputs arrive
*with* offset-value codes, as they would from a b-tree or column-store
scan — deriving them here is generator work, not measured work.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..model import Schema, SortSpec, Table


def fig10_table(
    n_rows: int,
    list_len: int,
    decide: str = "first",
    n_runs: int = 512,
    domain: int | None = None,
    seed: int = 0,
) -> Table:
    """Figure 10 input: sorted on ``A,B``; desired order is ``B,A``.

    ``A`` and ``B`` are lists of ``list_len`` columns each.  All
    columns hold zeroes except the deciding one (first or last in each
    list): ``A``'s deciding column enumerates the ``n_runs``
    pre-existing runs, ``B``'s holds random values sorted within each
    run (not necessarily unique).

    ``domain`` defaults to the run size, making the deciding values
    *dense*: every run holds roughly the same value set, so the merge
    constantly meets equal values from different runs — the regime in
    which the paper's comparison counts (ties resolved beyond the
    deciding column) arise.
    """
    if decide not in ("first", "last"):
        raise ValueError("decide must be 'first' or 'last'")
    if n_runs < 1 or n_rows < n_runs:
        raise ValueError("need n_rows >= n_runs >= 1")
    if domain is None:
        domain = max(2, n_rows // n_runs)
    rng = random.Random(seed)
    pos = 0 if decide == "first" else list_len - 1

    schema = Schema(
        tuple(f"A{i}" for i in range(list_len))
        + tuple(f"B{i}" for i in range(list_len))
    )
    spec = SortSpec(schema.columns)

    rows: list[tuple] = []
    base, extra = divmod(n_rows, n_runs)
    a_cols = [0] * list_len
    for run in range(n_runs):
        run_size = base + (1 if run < extra else 0)
        a_cols[pos] = run
        a_tuple = tuple(a_cols)
        b_values = sorted(rng.randrange(domain) for _ in range(run_size))
        b_cols = [0] * list_len
        for v in b_values:
            b_cols[pos] = v
            rows.append(a_tuple + tuple(b_cols))
    return Table(schema, rows, spec).with_ovcs()


def fig10_output_spec(list_len: int) -> SortSpec:
    """The desired order of Figure 10: ``B`` before ``A``."""
    return SortSpec(
        tuple(f"B{i}" for i in range(list_len))
        + tuple(f"A{i}" for i in range(list_len))
    )


def fig11_table(
    n_rows: int,
    n_segments: int,
    list_len: int = 8,
    domain: int | None = None,
    seed: int = 0,
) -> Table:
    """Figure 11 input: sorted on ``A,B,C``; desired order ``A,C,B``.

    ``A``, ``B``, ``C`` are lists of ``list_len`` columns; the last
    column of each list decides comparisons.  Distinct ``A`` values
    define ``n_segments`` segments; within each segment the number of
    runs (distinct ``B``) is the square root of the segment size, so
    that quartering the segment size halves both the run count and the
    run size — the paper's scaling rule.
    """
    if n_segments < 1 or n_rows < n_segments:
        raise ValueError("need n_rows >= n_segments >= 1")
    if domain is None:
        # Dense run contents, as in Figure 10 (see fig10_table).
        seg_size = max(1, n_rows // n_segments)
        domain = max(2, round(seg_size ** 0.5))
    rng = random.Random(seed)
    pos = list_len - 1

    schema = Schema(
        tuple(f"A{i}" for i in range(list_len))
        + tuple(f"B{i}" for i in range(list_len))
        + tuple(f"C{i}" for i in range(list_len))
    )
    spec = SortSpec(schema.columns)

    rows: list[tuple] = []
    seg_base, seg_extra = divmod(n_rows, n_segments)
    zero = [0] * list_len
    for seg in range(n_segments):
        seg_size = seg_base + (1 if seg < seg_extra else 0)
        a_cols = list(zero)
        a_cols[pos] = seg
        a_tuple = tuple(a_cols)
        n_runs = max(1, round(seg_size ** 0.5))
        run_base, run_extra = divmod(seg_size, n_runs)
        for run in range(n_runs):
            run_size = run_base + (1 if run < run_extra else 0)
            if run_size == 0:
                continue
            b_cols = list(zero)
            b_cols[pos] = run
            b_tuple = tuple(b_cols)
            c_values = sorted(rng.randrange(domain) for _ in range(run_size))
            c_cols = list(zero)
            for v in c_values:
                c_cols[pos] = v
                rows.append(a_tuple + b_tuple + tuple(c_cols))
    return Table(schema, rows, spec).with_ovcs()


def fig11_output_spec(list_len: int = 8) -> SortSpec:
    """The desired order of Figure 11: ``A,C,B``."""
    return SortSpec(
        tuple(f"A{i}" for i in range(list_len))
        + tuple(f"C{i}" for i in range(list_len))
        + tuple(f"B{i}" for i in range(list_len))
    )


def random_table(
    schema: Schema,
    n_rows: int,
    domains: Sequence[int] | int = 100,
    seed: int = 0,
) -> Table:
    """Uniform random rows, unsorted, without codes."""
    rng = random.Random(seed)
    if isinstance(domains, int):
        domains = [domains] * len(schema)
    if len(domains) != len(schema):
        raise ValueError("one domain per column required")
    rows = [
        tuple(rng.randrange(d) for d in domains) for _ in range(n_rows)
    ]
    return Table(schema, rows, None, None)


def random_sorted_table(
    schema: Schema,
    sort_spec: SortSpec,
    n_rows: int,
    domains: Sequence[int] | int = 100,
    seed: int = 0,
) -> Table:
    """Uniform random rows sorted on ``sort_spec``, with codes attached.

    Small domains produce many duplicates, segments, and runs — the
    interesting regime for order modification.
    """
    rows = sorted(
        random_table(schema, n_rows, domains, seed).rows,
        key=sort_spec.key_for(schema),
    )
    return Table(schema, rows, sort_spec).with_ovcs()
