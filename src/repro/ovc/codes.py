"""Offset-value code encodings and code arithmetic.

Two encodings appear in the paper's Figure 1:

* **descending** codes: ``offset * domain + (domain - value)`` — the
  *higher* code wins a comparison; an exact duplicate of the base row
  encodes as ``arity * domain + domain`` (the example's ``500``).
* **ascending** codes: ``(arity - offset) * domain + value`` — the
  *lower* code wins; an exact duplicate encodes as ``0``.

This library's canonical runtime form is the *ascending tuple code*
``(arity - offset, value)``: plain tuple comparison orders it exactly
like the ascending integer code but needs no domain bound and works for
strings as well as integers.  Exact duplicates use ``(0, 0)``; the fence
code for exhausted merge inputs compares greater than every real code.

The **max-theorem** (Conner's corollary; see also Graefe & Do, EDBT
2023): for rows ``x <= y <= z`` with ascending codes, ::

    code(z | x) = max(code(z | y), code(y | x))

It lets the merge logic re-base saved codes without touching column
values; :func:`max_merge` implements it.
"""

from __future__ import annotations

import math
from typing import Any

#: Ascending tuple code of an exact duplicate of the base row.
DUPLICATE: tuple = (0, 0)

#: Code that loses to every real code (exhausted merge input).  The
#: first component dominates comparison, so the payload never matters.
FENCE: tuple = (math.inf, 0)


def ascending_code(offset: int, value: Any, arity: int) -> tuple:
    """Paper-form ``(offset, value)`` -> ascending tuple code."""
    if offset >= arity:
        return DUPLICATE
    return (arity - offset, value)


def ovc_to_code(ovc: tuple, arity: int) -> tuple:
    """Alias of :func:`ascending_code` taking the pair directly."""
    offset, value = ovc
    if offset >= arity:
        return DUPLICATE
    return (arity - offset, value)


def code_to_ovc(code: tuple, arity: int) -> tuple:
    """Ascending tuple code -> paper-form ``(offset, value)``."""
    remaining, value = code
    if remaining == 0:
        return (arity, 0)
    if remaining is math.inf:
        raise ValueError("fence codes have no offset-value form")
    return (arity - remaining, value)


def max_merge(code_yx: tuple, code_zy: tuple) -> tuple:
    """Chain two ascending codes: ``code(z|x)`` from ``code(y|x)``,
    ``code(z|y)`` for ``x <= y <= z`` (the max-theorem)."""
    return code_yx if code_yx > code_zy else code_zy


def ascending_integer_code(
    offset: int, value: int, arity: int, domain: int
) -> int:
    """The paper's ascending integer encoding (Figure 1, right block).

    ``domain`` is the per-column value domain size; values must satisfy
    ``0 <= value < domain``.  Lower codes win comparisons; a duplicate
    of the base row encodes as ``0``.
    """
    if offset >= arity:
        return 0
    if not 0 <= value < domain:
        raise ValueError(f"value {value} outside domain [0, {domain})")
    return (arity - offset) * domain + value


def descending_integer_code(
    offset: int, value: int, arity: int, domain: int
) -> int:
    """The paper's descending integer encoding (Figure 1, fourth block).

    Higher codes win comparisons; a duplicate of the base row encodes as
    ``arity * domain + domain`` (``500`` in the paper's example with
    arity 4 and domain 100).
    """
    if offset >= arity:
        return arity * domain + domain
    if not 0 <= value < domain:
        raise ValueError(f"value {value} outside domain [0, {domain})")
    return offset * domain + (domain - value)

