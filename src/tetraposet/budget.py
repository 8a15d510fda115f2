"""Resource guard for explicit enumeration and expansion.

Counting is exact and cheap (dynamic programming); enumeration is not. The
budget bounds four things: the C(n+1, 3) vertices of build(n), counted before
any is made; the objects an enumeration would stream, counted before
streaming starts; the live terms of a row transfer, checked after every state
it consumes; and the terms of a polynomial product, checked after every
factor. The default budget is 10**8 and can be overridden with the
TETRAPOSET_BUDGET environment variable.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
ENV_VAR = "TETRAPOSET_BUDGET"


class BudgetError(RuntimeError):
    """A poset, enumeration, transfer or product would exceed the configured budget."""


def enumeration_budget() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc


def guard(count: int, what: str) -> None:
    budget = enumeration_budget()
    if count > budget:
        raise BudgetError(
            f"refusing to enumerate {count} {what} (budget {budget}; "
            f"set {ENV_VAR} to raise it)"
        )
