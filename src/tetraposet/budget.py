"""Resource guard for explicit enumeration.

Counting is exact and cheap (dynamic programming); enumeration is not. Every
enumerating operation counts first and refuses to stream more objects than the
budget allows. The default budget is 10**8 objects and can be overridden with
the TETRAPOSET_BUDGET environment variable.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
ENV_VAR = "TETRAPOSET_BUDGET"


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured object budget."""


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
