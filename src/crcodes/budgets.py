"""Enumeration budgets shared by the analysis routines.

Every exhaustive pass states up front how many objects it would walk and
calls Budgets.require, which raises BudgetExceeded when that exceeds the
named cap, instead of silently grinding.  The caps are per-call
arguments so the CLI can raise or lower them.
"""

from __future__ import annotations

from typing import NamedTuple


class Budgets(NamedTuple):
    max_syndromes: int = 1 << 24
    max_codewords: int = 1 << 26
    max_vectors: int = 1 << 20

    def require(self, name: str, needed: int):
        """Raise BudgetExceeded when needed is over the cap called name."""
        limit = getattr(self, name)
        if needed > limit:
            raise BudgetExceeded(name, needed, limit)


DEFAULT_BUDGETS = Budgets()


class BudgetExceeded(Exception):
    def __init__(self, budget: str, needed: int, limit: int):
        super().__init__(
            f"{budget}: needs {needed} but the budget allows {limit}"
        )
        self.budget = budget
        self.needed = needed
        self.limit = limit
