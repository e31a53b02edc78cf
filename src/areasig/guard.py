"""Term-count ceiling guarding against d^n blow-ups.

Every container constructor funnels through check_term_budget, so a runaway
computation aborts with TermBudgetExceeded instead of exhausting memory.
"""

import os

from .errors import TermBudgetExceeded, _parse_int

DEFAULT_TERM_BUDGET = 2_000_000

_budget = DEFAULT_TERM_BUDGET


def set_term_budget(n):
    """Set the global ceiling on stored terms per element (n >= 1)."""
    global _budget
    if n < 1:
        raise ValueError("term budget must be positive, got %r" % n)
    _budget = int(n)


def get_term_budget():
    return _budget


def budget_from_env():
    """Apply AREASIG_TERM_BUDGET from the environment, if set (ASCII digits)."""
    raw = os.environ.get("AREASIG_TERM_BUDGET")
    if raw:
        n = _parse_int(raw)
        if n is None:
            raise ValueError("AREASIG_TERM_BUDGET must be an integer, got %r" % raw)
        set_term_budget(n)
    return _budget


def check_term_budget(n_terms):
    if n_terms > _budget:
        raise TermBudgetExceeded(n_terms, _budget)
