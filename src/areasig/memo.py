"""The package's one memoisation facility.

Every recursive construction here (shuffles, r and rho of words, tree
evaluations and weights, Hall duals, the discrete areas of a path's
subtrees) and the table of word texts that every writer prints
(tensor._word_text) cache their results through one of the two
decorators below, keyed by the tuple of positional arguments:

- memo: one table per function, kept for the life of the process;
- memo_per_owner: one table per first argument, held in a
  weakref.WeakKeyDictionary, so a table lives exactly as long as the object
  that owns it (a HallBasis or a TimeSeries) and never keeps that object
  alive.

Both wrappers are plain Python functions, so inspect.isfunction sees them
and a caller can rebind them by name.  A decorated function must never
return None, which marks a miss, and must return values that no caller
mutates, because every caller shares them.
"""

from __future__ import annotations

import functools
import weakref


def memo(fn):
    """Cache fn(*args) for the life of the process."""
    table: dict = {}

    @functools.wraps(fn)
    def wrapper(*args):
        hit = table.get(args)
        if hit is None:
            hit = table[args] = fn(*args)
        return hit

    return wrapper


def memo_per_owner(fn):
    """Cache fn(owner, *args) in a table that lives as long as owner."""
    tables = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def wrapper(owner, *args):
        table = tables.get(owner)
        if table is None:
            table = tables[owner] = {}
        hit = table.get(args)
        if hit is None:
            hit = table[args] = fn(owner, *args)
        return hit

    return wrapper
