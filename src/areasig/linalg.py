"""Exact linear algebra over the rationals, computed in integers.

One sparse fraction-free row echelon answers every rank and span-membership
question, so there is never a tolerance question.  Vectors are dicts
key -> int or rational coefficient with comparable keys (words, indices, or
the word codes of TensorElem.int_row()).
Each enters once as a primitive int row: scaled by the lcm of its
denominators, then divided by the gcd of its entries.  `echelon` keeps one
row per pivot key, the row's smallest key, where its entry is positive.  A
vector lies in the span of the rows exactly when it reduces to zero.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, lcm


def _primitive(row):
    """The nonzero entries of an int row, divided by their gcd."""
    common = gcd(*row.values())
    return {key: value // common for key, value in row.items() if value}


def _reduce(rows, vector):
    """The remainder of `vector` after eliminating its pivots in ascending
    order, fraction-free (Bareiss 1968): at a row's pivot entry h, a left
    entry f becomes 0 by left = (h/g) left - (f/g) row, g = gcd(h, f).  A
    sorted worklist holds the remainder's pivot keys, the only ones visited.
    No row has a key below its pivot, so no eliminated key comes back."""
    scale = lcm(*(value.denominator for value in vector.values()))
    left = _primitive({k: v.numerator * (scale // v.denominator) for k, v in vector.items()})
    todo, i = sorted(key for key in left if key in rows), 0
    while i < len(todo):
        pivot, i = todo[i], i + 1
        factor = left.get(pivot)
        if factor:
            row = rows[pivot]
            common = gcd(row[pivot], factor)
            head, factor = row[pivot] // common, factor // common
            for key in (row.keys() - left.keys()) & rows.keys():
                insort(todo, key, lo=i)  # every new key lies above the pivot
            left = {key: head * value for key, value in left.items()}
            for key, value in row.items():
                left[key] = left.get(key, 0) - factor * value
            left = _primitive(left)
    return left


def echelon(vectors):
    """Pivot key -> primitive int row spanning the same space as `vectors`.

    Each vector is reduced against the rows so far and stored only if
    something is left, so the number of rows is the rank.
    """
    rows = {}
    for vector in vectors:
        left = _reduce(rows, vector)
        if left:
            pivot = min(left)
            rows[pivot] = left if left[pivot] > 0 else {k: -v for k, v in left.items()}
    return rows


def rank_of_vectors(vectors):
    return len(echelon(vectors))


def in_span(rows, target):
    """Whether `target` is a combination of the rows of an echelon."""
    return not _reduce(rows, target)
