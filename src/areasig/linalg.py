"""Exact linear algebra over the rationals.

One sparse row echelon over Fraction answers every rank and span-membership
question, so there is never a tolerance question.  Vectors are dicts
key -> coefficient with comparable keys (words or indices).  `echelon`
keeps one row per pivot key: the row's smallest key, at which the row is
normalised to 1.  A vector lies in the span of the rows exactly when it
reduces to zero against them.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(rows, vector):
    """The nonzero remainder of `vector` after eliminating every pivot.

    Pivots are taken in ascending order; each row has no key below its
    pivot, so a later step never brings back a key already eliminated.
    """
    left = {key: Fraction(value) for key, value in vector.items() if value}
    for pivot in sorted(rows):
        factor = left.get(pivot)
        if not factor:
            continue
        for key, value in rows[pivot].items():
            new = left.get(key, 0) - factor * value
            if new:
                left[key] = new
            else:
                left.pop(key, None)
    return left


def echelon(vectors):
    """Pivot key -> normalised row spanning the same space as `vectors`.

    Each vector is reduced against the rows so far and stored only if
    something is left, so the number of rows is the rank.
    """
    rows = {}
    for vector in vectors:
        left = _reduce(rows, vector)
        if left:
            pivot = min(left)
            head = left[pivot]
            rows[pivot] = {key: value / head for key, value in left.items()}
    return rows


def rank_of_vectors(vectors):
    return len(echelon(vectors))


def in_span(rows, target):
    """Whether `target` is a combination of the rows of an echelon."""
    return not _reduce(rows, target)
