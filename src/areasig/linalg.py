"""Exact linear algebra over the rationals.

Rank computations use fraction-free (Bareiss) elimination on integer
matrices, so there is never a tolerance question.  Solves use ordinary
Gaussian elimination with Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _common_denominator(row):
    den = 1
    for v in row:
        d = v.denominator
        den = den // gcd(den, d) * d
    return den


def vectors_to_int_matrix(vectors, columns=None):
    """Turn sparse Fraction vectors (dicts) into a dense integer matrix.

    Each row is scaled by its common denominator, which leaves the row
    space (hence the rank) unchanged.
    """
    if columns is None:
        cols = set()
        for vec in vectors:
            cols.update(vec)
        columns = sorted(cols)
    index = {c: i for i, c in enumerate(columns)}
    matrix = []
    for vec in vectors:
        den = _common_denominator(list(vec.values())) if vec else 1
        row = [0] * len(columns)
        for key, val in vec.items():
            scaled = val * den
            row[index[key]] = scaled.numerator
        matrix.append(row)
    return matrix, columns


def rank_int_bareiss(matrix):
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    n_rows = len(m)
    if n_rows == 0:
        return 0
    n_cols = len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            for c in range(col, n_cols):
                m[r][c] = (m[r][c] * pivot - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_of_vectors(vectors, columns=None):
    matrix, _ = vectors_to_int_matrix(vectors, columns)
    return rank_int_bareiss(matrix)


def express_in_span(vectors, target):
    """Coefficients writing `target` as a combination of `vectors`, or None.

    Vectors and target are sparse dicts key -> Fraction.  When the family is
    linearly dependent an arbitrary valid solution is returned.
    """
    cols = set(target)
    for vec in vectors:
        cols.update(vec)
    columns = sorted(cols)
    n_eq = len(columns)
    n_var = len(vectors)
    # One equation per key: sum_j c_j vectors[j][key] = target[key].
    rows = []
    for key in columns:
        row = [Fraction(vec.get(key, 0)) for vec in vectors]
        row.append(Fraction(target.get(key, 0)))
        rows.append(row)
    pivot_cols = []
    r = 0
    for c in range(n_var):
        pivot_row = None
        for rr in range(r, n_eq):
            if rows[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for rr in range(n_eq):
            if rr != r and rows[rr][c] != 0:
                factor = rows[rr][c]
                rows[rr] = [a - factor * b for a, b in zip(rows[rr], rows[r])]
        pivot_cols.append(c)
        r += 1
    # Inconsistent if a zero row has nonzero right-hand side.
    for rr in range(r, n_eq):
        if rows[rr][n_var] != 0:
            return None
    solution = [Fraction(0)] * n_var
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = rows[row_idx][n_var]
    return solution
