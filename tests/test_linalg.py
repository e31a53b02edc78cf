"""The sparse integer echelon of linalg against the Gauss-Jordan oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from areasig import linalg
from areasig.span import arealb_word, leftbracket_span_check
from areasig.tensor import words_of_length

from conftest import rank_oracle, solve_oracle

F = Fraction


def random_family(rng):
    """Sparse vectors over word keys, with zero vectors, duplicates, scalar
    multiples and sums of earlier members mixed in."""
    keys = [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        for _ in range(8)
    ]
    family = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random() if family else 0
        if kind < 0.5:
            vec = {
                rng.choice(keys): F(rng.randint(-3, 3), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            }
        elif kind < 0.6:
            vec = {}
        elif kind < 0.7:
            vec = dict(rng.choice(family))
        elif kind < 0.85:
            scale = F(rng.choice([-2, -1, 3]), rng.randint(1, 3))
            vec = {k: v * scale for k, v in rng.choice(family).items()}
        else:
            a, b = rng.choice(family), rng.choice(family)
            vec = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        family.append(vec)
    return keys, family


def test_echelon_matches_gauss_jordan_oracles():
    rng = random.Random(11)
    inside = outside = 0
    for _ in range(300):
        keys, family = random_family(rng)
        rows = linalg.echelon(family)
        assert len(rows) == linalg.rank_of_vectors(family) == rank_oracle(family)
        for pivot, row in rows.items():
            assert all(type(value) is int for value in row.values())
            assert gcd(*row.values()) == 1
            assert pivot == min(row) and row[pivot] > 0
        combination = {}
        for vec in family:
            c = rng.randint(-2, 2)
            for k, v in vec.items():
                combination[k] = combination.get(k, 0) + c * v
        assert linalg.in_span(rows, combination)
        assert solve_oracle(family, combination) is not None
        target = {rng.choice(keys): F(rng.randint(1, 5)) for _ in range(2)}
        member = solve_oracle(family, target) is not None
        assert linalg.in_span(rows, target) == member
        inside += member
        outside += not member
    assert inside and outside


def test_echelon_keeps_integer_input_exact():
    rows = linalg.echelon([{2: 2, 5: 3}, {2: 4, 5: 6}, {}])
    assert rows == {2: {2: 2, 5: 3}}
    assert all(type(v) is int for v in rows[2].values())
    assert linalg.in_span(rows, {2: 1, 5: F(3, 2)})
    assert linalg.in_span(rows, {2: F(-2, 7), 5: F(-3, 7)})
    assert not linalg.in_span(rows, {2: F(1, 2), 5: 1})
    assert not linalg.in_span(rows, {5: 1})
    assert linalg.in_span({}, {}) and linalg.rank_of_vectors([]) == 0
    # rational input becomes the same primitive row, its pivot entry positive
    assert linalg.echelon([{2: F(-2, 3), 5: -1}]) == rows


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4)])
def test_rank_matches_the_oracle_on_left_bracket_rows(d, n):
    vectors = [
        dict(arealb_word(w, d).terms()) for w in words_of_length(d, n) if w[0] < w[1]
    ]
    rank = linalg.rank_of_vectors(vectors)
    assert rank == rank_oracle(vectors) == leftbracket_span_check(d, n).rank == len(vectors)
