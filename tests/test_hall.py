import functools
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from areasig import (
    HallWord,
    hall_bracketing,
    hall_set,
    lie_bracket,
    lie_eval,
    lyndon_words,
    pairing,
    pi1_transpose,
    shuffle,
    unit,
    witt_dimension,
    word_elem,
    zero,
)
from areasig import linalg
from areasig.tensor import parse_word

from conftest import (
    decreasing_products_oracle,
    dual_pbw_oracle,
    foliage,
    hall_less_oracle,
    hall_sort_key_oracle,
    pbw_product,
    random_elem,
)
from reference_tables import LYNDON_D2_TABLE, bracket_elem, el


def test_lyndon_words_examples():
    assert lyndon_words(2, 3) == [(1, 1, 2), (1, 2, 2)]
    assert lyndon_words(2, 1) == [(1,), (2,)]
    level5 = lyndon_words(2, 5)
    assert len(level5) == 6
    assert (1, 1, 2, 1, 2) in level5 and (1, 2, 1, 2, 2) in level5


def test_level_counts_match_witt_numbers():
    assert [witt_dimension(2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    for d, top in ((2, 6), (3, 5)):
        basis = hall_set(d, top)
        for n in range(1, top + 1):
            assert len(basis.level(n)) == witt_dimension(d, n)
            assert len(lyndon_words(d, n)) == witt_dimension(d, n)


def test_lyndon_level_sets():
    basis = hall_set(2, 3)
    assert [h.word for h in basis.level(1)] == [(1,), (2,)]
    assert [h.word for h in basis.level(2)] == [(1, 2)]
    assert [h.word for h in basis.level(3)] == [(1, 1, 2), (1, 2, 2)]


def test_standard_hall_level_three():
    basis = hall_set(2, 3, "standard_hall")
    assert [h.word for h in basis.level(3)] == [(1, 2, 1), (1, 2, 2)]
    h121 = basis.find((1, 2, 1))
    assert hall_bracketing(h121) == bracket_elem(((1, 2), 1), 2)


def test_bracketings_match_table():
    basis = hall_set(2, 5)
    for word_txt, bracket, _, _ in LYNDON_D2_TABLE:
        h = basis.find(parse_word(word_txt))
        assert h is not None
        assert basis.bracketing(h) == bracket_elem(bracket, 2)


def test_dual_pbw_table_values():
    basis = hall_set(2, 5)
    assert basis.dual_pbw(basis.find((1, 1, 2, 2))) == word_elem("1122", 2)
    assert basis.dual_pbw(basis.find((1, 2, 1, 2, 2))) == el(
        2, {"12122": "1", "11222": "3"}
    )
    basis3 = hall_set(3, 3)
    assert basis3.dual_pbw(basis3.find((1, 3, 2))) == el(3, {"123": "1", "132": "1"})


def test_zeta_table_values():
    basis = hall_set(2, 5)
    assert basis.zeta(basis.find((1, 1, 1, 2))) == el(
        2, {"1121": "-1/6", "1211": "1/6"}
    )
    assert basis.zeta(basis.find((1, 2, 2, 2, 2))) == el(
        2,
        {
            "12222": "-1/30",
            "21222": "-1/30",
            "22122": "4/30",
            "22212": "-1/30",
            "22221": "-1/30",
        },
    )
    basis3 = hall_set(3, 3)
    assert basis3.zeta(basis3.find((1, 2, 3))) == el(
        3,
        {
            "123": "2/6",
            "132": "-1/6",
            "213": "-1/6",
            "231": "-1/6",
            "312": "-1/6",
            "321": "2/6",
        },
    )


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
def test_duality_matrix_is_identity(kind):
    basis = hall_set(2, 5, kind)
    for n in range(1, 6):
        level = basis.level(n)
        for h in level:
            for g in level:
                expected = Fraction(1 if h == g else 0)
                assert pairing(basis.dual_pbw(h), basis.bracketing(g)) == expected


def test_duality_matrix_identity_d3():
    basis = hall_set(3, 4)
    for n in range(1, 5):
        level = basis.level(n)
        for h in level:
            for g in level:
                assert pairing(basis.dual_pbw(h), basis.bracketing(g)) == (
                    1 if h == g else 0
                )


def test_pbw_products_span_each_level():
    # the d**n decreasing Hall products at level n form a basis of the words
    for d, top in ((2, 5), (3, 4)):
        for kind in ("lyndon", "standard_hall"):
            basis = hall_set(d, top, kind)
            for n in range(1, top + 1):
                products = [
                    dict(pbw_product(basis, seq).terms())
                    for seq in decreasing_products_oracle(basis, n)
                ]
                assert len(products) == d**n
                assert linalg.rank_of_vectors(products) == d**n


def test_full_dual_basis_property():
    # duals of arbitrary words pair correctly against decreasing products
    basis = hall_set(2, 4)
    n = 4
    seqs = decreasing_products_oracle(basis, n)
    for seq in seqs[:10]:
        word = sum((h.word for h in seq), ())
        prod = pbw_product(basis, seq)
        for other in seqs:
            other_word = sum((h.word for h in other), ())
            expected = 1 if other_word == word else 0
            assert pairing(basis.dual_pbw_for_word(other_word), prod) == expected


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
def test_dual_pbw_matches_gauss_jordan_oracle(kind):
    # the closed form equals the inverse of the decreasing-product matrix
    for d, top in ((2, 6), (3, 4), (4, 3)):
        basis = hall_set(d, top, kind)
        for n in range(1, top + 1):
            oracle = dual_pbw_oracle(basis, n)
            for word in product(range(1, d + 1), repeat=n):
                assert basis.dual_pbw_for_word(word) == oracle[word], word
            for h in basis.level(n):
                assert basis.dual_pbw(h) == oracle[h.word]


_ORDER_CASES = [
    (d, top, kind)
    for d, top in ((2, 7), (3, 5), (4, 4), (12, 3))
    for kind in ("lyndon", "standard_hall")
]


@pytest.mark.parametrize("d, top, kind", _ORDER_CASES)
def test_factorization_matches_enumeration(d, top, kind):
    # rewriting finds the one non-increasing Hall sequence spelling each word
    basis = hall_set(d, top, kind)
    for n in range(1, top + 1):
        oracle = {
            sum((h.word for h in seq), ()): list(seq)
            for seq in decreasing_products_oracle(basis, n)
        }
        assert len(oracle) == d**n
        for word in product(range(1, d + 1), repeat=n):
            seq = basis._factorization(word)
            assert all(h in basis.level(len(h)) for h in seq)
            assert sum((h.word for h in seq), ()) == word
            assert all(not basis.less(a, b) for a, b in zip(seq, seq[1:]))
            assert seq == oracle[word], word


@pytest.mark.parametrize("d, top, kind", _ORDER_CASES)
def test_less_matches_recursive_comparator(d, top, kind):
    basis = hall_set(d, top, kind)
    words = list(basis.all_hall_words())
    for a in words:
        for b in words:
            assert basis.less(a, b) == hall_less_oracle(kind, a, b), (a, b)


@pytest.mark.parametrize("d, top, kind", _ORDER_CASES)
def test_levels_match_comparator_construction(d, top, kind):
    # the levels as the comparator builds them: standard factorizations
    # (x, y) with x < y and, for a compound x, x.right >= y, sorted by it
    basis = hall_set(d, top, kind)
    less = functools.partial(hall_less_oracle, kind)
    levels = [[HallWord(d, letter) for letter in range(1, d + 1)]]
    for level in range(2, top + 1):
        found = [
            HallWord(d, left=x, right=y)
            for left_size in range(1, level)
            for x in levels[left_size - 1]
            for y in levels[level - left_size - 1]
            if less(x, y) and (x.is_letter or not less(x.right, y))
        ]
        found.sort(key=hall_sort_key_oracle(kind))
        levels.append(found)
    for n in range(1, top + 1):
        assert [h.word for h in basis.level(n)] == [h.word for h in levels[n - 1]]
        assert [h.tree for h in basis.level(n)] == [h.tree for h in levels[n - 1]]


def test_dual_pbw_for_long_non_hall_word_is_fast():
    # the factorization is found without enumerating the 4**8 sequences
    word = (2, 1, 3, 1, 4, 2, 1, 1)
    basis = hall_set(4, 8)
    assert basis.find(word) is None
    start = time.perf_counter()
    dual = basis.dual_pbw_for_word(word)
    assert time.perf_counter() - start < 1.0
    seq = basis._factorization(word)
    assert pairing(dual, pbw_product(basis, seq)) == 1


def test_dual_pbw_for_word_empty_is_unit():
    assert hall_set(2, 3).dual_pbw_for_word(()) == unit(2)


@pytest.mark.parametrize(
    "word, message",
    [
        ((1, 2, 3), "letters outside 1..2"),
        ((0, 1), "letters outside 1..2"),
        ((1, 2, 1, 2), "longer than max_level 3"),
        ((12,), r"^word \[12\] uses letters outside 1\.\.2$"),
    ],
)
def test_dual_pbw_for_word_rejects_bad_words(word, message):
    basis = hall_set(2, 3)
    with pytest.raises(ValueError, match=message):
        basis.dual_pbw_for_word(word)


def test_zeta_unchanged_by_shuffle_perturbation():
    # adding shuffles from lower degrees to the dual element leaves zeta alone
    rng = random.Random(5)
    basis = hall_set(2, 4)
    for word in ((1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)):
        h = basis.find(word)
        s_h = basis.dual_pbw(h)
        n = len(word)
        for _ in range(5):
            k = rng.randint(1, n - 1)
            a = random_elem(rng, 2, k, min_deg=k)
            b = random_elem(rng, 2, n - k, min_deg=n - k)
            perturbed = s_h + shuffle(a, b)
            assert pi1_transpose(perturbed) == basis.zeta(h)


def test_zeta_words_are_anagrams():
    for d, top in ((2, 5), (3, 4)):
        basis = hall_set(d, top)
        for h in basis.all_hall_words():
            target = tuple(sorted(h.word))
            for word in basis.zeta(h).words():
                assert tuple(sorted(word)) == target


def test_hall_words_lookup():
    basis = hall_set(2, 4)
    assert basis.find((1, 2)) is not None
    assert basis.find((2, 1)) is None
    assert (1, 1, 2) in basis
    with pytest.raises(ValueError):
        basis.level(9)


def test_all_hall_words_rejects_level_above_basis():
    basis = hall_set(2, 4)
    assert len(list(basis.all_hall_words(4))) == 8
    with pytest.raises(ValueError, match="level 5 outside 1..4"):
        list(basis.all_hall_words(5))


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
@pytest.mark.parametrize("d, top", [(2, 5), (3, 4)])
def test_bracket_terms_expand_every_bracket(kind, d, top):
    # [P_h1, P_h2] = sum of c P_h over the table entries (h1, h2, c) of the
    # level |h1| + |h2|; a pair without entries brackets to zero
    basis = hall_set(d, top, kind)
    expansions = {}
    for n in range(1, top + 1):
        table = basis._bracket_terms(n)
        assert list(table) == basis.level(n)
        for h, terms in table.items():
            for h1, h2, c in terms:
                assert basis.less(h1, h2) and len(h1) + len(h2) == n and c
                expansions[h1, h2] = expansions.get((h1, h2), zero(d)) + (
                    basis.bracketing(h) * c
                )
    pairs = 0
    for h1, h2 in product(basis.all_hall_words(), repeat=2):
        if basis.less(h1, h2) and len(h1) + len(h2) <= top:
            pairs += 1
            bracket = lie_bracket(basis.bracketing(h1), basis.bracketing(h2))
            assert bracket == expansions.pop((h1, h2), zero(d))
    assert pairs and not expansions


def test_table_rows_shape():
    basis = hall_set(2, 3)
    rows = list(basis.table_rows())
    assert [row["hall_word"] for row in rows] == ["1", "2", "12", "112", "122"]
    assert rows[3]["bracketing"] == "[1,[1,2]]"
    rows = list(hall_set(2, 4, "standard_hall").table_rows())
    assert [row["bracketing"] for row in rows] == [
        "1",
        "2",
        "[1,2]",
        "[[1,2],1]",
        "[[1,2],2]",
        "[[[1,2],1],1]",
        "[[[1,2],2],1]",
        "[[[1,2],2],2]",
    ]


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
def test_hall_word_carries_its_area_tree(kind):
    # the tree reads the word at its leaves and its Lie image is P_h
    basis = hall_set(3, 4, kind)
    for h in basis.all_hall_words():
        assert foliage(h.tree) == h.word
        assert hall_bracketing(h) == lie_eval(h.tree, 3)


def test_hall_word_repr_brackets_past_nine_letters():
    assert repr(hall_set(2, 3).find((1, 1, 2))) == "<HallWord 112 = [1,[1,2]]>"
    basis = hall_set(12, 3)
    assert repr(basis.find((1, 12))) == "<HallWord [1,12] = [1,12]>"
    assert repr(basis.find((1, 1, 2))) == "<HallWord [1,1,2] = [1,[1,2]]>"
    rows = [row["hall_word"] for row in basis.table_rows()]
    assert len(set(rows)) == len(rows) == 650
