import contextlib
import io
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from areasig import (
    EmptyWordOperand,
    TensorElem,
    area,
    area_span_basis,
    area_span_membership,
    areas_generate_check,
    arealb,
    checks,
    concat,
    generation_rank,
    hall_set,
    leftbracket_span_check,
    letter_elem,
    lie_bracket,
    lyndon_words,
    rho,
    rho_image_in_area_span,
    rho_permutation,
    shuffle,
    special_tree_reduction,
    theta_expansion,
    tortkara_check,
    vol,
    vol_n,
    volume_invariant,
    witt_dimension,
    word_elem,
    words_as_rho_shuffles,
)
from areasig import linalg, span
from areasig.cli import main
from areasig.span import (
    SpanReport,
    _leftbracket_rows,
    area_span_dim,
    arealb_word,
    interval_permutations,
    special_tree,
)
from areasig.trees import _labeled, area_eval
from areasig.tensor import words_of_length
from areasig.words import decode

from conftest import (
    assert_canonical,
    eval_rho_shuffle_expansion,
    membership_to_elem,
    random_elem,
    rank_oracle,
    tortkara_oracle,
    vol_n_oracle,
    vol_oracle,
)
from reference_tables import TORTKARA_INSTANCE, VOL_123, el

F = Fraction


# -- membership ---------------------------------------------------------------


def test_membership_examples():
    got = area_span_membership(area(letter_elem(1, 2), letter_elem(2, 2)))
    assert got == {"letters": {}, "pairs": {((), 1, 2): F(1)}}
    assert area_span_membership(shuffle(letter_elem(1, 2), letter_elem(2, 2))) is None
    target = concat(word_elem("12", 2), word_elem("12", 2) - word_elem("21", 2))
    assert area_span_membership(target) is not None


def test_membership_rejects_diagonal_tails():
    assert area_span_membership(word_elem("11", 2)) is None
    assert area_span_membership(TensorElem(2, {(): 1})) is None


def test_membership_round_trips():
    rng = random.Random(4)
    for _ in range(20):
        x = letter_elem(1, 3) * F(rng.randint(-3, 3))
        for _ in range(3):
            basis = area_span_basis(3, rng.randint(2, 4))
            x = x + basis[rng.randrange(len(basis))] * F(
                rng.randint(-3, 3), rng.randint(1, 4)
            )
        got = area_span_membership(x)
        assert got is not None
        assert membership_to_elem(3, got) == x


def test_area_span_basis_independent():
    for d, n in ((2, 3), (2, 4), (3, 3)):
        vectors = [dict(v.terms()) for v in area_span_basis(d, n)]
        assert rank_oracle(vectors) == area_span_dim(d, n)


@pytest.mark.parametrize(
    "degree_fn", [area_span_basis, area_span_dim, lyndon_words, witt_dimension]
)
@pytest.mark.parametrize("n", [0, -1])
def test_degree_functions_reject_degree_below_one(degree_fn, n):
    with pytest.raises(ValueError, match="n >= 1"):
        degree_fn(2, n)


@pytest.mark.parametrize(
    "degree_fn", [area_span_basis, area_span_dim, lyndon_words, witt_dimension]
)
@pytest.mark.parametrize("d", [0, -1])
def test_degree_functions_reject_alphabet_below_one(degree_fn, d):
    with pytest.raises(ValueError, match="d >= 1"):
        degree_fn(d, 3)


def test_leftbracket_reference_combination():
    lhs = concat(word_elem("12", 2), word_elem("12", 2) - word_elem("21", 2))
    rhs = arealb_word((1, 2, 1, 2), 2) * F(2, 6) - arealb_word((1, 2, 2, 1), 2) * F(1, 6)
    assert lhs == rhs


# -- left bracketing and permutation expansions ----------------------------------


def test_arealb_examples():
    assert arealb(word_elem("12", 2)) == word_elem("12", 2) - word_elem("21", 2)
    assert arealb(TensorElem(2, {(): 1})).is_zero()
    assert arealb(letter_elem(1, 2)) == letter_elem(1, 2)
    # by hand: area(area(1,2),3)
    assert arealb(word_elem("123", 3)) == el(
        3,
        {"123": 1, "132": -1, "213": -1, "231": 1, "312": -1, "321": 1},
    )


def test_arealb_of_lie_element():
    x = word_elem("123", 3) - word_elem("132", 3)
    assert arealb(x) == x * 2


def test_theta_expansion_matches_arealb():
    for d in (2, 3):
        for n in range(1, 6):
            for w in words_of_length(d, n):
                assert theta_expansion(w, d) == arealb(word_elem(w, d))


def test_theta_signs_level_two():
    assert theta_expansion((1, 2), 2) == word_elem("12", 2) - word_elem("21", 2)


def test_interval_permutation_count():
    assert len(interval_permutations(3)) == 4
    assert len(interval_permutations(5)) == 16


def test_rho_permutation_examples():
    assert rho_permutation((1, 2, 3), 3) == el(
        3, {"123": 1, "132": -1, "312": -1, "321": 1}
    )
    assert rho_permutation((1, 2), 2) == word_elem("12", 2) - word_elem("21", 2)


def test_rho_permutation_matches_recursive():
    assert checks.rho_three_ways(2, 7)
    assert checks.rho_three_ways(3, 5)


def test_arealb_concat_identity():
    # arealb(v . l(w)) = arealb(v) . arealb(l(w)) with l left bracketing
    rng = random.Random(9)
    for _ in range(40):
        nv = rng.randint(1, 3)
        nw = rng.randint(2, 3)
        v = tuple(rng.randint(1, 2) for _ in range(nv))
        wword = tuple(rng.randint(1, 2) for _ in range(nw))
        lw = letter_elem(wword[0], 2)
        for letter in wword[1:]:
            lw = lie_bracket(lw, letter_elem(letter, 2))
        if lw.is_zero():
            continue
        lhs = arealb(concat(word_elem(v, 2), lw))
        rhs = concat(arealb(word_elem(v, 2)), arealb(lw))
        assert lhs == rhs


# -- volumes and the tortkara identity ----------------------------------------------


def test_vol_values():
    one, two, three = (letter_elem(i, 3) for i in (1, 2, 3))
    assert vol(one, two, three) == el(3, VOL_123)
    assert vol(one, two, two).is_zero()
    assert volume_invariant(2, 2) == word_elem("12", 2) - word_elem("21", 2)
    assert vol_n([one, two, three]) == volume_invariant(3, 3)
    assert vol(one, two, three) == volume_invariant(3, 3)


def test_tortkara_explicit_instance():
    one, two, three = (letter_elem(i, 3) for i in (1, 2, 3))
    lhs = area(area(one, two), area(three, two))
    assert lhs == el(3, TORTKARA_INSTANCE)
    assert lhs == area(vol(one, two, three), two)


def test_tortkara_letters_exhaustive():
    letters = [letter_elem(i, 3) for i in (1, 2, 3)]
    assert checks.tortkara_holds(product(letters, repeat=3))
    assert checks.tortkara_holds(product(letters, repeat=4))


def test_tortkara_degenerate():
    x = word_elem("12", 2) + letter_elem(1, 2)
    y = letter_elem(2, 2)
    assert tortkara_check(x, x, y)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tortkara_random_elements(data):
    def mk():
        word = st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple)
        coeff = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
        return data.draw(
            st.dictionaries(word, coeff, min_size=1, max_size=3).map(
                lambda t: TensorElem(2, t)
            )
        )

    a, b, c, d = mk(), mk(), mk(), mk()
    assert checks.tortkara_holds([(a, b, c), (a, b, c, d)])


@pytest.mark.parametrize("d", [2, 3])
def test_vol_by_the_zinbiel_law_matches_the_area_form(d):
    rng = random.Random(30 + d)
    for _ in range(20):
        a, b, c = (random_elem(rng, d, 3, min_deg=1, max_den=6) for _ in range(3))
        got = vol(a, b, c)
        assert_canonical(got)
        assert got == vol_oracle(a, b, c) == vol_n([a, b, c])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vol_n_recursion_matches_the_ordering_fold(d, monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return area(x, y)

    # one area per pair of arguments, C(n, 2), where a recursion that
    # rebuilt each sub-volume per ordering would make n!/2
    monkeypatch.setattr(span, "area", counted)
    rng = random.Random(50 + d)
    for n in range(2, 7):
        for _ in range(3 if n < 6 else 0):
            args = [
                random_elem(rng, d, 2 if n <= 4 else 1, min_deg=1, terms=2)
                for _ in range(n)
            ]
            calls.clear()
            got = vol_n(args)
            assert len(calls) == n * (n - 1) // 2
            assert_canonical(got)
            assert got == vol_n_oracle(args)
        letters = [letter_elem(i, n) for i in range(1, n + 1)]
        calls.clear()
        assert vol_n(letters) == volume_invariant(n, n)
        assert len(calls) == n * (n - 1) // 2
        if n < 6:
            assert vol_n(letters) == vol_n_oracle(letters)
    with pytest.raises(ValueError, match="at least two"):
        vol_n([letter_elem(1, d)])


def test_vol_refuses_an_empty_word_in_every_operand():
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    with_empty = TensorElem(2, {(): 1, (1,): 2})
    for args in ((with_empty, one, two), (one, with_empty, two), (one, two, with_empty)):
        with pytest.raises(EmptyWordOperand, match="^area operand must have no"):
            vol(*args)


@pytest.mark.parametrize("d", [2, 3])
def test_tortkara_check_agrees_with_its_oracle(d):
    rng = random.Random(40 + d)
    for _ in range(6):
        a, b, c, e = (random_elem(rng, d, 2, min_deg=1) for _ in range(4))
        assert tortkara_check(a, b, c) is tortkara_oracle(a, b, c) is True
        assert tortkara_check(a, b, c, e) is tortkara_oracle(a, b, c, e) is True


def test_tortkara_check_fails_with_its_oracle_on_a_perturbed_volume(monkeypatch):
    a, b, c, e = (
        letter_elem(1, 3), letter_elem(2, 3) + word_elem("31", 3),
        letter_elem(3, 3), letter_elem(1, 3) - word_elem("2", 3) * 2,
    )

    def everywhere(x, y, z):
        return vol_oracle(x, y, z) + area(x, y)

    def led_by_b(x, y, z):
        # the first four-variable form holds, since none of its volumes
        # starts with b, and the second fails
        return vol_oracle(x, y, z) + (area(x, z) if x is b else TensorElem(3, {}))

    for perturbed, quadruple in ((everywhere, (a, b, c, e)), (led_by_b, (a, b, c, e))):
        monkeypatch.setattr(span, "vol", perturbed)
        assert tortkara_check(*quadruple) is tortkara_oracle(*quadruple, vol=perturbed) is False
    monkeypatch.setattr(span, "vol", everywhere)
    assert tortkara_check(a, b, c) is tortkara_oracle(a, b, c, vol=everywhere) is False


def test_vol_n_stays_in_span():
    rng = random.Random(14)
    for _ in range(8):
        picks = []
        for _ in range(3):
            basis = area_span_basis(2, rng.randint(1, 2))
            picks.append(basis[rng.randrange(len(basis))])
        value = vol_n(picks)
        assert value.is_zero() or area_span_membership(value) is not None


def test_span_closed_under_area():
    rng = random.Random(15)
    for _ in range(10):
        elems = []
        for _ in range(2):
            basis = area_span_basis(2, rng.randint(1, 4))
            elems.append(basis[rng.randrange(len(basis))])
        value = area(elems[0], elems[1])
        assert value.is_zero() or area_span_membership(value) is not None


# -- rank reports ------------------------------------------------------------------


def test_generation_rank_rho_words():
    xs = [rho(word_elem(w, 2)) for w in words_of_length(2, 4)]
    xs = [x for x in xs if not x.is_zero()]
    report = generation_rank(xs, 4)
    assert report.full_rank and report.target == witt_dimension(2, 4) == 3


def test_generation_rank_shuffles_fail():
    xs = [
        shuffle(letter_elem(i, 2), letter_elem(j, 2))
        for i in (1, 2)
        for j in (1, 2)
    ]
    report = generation_rank(xs, 2)
    assert not report.full_rank and report.rank == 0


def test_generation_rank_lyndon_words():
    for n in range(1, 6):
        xs = [word_elem(w, 2) for w in lyndon_words(2, n)]
        assert generation_rank(xs, n).full_rank


def test_generation_rank_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        generation_rank([word_elem("12", 2) + letter_elem(1, 2)], 2)


def test_generation_rank_without_generators():
    # the alphabet comes from the basis; with no basis there is none
    report = areas_generate_check(1, 3)
    assert (report.d, report.generators, report.rank, report.target) == (1, 0, 0, 0)
    assert report.full_rank
    report = generation_rank([], 3, hall_set(2, 3))
    assert (report.d, report.rank, report.target, report.full_rank) == (2, 0, 2, False)
    with pytest.raises(ValueError, match="need at least one element"):
        generation_rank([], 3)


def test_areas_generate_small():
    assert areas_generate_check(2, 2).full_rank
    report = areas_generate_check(3, 4)
    assert report.full_rank and report.target == witt_dimension(3, 4) == 18


def test_rank_matches_oracle():
    xs = area_span_basis(2, 4)
    basis = hall_set(2, 4)
    from areasig import pairing

    vectors = [
        {h.word: pairing(x, basis.bracketing(h)) for h in basis.level(4)}
        for x in xs
    ]
    report = areas_generate_check(2, 4)
    assert report.rank == rank_oracle(vectors)


def test_leftbracket_span_check():
    report = leftbracket_span_check(2, 3)
    assert report.generators == 2 and report.rank == 2 and report.full_rank
    report6 = leftbracket_span_check(2, 6)
    assert report6.full_rank and report6.rank == 2**4
    for d, n in [(3, n) for n in range(2, 7)] + [(4, 5)]:
        report = leftbracket_span_check(d, n)
        assert report.full_rank and report.rank == report.target == area_span_dim(d, n)


def _word_keyed(row, d):
    """An int row of TensorElem.int_row() keyed by tuple words again."""
    return {decode(code, d.bit_length()): c for code, c in row.items()}


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 2, 3) for n in range(2, 6)])
def test_leftbracket_rows_span_every_left_bracketing(d, n):
    # the words with w[0] < w[1]: swapping the first two letters negates a
    # left bracketing and equal first letters give 0
    rows = linalg.echelon(_word_keyed(row, d) for row in _leftbracket_rows(d, n))
    assert len(rows) == area_span_dim(d, n)
    for w in words_of_length(d, n):
        assert linalg.in_span(rows, dict(arealb_word(w, d).terms()))


INT_ROW_ELEMS = [
    TensorElem(3, {(1, 2): Fraction(1, 2), (2, 1): Fraction(2, 3), (3, 3): 5}),
    TensorElem(3, {(1, 2): Fraction(-1, 2), (2, 3): Fraction(2, 3)}),
    TensorElem(3, {(2, 1): 5, (3, 3): Fraction(-5, 2), (2, 3): Fraction(-2, 3)}),
    TensorElem(3, {(1, 3): Fraction(2, 3), (3, 1): Fraction(1, 2)}),
]


@pytest.mark.parametrize("x", INT_ROW_ELEMS)
def test_int_row_is_a_new_dict_of_scaled_int_numerators(x):
    row = x.int_row()
    assert all(type(c) is int for c in row.values())
    ratios = {Fraction(c) / x.coeff(w) for w, c in _word_keyed(row, 3).items()}
    assert _word_keyed(row, 3).keys() == dict(x.terms()).keys()
    assert len(ratios) == 1 and ratios.pop() > 0
    before = TensorElem(3, dict(x.terms()))
    row.clear()
    row[1] = 7
    assert x == before and x.int_row() != row


def test_int_rows_answer_as_terms_rows():
    targets = [
        INT_ROW_ELEMS[0] * Fraction(3, 7) - INT_ROW_ELEMS[1] * 5,
        INT_ROW_ELEMS[2] + INT_ROW_ELEMS[3] * Fraction(1, 2),
        TensorElem(3, {(1, 2): Fraction(1, 2)}),
        TensorElem(3, {(3, 2): Fraction(2, 3), (1, 1): 5}),
    ]
    for size in range(1, len(INT_ROW_ELEMS) + 1):
        xs = INT_ROW_ELEMS[:size]
        by_terms = linalg.echelon(dict(x.terms()) for x in xs)
        by_codes = linalg.echelon(x.int_row() for x in xs)
        assert linalg.rank_of_vectors(x.int_row() for x in xs) == len(by_terms)
        assert len(by_codes) == len(by_terms)
        for y in targets:
            assert linalg.in_span(by_codes, y.int_row()) == linalg.in_span(
                by_terms, dict(y.terms())
            )
    # both answers occur
    first_two = linalg.echelon(x.int_row() for x in INT_ROW_ELEMS[:2])
    assert linalg.in_span(first_two, targets[0].int_row())
    assert not linalg.in_span(first_two, targets[3].int_row())


@pytest.mark.parametrize(
    "check",
    [
        lambda: areas_generate_check(0, 3),
        lambda: leftbracket_span_check(0, 3),
        lambda: special_tree_reduction(4, 0),
    ],
    ids=["areas", "leftbracket", "special"],
)
def test_span_checks_reject_empty_alphabet(check):
    with pytest.raises(ValueError, match="alphabet size d must be >= 1, got 0"):
        check()


def test_span_report_json():
    report = areas_generate_check(2, 2)
    data = report.to_json_obj()
    assert data == {
        "d": 2,
        "n": 2,
        "generators": 1,
        "rank": 1,
        "target": 1,
        "full_rank": True,
    }


# -- factorization expansion -----------------------------------------------------------


def test_words_as_rho_shuffles_hands_out_a_fresh_list():
    first = words_as_rho_shuffles((1, 2, 1))
    assert len(first) == 4
    first.clear()
    assert len(words_as_rho_shuffles((1, 2, 1))) == 4


def test_words_as_rho_shuffles_coefficients():
    got = dict(words_as_rho_shuffles((1, 2)))
    assert got[((1, 2),)] == F(1, 2)
    assert got[((1,), (2,))] == F(1, 2)
    assert words_as_rho_shuffles((1,)) == [(((1,),), F(1))]


def test_rho_shuffle_expansion_reproduces_words():
    for n in range(1, 6):
        for w in words_of_length(2, n):
            assert eval_rho_shuffle_expansion(w, 2) == word_elem(w, 2)
    assert eval_rho_shuffle_expansion((1, 2, 3), 3) == word_elem("123", 3)


def test_rho_image_in_span():
    assert rho_image_in_area_span((1, 2), 2)
    assert rho_image_in_area_span((1, 1, 2, 2), 2)
    for n in range(1, 7):
        for w in words_of_length(2, n):
            assert rho_image_in_area_span(w, 2)


# -- special tree reduction ---------------------------------------------------------------


def test_special_tree_shape():
    from areasig.span import special_tree
    from areasig.trees import format_tree

    assert format_tree(special_tree(4)) == "a(a(1,1),a(1,1))"
    assert format_tree(special_tree(5)) == "a(a(a(1,1),1),a(1,1))"


def test_special_tree_reduction_full_rank_within_ceiling():
    # the generators are reduced to echelon form once per call; reducing
    # them again for every labeling took minutes at (3, 5)
    start = time.monotonic()
    reports = [special_tree_reduction(7, 2), special_tree_reduction(5, 3)]
    elapsed = time.monotonic() - start
    assert [(r.generators, r.rank, r.target) for r in reports] == [
        (128, 128, 128),
        (243, 243, 243),
    ]
    assert all(r.full_rank for r in reports)
    assert elapsed < 20, "%.1fs" % elapsed


def test_special_tree_reduction_small():
    report = special_tree_reduction(4, 2)
    assert report.full_rank
    report5 = special_tree_reduction(5, 2)
    assert report5.full_rank and report5.target == 32


def _special_tree_reduction_per_labeling(n, d):
    """The report with every labeled special tree tested on its own."""
    trees = [tree for _, tree in _labeled([special_tree(n)], d, n)]
    rows = linalg.echelon(dict(arealb_word(w, d).terms()) for w in words_of_length(d, n))
    solvable = sum(linalg.in_span(rows, dict(area_eval(t, d).terms())) for t in trees)
    return SpanReport(d, n, d**n, solvable, len(trees), solvable == len(trees))


@pytest.mark.parametrize(
    "d, n", [(d, n) for d in (1, 2, 3) for n in (4, 5)] + [(2, 6), (4, 4)]
)
def test_special_tree_reduction_per_class_matches_per_labeling(d, n):
    assert special_tree_reduction(n, d) == _special_tree_reduction_per_labeling(n, d)


def test_span_check_special_prints_the_per_labeling_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["span-check", "special", "--d", "3", "--level", "5"])
    assert code == 0
    assert out.getvalue() == _special_tree_reduction_per_labeling(5, 3).to_json() + "\n"
