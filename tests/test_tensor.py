import ast
import json
import random
import re
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import areasig
from areasig import (
    AlphabetMismatch,
    EmptyWordOperand,
    TensorElem,
    antipode,
    checks,
    area,
    area_sum,
    concat,
    dynkin_r,
    exp_conc,
    grading_d,
    grading_d_inv,
    half_shuffle,
    half_shuffle_sum,
    invert_r,
    is_lie_element,
    letter_elem,
    lie_bracket,
    log_conc,
    pairing,
    pi1,
    pi1_transpose,
    r_element,
    rho,
    s_element,
    shuffle,
    unit,
    unshuffle,
    word_elem,
    zero,
)
from areasig.double_tensor import (
    DoubleTensor,
    box_mul,
    pre_lie,
    pre_lie_sum,
    pre_lie_sym,
    tensor_pair,
    unit_double,
    zero_double,
)
from areasig import guard, tensor
from areasig.errors import TermBudgetExceeded
from areasig.tensor import (
    CoproductTerms,
    half_shuffle_words,
    linear_combination,
    pi1_transpose_word,
    pi1_word,
    r_word,
    rho_word,
    rho_word_via_d,
    shuffle_words,
    unshuffle_word,
    words_of_length,
)
from areasig.words import (
    decode,
    encode,
    length,
    pi1_numerators,
    pi1_transpose_numerators,
    r_codes,
    rho_codes,
    shuffle_codes,
)

from conftest import (
    all_words,
    assert_canonical,
    bilinear_oracle,
    concat_oracle,
    contract_oracle,
    fractions_of,
    linear_oracle,
    pairing_oracle,
    pi1_transpose_oracle,
    pi1_word_oracle,
    random_double,
    random_elem,
    right_bracketing_oracle,
    series_oracle,
    shuffle_oracle,
    unshuffle_oracle,
)

w = word_elem
F = Fraction


def elems(d=2, max_deg=3, min_deg=0):
    word = st.lists(st.integers(1, d), min_size=min_deg, max_size=max_deg).map(tuple)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    return st.dictionaries(word, coeff, max_size=4).map(
        lambda terms: TensorElem(d, terms)
    )


# -- construction and container behaviour ------------------------------------


def test_zero_coefficients_are_dropped():
    e = TensorElem(2, {(1,): 0, (2,): 1})
    assert e.words() == [(2,)]
    assert e.degree() == 1


def test_zero_element_has_degree_zero():
    assert zero(3).degree() == 0
    assert zero(3).is_zero()


def test_letters_must_fit_alphabet():
    with pytest.raises(ValueError):
        word_elem("13", 2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        TensorElem(2, {(1,): 0.5})
    with pytest.raises(TypeError):
        letter_elem(1, 2) * 0.5


def test_canonical_term_order():
    e = w("21", 2) + w("12", 2) + letter_elem(2, 2) + unit(2)
    assert [word for word, _ in e.terms()] == [(), (2,), (1, 2), (2, 1)]


@pytest.mark.parametrize(
    "word, item",
    [
        ("[1.5, true]", "1.5"),
        ("[true]", "True"),
        ("[1, 2.0]", "2.0"),
        ('["1"]', "'1'"),
        ("1\u00b2", "'\u00b2'"),
        ("\u0661", "'\u0661'"),
    ],
)
def test_words_take_only_ints(word, item):
    message = "letter %s is not an" % re.escape(item)
    entry = {"word": word, "num": "1", "den": "1"}
    if word.startswith("["):
        # the same word as a JSON array names the item; as text it is read as
        # bracketed letters (test_bracketed_word_text_reads_as_in_expressions)
        with pytest.raises(ValueError, match=message):
            TensorElem.from_json_obj([dict(entry, word=json.loads(word))], 2)
        message = "at offset"
    with pytest.raises(ValueError, match=message):
        tensor.parse_word(word)
    with pytest.raises(ValueError, match=message):
        word_elem(word, 2)
    with pytest.raises(ValueError, match=message):
        TensorElem.from_json_obj([entry], 2)


def test_word_text_forms():
    assert tensor.parse_word("[1, 12]") == (1, 12) == tensor.parse_word([1, 12])
    assert tensor.parse_word(" 12 ") == (1, 2) == tensor.parse_word((1, 2))
    assert tensor.parse_word("e") == () == tensor.parse_word("") == tensor.parse_word([])


def test_json_round_trip():
    e = w("12", 2) * F(3, 7) - w("2", 2) + unit(2) * F(-1, 2)
    again = TensorElem.from_json_obj(e.to_json_obj(), 2)
    assert again == e


@pytest.mark.parametrize("den", ["0", 0, "-0", "+00"])
def test_json_zero_denominator_is_refused_naming_the_entry(den):
    entry = {"word": "1", "num": "1", "den": den}
    message = "JSON term %r has a zero denominator" % (entry,)
    with pytest.raises(ValueError, match=re.escape(message)):
        TensorElem.from_json_obj([{"word": "12", "num": "1", "den": "2"}, entry], 2)



@pytest.mark.parametrize("dim, first, again, shown", [
    (2, "1", "1", "1"), (2, "12", "[1, 2]", "12"), (2, "e", [], "e"), (12, "[1,12]", [1, 12], "[1,12]"),
])
def test_json_repeated_word_is_refused_naming_it(dim, first, again, shown):
    entries = [{"word": first, "num": "1", "den": "2"}, {"word": "2", "num": "5", "den": "1"}]
    repeat = {"word": again, "num": "1", "den": "3"}
    message = "JSON term %r repeats the word %s" % (repeat, shown)
    with pytest.raises(ValueError, match=re.escape(message)):
        TensorElem.from_json_obj(entries + [repeat], dim)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("dim, word, value, text", [
    (2, (1, 2), 10**4300, "word 12 "),
    (2, (2,), F(1, 3 * 10**4300), "word 2 "),
    (12, (1, 12), -(10**4300), "word [1,12] "),
], ids=["numerator", "denominator", "bracketed-word"])
def test_a_coefficient_too_long_to_write_is_named(dim, word, value, text):
    e = TensorElem(dim, {word: value, (1,): 1})
    message = "coefficient of %shas more than %d digits" % (text, sys.get_int_max_str_digits())
    with pytest.raises(ValueError, match=re.escape(message)):
        str(e)
    with pytest.raises(ValueError, match=re.escape(message)):
        e.to_json_obj()

def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatch):
        shuffle(letter_elem(1, 2), letter_elem(1, 3))


# -- concatenation and shuffle ------------------------------------------------


def test_concat_single_words():
    assert concat(letter_elem(1, 2), letter_elem(2, 2)) == w("12", 2)
    assert concat(unit(2), w("12", 2)) == w("12", 2)


def test_concat_distributes():
    # (12 - 21) . 3 = 123 - 213, by hand
    x = w("12", 3) - w("21", 3)
    assert concat(x, letter_elem(3, 3)) == w("123", 3) - w("213", 3)


def test_truncated_concat_is_concat_then_truncate():
    rng = random.Random(12)
    for _ in range(20):
        # mixed lengths 0..4, the empty word always present on one side
        x = random_elem(rng, 3, 4, terms=6)
        x = x - x.proj(0) + unit(3) * rng.randint(1, 3)
        y = random_elem(rng, 3, 4, terms=6)
        x, y = (x, y) if rng.random() < 0.5 else (y, x)
        full = concat(x, y)
        assert concat(x, y, None) == full
        for level in range(7):
            assert concat(x, y, level) == full.truncate(level)


def test_shuffle_matches_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(30):
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        expected = TensorElem(3, shuffle_oracle(u, v))
        assert shuffle(w(u, 3), w(v, 3)) == expected


def test_shuffle_examples():
    assert shuffle(letter_elem(1, 2), letter_elem(2, 2)) == w("12", 2) + w("21", 2)
    assert shuffle(unit(3), w("123", 3)) == w("123", 3)
    # oracle: interleavings of 1 into 12 (frozen from shuffle_oracle)
    assert shuffle(letter_elem(1, 2), w("12", 2)) == w("112", 2) * 2 + w("121", 2)


@settings(max_examples=40, deadline=None)
@given(elems(), elems())
def test_shuffle_commutative(a, b):
    assert checks.shuffle_commutes(a, b)


@settings(max_examples=25, deadline=None)
@given(elems(max_deg=2), elems(max_deg=2), elems(max_deg=2))
def test_shuffle_associative(a, b, c):
    assert checks.shuffle_associates(a, b, c)


# -- half shuffle and area -----------------------------------------------------


def test_half_shuffle_examples():
    assert half_shuffle(letter_elem(1, 2), letter_elem(2, 2)) == w("12", 2)
    assert half_shuffle(w("12", 3), letter_elem(3, 3)) == w("123", 3)
    assert half_shuffle(letter_elem(3, 3), w("12", 3)) == w("312", 3) + w("132", 3)


def test_half_shuffle_rejects_empty_right():
    with pytest.raises(EmptyWordOperand):
        half_shuffle(letter_elem(1, 2), unit(2))


def test_unit_is_left_identity_for_half_shuffle():
    assert half_shuffle(unit(2), w("12", 2)) == w("12", 2)


@settings(max_examples=40, deadline=None)
@given(elems(min_deg=1), elems(min_deg=1))
def test_half_shuffles_sum_to_shuffle(a, b):
    assert checks.half_shuffles_split_shuffle(a, b)


@settings(max_examples=25, deadline=None)
@given(elems(max_deg=2, min_deg=1), elems(max_deg=2, min_deg=1), elems(max_deg=2, min_deg=1))
def test_zinbiel_identity(a, b, c):
    assert checks.zinbiel_law(a, b, c)


def test_area_examples():
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    assert area(one, two) == w("12", 2) - w("21", 2)
    x = w("12", 2) + letter_elem(1, 2)
    assert area(x, x).is_zero()
    assert (area(one, two) + shuffle(one, two)) * F(1, 2) == w("12", 2)


def test_area_rejects_empty_word_components():
    with pytest.raises(EmptyWordOperand):
        area(unit(2) + letter_elem(1, 2), letter_elem(2, 2))
    with pytest.raises(EmptyWordOperand):
        area(letter_elem(2, 2), unit(2))


@settings(max_examples=30, deadline=None)
@given(elems(min_deg=1), elems(min_deg=1))
def test_area_antisymmetric(a, b):
    assert area(a, b) == -area(b, a)


# -- lie bracket, pairing --------------------------------------------------------


def test_lie_bracket_examples():
    one = letter_elem(1, 2)
    x = w("12", 2) - w("21", 2)
    assert lie_bracket(one, letter_elem(2, 2)) == x
    assert lie_bracket(x, x).is_zero()
    assert lie_bracket(one, x) == w("112", 2) - w("121", 2) * 2 + w("211", 2)


def test_pairing_examples():
    x = w("12", 2) - w("21", 2)
    assert pairing(w("12", 2), x) == 1
    assert pairing(w("21", 2), x) == -1
    assert pairing(shuffle(letter_elem(1, 2), letter_elem(2, 2)), x) == 0


# -- dynkin maps -------------------------------------------------------------------


def test_dynkin_r_examples():
    assert dynkin_r(w("12", 2)) == w("12", 2) - w("21", 2)
    assert dynkin_r(unit(2)).is_zero()
    assert dynkin_r(w("123", 3)) == TensorElem(3, right_bracketing_oracle((1, 2, 3)))
    assert dynkin_r(letter_elem(2, 2)) == letter_elem(2, 2)


def test_dynkin_r_matches_oracle_on_random_words():
    rng = random.Random(3)
    for _ in range(25):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        assert dynkin_r(w(word, 3)) == TensorElem(3, right_bracketing_oracle(word))


def test_rho_reference_values():
    assert rho(w("12", 2)) == w("12", 2) - w("21", 2)
    assert rho(w("112", 2)) == w("112", 2) - w("121", 2)
    assert rho(w("1122", 2)) == (
        -w("1212", 2) + w("1221", 2) - w("2112", 2) + w("2121", 2)
    )


def test_rho_methods_agree():
    assert checks.rho_three_ways(2, 6)


def test_rho_dual_to_r():
    for n in range(1, 6):
        for u in words_of_length(2, n):
            for v in words_of_length(2, n):
                assert pairing(rho(w(u, 2)), w(v, 2)) == pairing(
                    w(u, 2), dynkin_r(w(v, 2))
                )


def test_rho_adjoint_check_catches_a_broken_rho(monkeypatch):
    assert checks.rho_adjoint_to_r(2, 5) and checks.rho_adjoint_to_r(3, 3)
    real = rho_codes  # the code kernel behind the rho lift

    def broken(code, k):
        # one sign flipped at length 3; lengths up to 3 only are asked for,
        # so the real kernel's memo holds no value built from this one
        out = real(code, k)
        return {t: -c for t, c in out.items()} if length(code, k) == 3 else out

    # the rho lift reads the kernel through its own module's binding
    monkeypatch.setattr(tensor, "rho_codes", broken)
    assert checks.rho_adjoint_to_r(2, 2)
    assert not checks.rho_adjoint_to_r(2, 3)
    monkeypatch.setattr(tensor, "rho_codes", lambda code, k: {code: 1})
    assert not checks.rho_adjoint_to_r(3, 2)


def test_grading_identity_through_level_six():
    assert checks.grading_identity(2, 6)


def test_grading_d():
    assert grading_d(w("12", 2)) == w("12", 2) * 2
    assert grading_d_inv(w("12", 2) * 2) == w("12", 2)
    e = letter_elem(1, 2) + w("12", 2)
    assert grading_d(e) == letter_elem(1, 2) + w("12", 2) * 2
    degree_zero = "^grading inverse is undefined in degree zero$"
    for value in (unit(2), unit(2) * F(1, 2) + letter_elem(1, 2)):
        with pytest.raises(EmptyWordOperand, match=degree_zero):
            grading_d_inv(value)
    # a DoubleTensor is graded by the length of its right word
    r = r_element(2, 4)
    assert grading_d_inv(grading_d(r)) == r
    for value in (unit_double(2), unit_double(2) * F(2, 3) + r):
        with pytest.raises(EmptyWordOperand, match=degree_zero):
            grading_d_inv(value)
    assert len(s_element(2, 3).truncate(1)) == 3


def test_antipode():
    assert antipode(w("12", 2)) == w("21", 2)
    assert antipode(letter_elem(1, 2)) == -letter_elem(1, 2)


@settings(max_examples=30, deadline=None)
@given(elems())
def test_antipode_involution(a):
    assert checks.antipode_is_involution(a)


# -- unshuffle ----------------------------------------------------------------------


def test_unshuffle_examples():
    one = letter_elem(1, 2)
    split = unshuffle(one)
    assert split.coeff((), (1,)) == 1 and split.coeff((1,), ()) == 1
    assert len(split) == 2
    split12 = unshuffle(w("12", 2))
    assert split12.coeff((), (1, 2)) == 1
    assert split12.coeff((1,), (2,)) == 1
    assert split12.coeff((2,), (1,)) == 1
    assert split12.coeff((1, 2), ()) == 1
    assert len(split12) == 4


def test_unshuffle_dual_to_shuffle():
    rng = random.Random(8)
    for _ in range(20):
        a = random_elem(rng, 2, 2)
        b = random_elem(rng, 2, 2)
        c = random_elem(rng, 2, 4)
        assert unshuffle(c).pair_with(a, b) == pairing(shuffle(a, b), c)


def test_pair_with_rejects_a_different_alphabet():
    split = unshuffle(w("12", 2))
    with pytest.raises(AlphabetMismatch):
        split.pair_with(w("1", 3), w("2", 3))
    with pytest.raises(AlphabetMismatch):
        split.pair_with(w("1", 3), w("2", 2))


def test_unshuffle_terms_order_and_repr():
    split = unshuffle(w("12", 2))
    assert [key for key, _ in split.terms()] == [
        ((), (1, 2)),
        ((1,), (2,)),
        ((2,), (1,)),
        ((1, 2), ()),
    ]
    assert repr(split) == (
        "<CoproductTerms d=2 1*(e)x(12) + 1*(1)x(2) + 1*(2)x(1) + 1*(12)x(e)>"
    )


def test_antipode_dynkin_identity_on_grouplike():
    # r(g) = concat of (D x antipode) applied to the unshuffle of g
    from areasig import signature_pwl, TimeSeries

    g = signature_pwl(TimeSeries([(0, 0), (2, 1), (1, 3)]), 4)
    split = unshuffle(g)
    total = zero(2)
    for (u, v), c in split.terms():
        if len(u) + len(v) > 4:
            continue
        total = total + concat(
            grading_d(w(u, 2)) if u else zero(2), antipode(w(v, 2)), 4
        ) * c
    assert total == dynkin_r(g).truncate(4)


# -- eulerian projections --------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel, oracle, seeded_length",
    [
        (pi1_word, pi1_word_oracle, 6),
        (pi1_transpose_word, pi1_transpose_oracle, 7),
        (unshuffle_word, unshuffle_oracle, 7),
    ],
    ids=["pi1_word", "pi1_transpose_word", "unshuffle_word"],
)
def test_word_kernel_matches_its_oracle(kernel, oracle, seeded_length):
    # every word of length <= 5 over two and three letters, then seeded longer ones
    rng = random.Random(seeded_length)
    words = [u for d in (2, 3) for n in range(6) for u in words_of_length(d, n)]
    words += [
        tuple(rng.randint(1, d) for _ in range(seeded_length))
        for d in (2, 3)
        for _ in range(3)
    ]
    for word in words:
        assert kernel(word) == oracle(word), word


def test_pi1_transpose_table_values():
    assert pi1_transpose(w("112", 2)) == (
        w("112", 2) * F(1, 6) - w("121", 2) * F(1, 3) + w("211", 2) * F(1, 6)
    )
    assert pi1_transpose(w("12", 2)) == w("12", 2) * F(1, 2) - w("21", 2) * F(1, 2)


def test_pi1_fixes_lie_elements():
    x = w("12", 2) - w("21", 2)
    assert pi1(x) == x
    from areasig import hall_set

    basis = hall_set(2, 5)
    for h in basis.all_hall_words():
        p = basis.bracketing(h)
        assert pi1(p) == p


def test_pi1_lands_in_lie_algebra():
    rng = random.Random(21)
    for _ in range(10):
        x = random_elem(rng, 2, 5)
        y = pi1(x)
        assert y.empty_coeff() == 0
        assert dynkin_r(y) == grading_d(y)


def test_pi1_transpose_kills_shuffles():
    rng = random.Random(22)
    for _ in range(15):
        a = random_elem(rng, 2, 3, min_deg=1)
        b = random_elem(rng, 2, 2, min_deg=1)
        if a.is_zero() or b.is_zero():
            continue
        assert pi1_transpose(shuffle(a, b)).is_zero()


def test_pi1_adjoint_relation():
    rng = random.Random(23)
    for _ in range(10):
        a = random_elem(rng, 2, 3)
        b = random_elem(rng, 2, 3)
        assert pairing(pi1_transpose(a), b) == pairing(a, pi1(b))


# -- exponentials ------------------------------------------------------------------------


def test_exp_log_examples():
    one = letter_elem(1, 2)
    e = exp_conc(one, 2)
    assert e == unit(2) + one + w("11", 2) * F(1, 2)
    assert log_conc(e, 2) == one
    x = w("12", 2) - w("21", 2)
    sq = concat(x, x)
    assert exp_conc(x, 4).proj(4) == sq * F(1, 2)


def test_exp_log_round_trips():
    rng = random.Random(31)
    for level in range(1, 7):
        x = random_elem(rng, 2, level, min_deg=1)
        assert checks.exp_log_round_trip(x, level)


def test_exp_preconditions():
    with pytest.raises(EmptyWordOperand):
        exp_conc(unit(2), 3)
    with pytest.raises(ValueError):
        log_conc(letter_elem(1, 2), 3)


def test_series_obey_the_term_budget():
    rng = random.Random(5)
    dense = TensorElem(3, {
        u: F(rng.randint(1, 9), rng.randint(1, 9)) for u in all_words(3, 4)
    })
    g = unit(3) + dense.proj_at_least(1)
    size = len(log_conc(g, 4))  # the 120 words of grades 1 to 4
    previous = guard.get_term_budget()
    try:
        for budget in (80, size - 1):  # a grade of 81 words, then the total
            guard.set_term_budget(budget)
            with pytest.raises(TermBudgetExceeded):
                log_conc(g, 4)
            with pytest.raises(TermBudgetExceeded):
                exp_conc(dense.proj_at_least(1), 4)
        guard.set_term_budget(size)
        assert len(log_conc(g, 4)) == size
    finally:
        guard.set_term_budget(previous)
    assert guard.get_term_budget() == previous


def test_proj():
    e = unit(2) + letter_elem(1, 2) + w("11", 2) * F(1, 2)
    assert e.proj(2) == w("11", 2) * F(1, 2)
    assert e.proj(2) + e.proj(1) + e.proj(0) == e
    assert e.proj_at_least(1) == e - unit(2)
    assert (w("12", 2) - w("21", 2)).proj(1).is_zero()


# -- inverse of the dynkin map ----------------------------------------------------------------


def test_invert_r_on_letter():
    got = invert_r(letter_elem(1, 2), 3)
    assert got == exp_conc(letter_elem(1, 2), 3)


def test_invert_r_round_trips():
    from areasig import hall_set

    basis = hall_set(2, 4)
    rng = random.Random(17)
    for _ in range(10):
        x = zero(2)
        for h in basis.all_hall_words():
            if rng.random() < 0.5:
                x = x + basis.bracketing(h) * F(rng.randint(-2, 2), rng.randint(1, 3))
        g = invert_r(x, 4)
        assert dynkin_r(g).truncate(4) == x.truncate(4)


def test_invert_r_of_zero():
    assert invert_r(zero(2), 4) == unit(2)


def test_invert_r_rejects_non_lie():
    assert not is_lie_element(w("12", 2))
    with pytest.raises(ValueError):
        invert_r(w("12", 2), 3)


# -- the term map -------------------------------------------------------------------


@pytest.mark.parametrize(
    "word, shown",
    [((1, 12), "[1,12]"), ((12,), "[12]"), ((5,), "5"), ((0, 1), "01")],
)
def test_bad_letter_message_names_the_word_unambiguously(word, shown):
    with pytest.raises(ValueError) as caught:
        TensorElem(3, {word: 1})
    assert str(caught.value) == "word %s uses letters outside 1..3" % shown


def test_only_the_tensor_module_reads_coefficient_maps():
    package = Path(areasig.__file__).parent
    readers = [
        "%s:%d" % (path.name, number)
        for path in sorted(package.glob("*.py"))
        if path.name != "tensor.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "._terms" in line or "._raw(" in line or "._den" in line
    ]
    assert readers == []


WORD_KERNELS = (
    "encode", "decode", "length", "appended", "nonzero", "shuffle_codes",
    "shuffled", "r_codes", "rho_codes", "unshuffle_codes", "concat_codes",
    "deconcat_codes", "convolution_power", "log_den", "log_id",
    "pi1_numerators", "pi1_transpose_numerators", "area_words",
)


def test_the_word_kernels_live_below_the_tensor_module():
    package = Path(areasig.__file__).parent
    kernels = ast.parse((package / "words.py").read_text())
    # the package modules that words imports, relative or absolute
    imported = set()
    for node in ast.walk(kernels):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "areasig":
                imported.add(module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "areasig")
    assert imported == {".memo"}
    moved = {name for kernel in WORD_KERNELS for name in (kernel, "_" + kernel)}
    defined = {
        node.name for node in ast.parse((package / "tensor.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & moved
    # and no module takes a kernel from tensor
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tensor":
                assert not {a.name for a in node.names} & moved, path.name
    assert set(WORD_KERNELS) <= {
        node.name for node in kernels.body if isinstance(node, ast.FunctionDef)
    }


# -- int numerators over one denominator -----------------------------------------


def _half_shuffle_oracle(u, v):
    return {s + v[-1:]: k for s, k in shuffle_oracle(u, v[:-1]).items()}


@pytest.mark.parametrize("seed", range(8))
def test_products_match_the_fraction_lifts(seed):
    for d in (2, 3):
        _check_products_against_the_fraction_lifts(random.Random(seed), d)


def _check_products_against_the_fraction_lifts(rng, d):
    x, y = (random_elem(rng, d, 3, terms=6, max_den=12) for _ in range(2))
    a, b = (random_elem(rng, d, 3, min_deg=1, terms=6, max_den=12) for _ in range(2))
    fx, fy, fa, fb = map(fractions_of, (x, y, a, b))
    ab = bilinear_oracle(fa, fb, _half_shuffle_oracle)
    ba = bilinear_oracle(fb, fa, _half_shuffle_oracle)
    signed = {w: ab.get(w, 0) - ba.get(w, 0) for w in ab.keys() | ba.keys()}
    checks = [
        (shuffle(x, y), bilinear_oracle(fx, fy, shuffle_oracle)),
        (half_shuffle(x, b), bilinear_oracle(fx, fb, _half_shuffle_oracle)),
        (area(a, b), {w: c for w, c in signed.items() if c}),
        (concat(x, y), concat_oracle(fx, fy)),
    ]
    checks += [(concat(x, y, level), concat_oracle(fx, fy, level)) for level in range(7)]
    for got, expected in checks:
        assert_canonical(got)
        assert fractions_of(got) == expected
    assert pairing(x, y) == pairing_oracle(fx, fy)
    assert pairing(shuffle(x, y), concat(y, x)) == pairing_oracle(
        bilinear_oracle(fx, fy, shuffle_oracle), concat_oracle(fy, fx)
    )


def test_shuffle_words_shares_one_dict_between_both_orders():
    for d, top in ((2, 4), (3, 3)):
        words = list(all_words(d, top))
        for u in words:
            for v in words:
                got = shuffle_words(u, v)
                assert got is shuffle_words(v, u)
                assert got == shuffle_oracle(u, v)


# The names bench/tracing.py fetches from areasig.tensor with getattr (its
# KERNEL_NAMES and LIFT_NAMES): each must stay defined, even one that no
# library code calls any more, or the traced benchmark cannot start.
TRACED_TENSOR_NAMES = (
    "shuffle_words", "half_shuffle_words", "r_word", "rho_word", "rho_word_via_d",
    "pi1_word", "pi1_transpose_word", "unshuffle_word",
    "concat", "shuffle", "half_shuffle", "area", "lie_bracket", "pairing",
    "dynkin_r", "rho", "pi1", "pi1_transpose", "exp_conc", "log_conc", "unshuffle",
)


def test_the_names_the_bench_tracer_fetches_still_exist():
    for name in TRACED_TENSOR_NAMES:
        assert callable(getattr(tensor, name)), name
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    if not tracing.exists():
        pytest.skip("no bench/ next to the tests")
    fetched = set()
    for node in ast.parse(tracing.read_text()).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if set(names) & {"KERNEL_NAMES", "LIFT_NAMES"}:
            fetched |= set(ast.literal_eval(node.value))
    assert fetched and fetched <= set(TRACED_TENSOR_NAMES)


def _denominators_1_to_12(rng, d):
    """A TensorElem with one term over each denominator 1..12 (words of
    length 1..3, so it can stand on either side of an area)."""
    return TensorElem(d, {
        tuple(rng.randint(1, d) for _ in range(rng.randint(1, 3))):
            F(rng.choice((-3, -2, -1, 1, 2, 3)), den)
        for den in range(1, 13)
    })


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_area_and_half_shuffle_match_the_oracle_over_denominators_1_to_12(d, seed):
    rng = random.Random(seed)
    a, b = _denominators_1_to_12(rng, d), _denominators_1_to_12(rng, d)
    x = random_elem(rng, d, 2, terms=5, max_den=12)  # may hold the empty word
    fa, fb, fx = map(fractions_of, (a, b, x))
    ab = bilinear_oracle(fa, fb, _half_shuffle_oracle)
    ba = bilinear_oracle(fb, fa, _half_shuffle_oracle)
    signed = {w: ab.get(w, 0) - ba.get(w, 0) for w in ab.keys() | ba.keys()}
    for got, expected in [
        (half_shuffle(a, b), ab),
        (half_shuffle(b, a), ba),
        (half_shuffle(x, b), bilinear_oracle(fx, fb, _half_shuffle_oracle)),
        (area(a, b), {w: c for w, c in signed.items() if c}),
        (area(b, a), {w: -c for w, c in signed.items() if c}),
    ]:
        assert_canonical(got)
        assert fractions_of(got) == expected


@pytest.mark.parametrize("seed", range(6))
def test_area_of_an_element_with_itself_is_zero(seed):
    rng = random.Random(seed)
    for x in (random_elem(rng, 3, 3, min_deg=1, terms=6, max_den=12),
              _denominators_1_to_12(rng, 2)):
        value = area(x, x)
        assert value.is_zero() and value == zero(x.dim)
        assert_canonical(value)


def _edge_words(d):
    """Words that reach every branch of the one-pass area: single letters,
    equal last letters with an empty or nonempty u'' and v'', and
    distinct last letters."""
    top, low = d, 1
    return [
        (top,), (low,), (top, top), (low, top), (top, low), (top, top, top),
        (low, low, top), (top, low, top), (low, top, top), (top, top, low, top),
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 12])
def test_area_is_the_difference_of_the_half_shuffles(d):
    # d = 1, 2, 3, 4, 9 and 12 take 1 to 4 bits per letter
    def oracle(x, y):
        return half_shuffle(x, y) - half_shuffle(y, x)

    words = sorted(set(_edge_words(d)))
    for u in words:
        for v in words:
            x, y = TensorElem(d, {u: 1}), TensorElem(d, {v: 1})
            assert area(x, y) == oracle(x, y), (u, v)
    rng = random.Random(70 + d)
    edges = TensorElem(d, {u: Fraction(rng.randint(1, 5), rng.randint(1, 7)) for u in words})
    for _ in range(12):
        x = random_elem(rng, d, 4, min_deg=1, terms=6, max_den=12)
        y = random_elem(rng, d, 4, min_deg=1, terms=6, max_den=12)
        # x + y shares every word with both, and edges shares many of its own
        for a, b in ((x, y), (y, x), (x, x + y), (x + y * 3, y), (x, edges), (edges, y)):
            got = area(a, b)
            assert_canonical(got)
            assert got == oracle(a, b)
        assert area(x, x).is_zero() and area(edges, edges).is_zero()
        triples = [(x, y, 2), (y, edges, Fraction(-1, 3)), (x + y, x, 1), (x, x, 5)]
        got = area_sum(d, triples)
        assert_canonical(got)
        assert got == linear_combination(zero(d), ((area(a, b), s) for a, b, s in triples))


@pytest.mark.parametrize("d", [2, 3])
def test_area_and_half_shuffle_sums_are_sums_of_single_products(d):
    rng = random.Random(20 + d)
    scalars = (1, -2, 0, Fraction(3, 4), Fraction(-5, 9), "7/6")
    for _ in range(10):
        xs = [random_elem(rng, d, 3, min_deg=1, max_den=12) for _ in range(4)]
        triples = [
            (rng.choice(xs), rng.choice(xs), rng.choice(scalars))
            for _ in range(rng.randint(1, 5))
        ]
        for fused, single in ((area_sum, area), (half_shuffle_sum, half_shuffle)):
            got = fused(d, iter(triples))
            assert_canonical(got)
            assert got == linear_combination(zero(d), ((single(x, y), s) for x, y, s in triples))
    assert area_sum(d, []) == half_shuffle_sum(d, []) == zero(d)


def test_area_and_half_shuffle_sums_check_every_operand():
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    with_empty = unit(2) + one
    # a zero scalar does not exempt a product from the operand checks
    for triples in ([(one, two, 1), (with_empty, two, 0)], [(one, two, 1), (two, with_empty, 0)]):
        with pytest.raises(EmptyWordOperand, match="^area operand"):
            area_sum(2, triples)
    with pytest.raises(EmptyWordOperand, match="^right half-shuffle factor"):
        half_shuffle_sum(2, [(one, with_empty, 0)])
    assert half_shuffle_sum(2, [(with_empty, two, 1)]) == half_shuffle(with_empty, two)
    for fused in (area_sum, half_shuffle_sum):
        for triples in ([(one, letter_elem(1, 3), 1)], [(letter_elem(1, 3), one, 1)]):
            with pytest.raises(AlphabetMismatch, match="^alphabet sizes differ: 2 vs 3$"):
                fused(2, triples)


def test_sums_of_products_check_the_budget_as_the_accumulator_grows():
    rng = random.Random(8)
    x = random_elem(rng, 3, 3, min_deg=2, terms=8)
    y = random_elem(rng, 3, 3, min_deg=2, terms=8)
    a = tensor_pair(x, y)
    b = tensor_pair(y, x)
    cancelling = [
        (lambda: area_sum(3, [(x, y, 1), (x, y, -1)]), len(half_shuffle(x, y))),
        (lambda: pre_lie_sum(3, [(a, b, 2), (a, b, -2)]), len(pre_lie(a, b))),
    ]
    previous = guard.get_term_budget()
    try:
        for build, first in cancelling:
            assert build().is_zero()
            # the first product alone outgrows this budget, the sum is zero
            guard.set_term_budget(first - 1)
            with pytest.raises(TermBudgetExceeded):
                build()
            guard.set_term_budget(previous)
    finally:
        guard.set_term_budget(previous)


def test_area_and_half_shuffle_errors_name_the_operand():
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    with_empty = unit(2) + one
    for x, y in ((with_empty, two), (two, with_empty), (with_empty, letter_elem(1, 3))):
        with pytest.raises(EmptyWordOperand) as info:
            area(x, y)
        assert str(info.value) == "area operand must have no empty-word component"
    for x, y in ((one, with_empty), (letter_elem(1, 3), with_empty)):
        with pytest.raises(EmptyWordOperand) as info:
            half_shuffle(x, y)
        assert str(info.value) == (
            "right half-shuffle factor must have no empty-word component"
        )
    assert half_shuffle(with_empty, two) == w("12", 2) + two
    for op in (area, half_shuffle):
        for x, y in ((one, letter_elem(1, 3)), (letter_elem(1, 3), one)):
            with pytest.raises(AlphabetMismatch) as info:
                op(x, y)
            assert str(info.value) == "alphabet sizes differ: %d vs %d" % (x.dim, y.dim)


# -- one accumulator for linear combinations --------------------------------------


def _left_fold(start, pairs):
    total = start
    for x, scalar in pairs:
        total = total + x * scalar
    return total


@pytest.mark.parametrize("seed", range(6))
def test_linear_combination_equals_the_left_fold_of_plus(seed):
    rng = random.Random(seed)
    scalars = [F(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(7)]
    scalars[rng.randrange(7)] = 0
    scalars[rng.randrange(7)] = rng.randint(-3, 3)
    for values, start in (
        ([random_elem(rng, 3, 3, terms=5, max_den=12) for _ in range(7)], zero(3)),
        ([random_double(rng, 2, 2, 2, terms=5, max_den=12) for _ in range(7)],
         zero_double(2)),
    ):
        pairs = list(zip(values, scalars))
        for begin in (start, values[0] * F(5, 7)):
            got, expected = linear_combination(begin, iter(pairs)), _left_fold(begin, pairs)
            assert_canonical(got)
            assert (got, hash(got)) == (expected, hash(expected))
        negated = [(x, -c) for x, c in pairs]
        assert linear_combination(start, pairs) + linear_combination(start, negated) == start


def test_linear_combination_of_nothing_or_zero_scalars_is_zero():
    rng = random.Random(3)
    x = random_elem(rng, 2, 3, terms=5, max_den=12)
    f = random_double(rng, 2, 2, 2, terms=5, max_den=12)
    for start, value in ((zero(2), x), (zero_double(2), f)):
        for pairs in ([], [(value, 0), (value, F(0)), (value, "0")]):
            got = linear_combination(start, pairs)
            assert got == start and got.is_zero()
            assert_canonical(got)
    assert linear_combination(x, []) == x and linear_combination(x, [(x, 0)]) == x


def test_linear_combination_keeps_the_kind_and_alphabet_checks():
    x, y = letter_elem(1, 2), letter_elem(2, 2)
    pair = tensor_pair(x, y)
    for start, other in ((zero(2), pair), (zero_double(2), x), (x, pair)):
        for scalar in (1, 0):
            with pytest.raises(TypeError):
                linear_combination(start, [(other, scalar)])
    with pytest.raises(TypeError):
        linear_combination(zero(2), [(x, 1), (pair, 1)])
    for start, other in ((zero(2), letter_elem(1, 3)), (zero_double(3), pair)):
        for scalar in (1, 0):
            with pytest.raises(AlphabetMismatch):
                linear_combination(start, [(other, scalar)])


def _series_inputs(rng):
    """(a, levels): exp and log inputs with no empty word, each with the
    levels to take them to."""
    yield random_elem(rng, 2, 3, min_deg=1, terms=4, max_den=12), range(1, 5)
    yield random_elem(rng, 1, 4, min_deg=1, terms=4, max_den=12), range(1, 6)
    # words longer than the level: the series drop them (all of them at
    # levels 1 and 2)
    yield random_elem(rng, 2, 7, min_deg=3, terms=6, max_den=12), range(1, 5)
    # nilpotent below the level: grades 2 and 3 only, so a^3 is truncated
    # to zero at levels 4 and 5
    yield random_elem(rng, 3, 3, min_deg=2, terms=5, max_den=12), (4, 5)
    # denominators that share factors, and a long word whose truncation
    # leaves numerators with a factor in common with the denominator
    yield TensorElem(2, {
        (1,): F(rng.choice((-5, 1, 7)), 6),
        (2, 1): F(rng.choice((-3, 1, 5)), 10),
        (1, 2, 2): F(rng.choice((-7, 1, 11)), 15),
        (2, 2, 2, 2, 1): F(1, 7),
    }), range(1, 6)


@pytest.mark.parametrize("seed", range(6))
def test_linear_maps_and_series_match_the_fraction_lifts(seed):
    rng = random.Random(seed)
    x = random_elem(rng, 2, 4, terms=6, max_den=12)
    a = random_elem(rng, 2, 3, min_deg=1, terms=4, max_den=12)
    fx, fa = fractions_of(x), fractions_of(a)
    checks = [
        (dynkin_r(x), linear_oracle(fx, right_bracketing_oracle)),
        (pi1(x), linear_oracle(fx, pi1_word_oracle)),
        (pi1_transpose(x), linear_oracle(fx, pi1_transpose_oracle)),
        (unshuffle(x), linear_oracle(fx, unshuffle_oracle)),
        (grading_d(x), {u: c * len(u) for u, c in fx.items() if u}),
        (grading_d_inv(a), {u: c / len(u) for u, c in fa.items()}),
    ]
    one = {(): Fraction(1)}
    for a, levels in _series_inputs(rng):
        fa = fractions_of(a)
        for level in levels:
            low = {u: c for u, c in fa.items() if len(u) <= level}
            checks.append((exp_conc(a, level), series_oracle(low, one, concat_oracle, level)))
            checks.append((
                log_conc(unit(a.dim) + a, level),
                series_oracle(low, one, concat_oracle, level, log=True),
            ))
    for got, expected in checks:
        assert_canonical(got)
        assert fractions_of(got) == expected


@pytest.mark.parametrize("seed", range(6))
def test_coproduct_pairing_matches_the_fraction_lifts(seed):
    rng = random.Random(seed)
    g, a, b = (random_elem(rng, 2, 3, terms=5, max_den=12) for _ in range(3))
    split = unshuffle(g)
    fsplit, fa, fb = map(fractions_of, (split, a, b))
    assert split.pair_with(a, b) == pairing_oracle(fa, contract_oracle(fsplit, fb, 1))
    assert split.pair_with(a, b) == pairing(shuffle(a, b), g)


@pytest.mark.parametrize("seed", range(4))
def test_store_stays_in_lowest_terms(seed):
    rng = random.Random(seed)
    x, y = (random_elem(rng, 3, 3, terms=6, max_den=12) for _ in range(2))
    for value in (x, y, x + y, x - y, -x, x * F(6, 5), x / 4, x * 0, x - x,
                  x.truncate(1), x.proj(2), antipode(x), grading_d(x),
                  grading_d_inv(x.proj_at_least(1)), TensorElem(3, {(1,): F(4, 6)})):
        assert_canonical(value)
    assert (x * 3 / 3, hash(x * 3 / 3)) == (x, hash(x))
    assert (x * F(-7, 12) / F(-7, 12), hash(x * F(-7, 12) / F(-7, 12))) == (x, hash(x))
    assert ((x + y) - y, hash((x + y) - y)) == (x, hash(x))
    assert (x * 0).is_zero() and x * 0 == zero(3)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / F(0)


def test_absent_keys_read_as_fraction_zero():
    x = TensorElem(2, {(1,): F(1, 3)})
    assert type(x.coeff((2,))) is Fraction and x.coeff((2,)) == 0
    assert type(x.empty_coeff()) is Fraction and x.empty_coeff() == 0
    assert type(x.coeff((1,))) is Fraction and x.coeff((1,)) == F(1, 3)
    split = unshuffle(x)
    assert type(split.coeff((2,), ())) is Fraction and split.coeff((2,), ()) == 0
    pair = random_double(random.Random(0), 2, 2, 2)
    assert type(pair.coeff((1, 1, 1), ())) is Fraction and pair.coeff((1, 1, 1), ()) == 0


# -- packed words -------------------------------------------------------------------
# Inside the store a word is one int: k = d.bit_length() bits per letter.


def _some_words(rng, d):
    """Every word of length <= 3 (<= 2 from d = 8 on), with seeded longer ones."""
    top = 3 if d < 8 else 2
    words = [u for n in range(top + 1) for u in words_of_length(d, n)]
    words += [tuple(rng.randint(1, d) for _ in range(rng.randint(4, 9))) for _ in range(40)]
    return words


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 15, 16, 17])
def test_codes_round_trip_and_sort_as_words_do(d):
    k = d.bit_length()
    words = _some_words(random.Random(d), d)
    codes = {u: encode(u, k) for u in words}
    assert codes[()] == 0
    for u, code in codes.items():
        assert decode(code, k) == u
        assert length(code, k) == len(u)
    # the canonical word order: by length, then lexicographic
    assert sorted(set(words), key=lambda w: (len(w), w)) == [
        decode(code, k) for code in sorted(set(codes.values()))
    ]
    x = TensorElem(d, {u: i + 1 for i, u in enumerate(set(words))})
    assert x.words() == sorted(set(words), key=lambda w: (len(w), w))
    assert [u for u, _ in x.terms()] == x.words()
    assert x.degree() == max(map(len, words)) and x.min_degree() == 0
    assert all(x.coeff(u) for u in words)


@pytest.mark.parametrize(
    "d, word, shown",
    [(2, (5,), "5"), (2, (1, 4), "14"), (3, (0,), "0"), (16, (17,), "[17]"),
     (16, (1, 32), "[1,32]"), (1, (2, 1), "21")],
)
def test_a_letter_beyond_the_packing_raises_the_same_error(d, word, shown):
    message = "word %s uses letters outside 1..%d" % (shown, d)
    for build in (
        lambda: TensorElem(d, {word: 1}),
        lambda: DoubleTensor(d, {(word, ()): 1}),
        lambda: CoproductTerms(d, {((1,), word): 1}),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_a_letter_beyond_the_alphabet_reads_as_zero():
    # at d = 2 (two bits a letter) the letter 5 = 0b101 packs like the word 11
    x = TensorElem(2, {(1, 1): 1, (1,): 2})
    assert x.coeff((5,)) == 0 and x.coeff((1, 1)) == 1
    assert x.coeff((0, 1)) == 0 and x.coeff(("1",)) == 0
    pair = DoubleTensor(2, {((1, 1), ()): 1})
    assert pair.coeff((5,), ()) == 0 and pair.coeff((1, 1), ()) == 1


def _rho_oracle(word):
    """rho as the transpose of r: the coefficient of `word` in r(v) for
    each anagram v of it."""
    out = {}
    for v in set(permutations(word)):
        c = right_bracketing_oracle(v).get(tuple(word), 0)
        if c:
            out[v] = c
    return out


@pytest.mark.parametrize("d", [1, 3, 10, 16])
def test_public_kernels_match_their_oracles_on_packed_alphabets(d):
    rng = random.Random(d)
    words = [tuple(rng.randint(1, d) for _ in range(rng.randint(0, 5))) for _ in range(25)]
    for u in words:
        assert r_word(u) == _nonzero_oracle(right_bracketing_oracle(u)), u
        assert rho_word(u) == rho_word_via_d(u) == _rho_oracle(u), u
        assert unshuffle_word(u) == unshuffle_oracle(u), u
        if len(u) <= 4:
            assert pi1_word(u) == pi1_word_oracle(u), u
            assert pi1_transpose_word(u) == pi1_transpose_oracle(u), u
        for v in words[:8]:
            assert shuffle_words(u, v) == shuffle_oracle(u, v), (u, v)
            if v:
                assert half_shuffle_words(u, v) == _half_shuffle_oracle(u, v), (u, v)


def _nonzero_oracle(table):
    return {u: c for u, c in table.items() if c}


@pytest.mark.parametrize("d", [1, 3, 10, 16])
@pytest.mark.parametrize("seed", range(3))
def test_lifts_match_the_fraction_lifts_on_packed_alphabets(d, seed):
    rng = random.Random(seed)
    _check_products_against_the_fraction_lifts(rng, d)
    x = random_elem(rng, d, 4, terms=6, max_den=12)
    a = random_elem(rng, d, 3, min_deg=1, terms=4, max_den=12)
    fx, fa = fractions_of(x), fractions_of(a)
    low = {u: c for u, c in fa.items() if len(u) <= 3}
    one = {(): Fraction(1)}
    checks = [
        (dynkin_r(x), linear_oracle(fx, right_bracketing_oracle)),
        (rho(x), linear_oracle(fx, _rho_oracle)),
        (pi1(x), linear_oracle(fx, pi1_word_oracle)),
        (pi1_transpose(x), linear_oracle(fx, pi1_transpose_oracle)),
        (unshuffle(x), linear_oracle(fx, unshuffle_oracle)),
        (antipode(x), {u[::-1]: c * (-1) ** len(u) for u, c in fx.items()}),
        (grading_d(x), {u: c * len(u) for u, c in fx.items() if u}),
        (grading_d_inv(a), {u: c / len(u) for u, c in fa.items()}),
        (x.truncate(2), {u: c for u, c in fx.items() if len(u) <= 2}),
        (exp_conc(a, 3), series_oracle(low, one, concat_oracle, 3)),
        (log_conc(unit(d) + a, 3), series_oracle(low, one, concat_oracle, 3, log=True)),
    ]
    for got, expected in checks:
        assert_canonical(got)
        assert fractions_of(got) == expected
    split = unshuffle(x)
    assert split.pair_with(a, x) == pairing(shuffle(a, x), x)


def test_memoised_code_kernels_store_no_zero():
    assert r_word((1, 1)) == {} and r_codes(encode((1, 1), 2), 2) == {}
    assert 0 not in rho_word_via_d((1, 2, 1, 2)).values()
    for d in (1, 2, 3):
        k = d.bit_length()
        for u in all_words(d, 5):
            code = encode(u, k)
            for kernel in (r_codes, rho_codes,
                           pi1_numerators, pi1_transpose_numerators):
                assert 0 not in kernel(code, k).values(), (kernel.__name__, u)


def test_lifts_call_the_shuffle_memo_with_the_pair_in_order(monkeypatch):
    real, seen = shuffle_codes, []

    def spy(u, v, k):
        seen.append((u, v))
        return real(u, v, k)

    monkeypatch.setattr("areasig.words.shuffle_codes", spy)
    rng = random.Random(5)
    x, y = (random_elem(rng, 3, 4, min_deg=1, terms=6) for _ in range(2))
    p, q = (random_double(rng, 3, 3, 2, min_left=1) for _ in range(2))
    shuffle(x, y), area(y, x), half_shuffle(x, y), pi1_transpose(x)
    box_mul(p, q), pre_lie_sym(q, p)
    assert seen and all(u <= v for u, v in seen)

