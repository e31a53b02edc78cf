import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from areasig import (
    AlphabetMismatch,
    CoproductTerms,
    DoubleTensor,
    EmptyWordOperand,
    TensorElem,
    TermBudgetExceeded,
    area,
    box_bracket,
    box_bracket_sum,
    box_mul,
    checks,
    coeval_at,
    concat,
    dendriform,
    eval_at,
    exp_box,
    grading_d,
    grading_d_inv,
    hall_set,
    lambda_element,
    letter_elem,
    lie_bracket,
    log_box,
    nested_box_bracket,
    pre_lie,
    pre_lie_sum,
    pre_lie_sym,
    pre_lie_sym_sum,
    r_element,
    rho,
    rho_hall,
    s_element,
    shuffle,
    signature_pwl,
    tensor_pair,
    unshuffle,
    word_elem,
    zero,
)
from areasig import double_tensor, guard
from areasig.double_tensor import r_hat, unit_double, zero_double
from areasig.discrete import TimeSeries
from areasig.tensor import _bilinear, linear_combination, words_of_length

from conftest import (
    assert_canonical,
    bilinear_oracle,
    contract_oracle,
    fractions_of,
    random_double,
    random_elem,
    right_bracketing_oracle,
    series_oracle,
    shuffle_oracle,
)

F = Fraction


def pair_of_letters(i, j, d=2):
    return tensor_pair(letter_elem(i, d), letter_elem(j, d))


def test_box_mul_examples():
    a = pair_of_letters(1, 1)
    b = pair_of_letters(2, 2)
    product = box_mul(a, b)
    assert product == tensor_pair(
        word_elem("12", 2) + word_elem("21", 2), word_elem("12", 2)
    )
    assert box_mul(unit_double(2), product) == product
    assert box_mul(a, a) == tensor_pair(word_elem("11", 2) * 2, word_elem("11", 2))


def test_products_truncate_only_at_their_level_argument():
    # a value carries no truncation level of its own
    a = tensor_pair(letter_elem(1, 2), letter_elem(1, 2), level=1)
    assert box_mul(a, a) == tensor_pair(word_elem("11", 2) * 2, word_elem("11", 2))
    assert box_mul(a, a, 1).is_zero()


def test_dendriform_halves():
    a = pair_of_letters(1, 1)
    b = pair_of_letters(2, 2)
    succ = dendriform(a, b, "succ")
    prec = dendriform(a, b, "prec")
    assert succ == tensor_pair(word_elem("12", 2), word_elem("12", 2))
    assert prec == tensor_pair(word_elem("21", 2), word_elem("12", 2))
    assert succ + prec == box_mul(a, b)


def test_dendriform_rejects_empty_left_factor():
    a = pair_of_letters(1, 1)
    e = unit_double(2)
    with pytest.raises(EmptyWordOperand):
        dendriform(a, e, "succ")
    with pytest.raises(EmptyWordOperand):
        dendriform(e, a, "prec")
    # both orders of pre_lie_sym half-shuffle into a right operand's left word
    for x, y in ((a, e), (e, a)):
        with pytest.raises(EmptyWordOperand) as caught:
            pre_lie_sym(x, y)
        assert str(caught.value) == (
            "pre-Lie right operand must have empty-word-free left factors"
        )


def test_pre_lie_examples():
    a = pair_of_letters(1, 1)
    b = pair_of_letters(2, 2)
    x = word_elem("12", 2) - word_elem("21", 2)
    assert pre_lie(a, b) == tensor_pair(word_elem("12", 2), x)
    assert pre_lie_sym(a, b) == tensor_pair(x, x)
    assert pre_lie_sym(a, b) == pre_lie_sym(b, a)
    assert pre_lie_sym(a, a) == pre_lie(a, a) * 2


def test_box_bracket():
    a = pair_of_letters(1, 1)
    b = pair_of_letters(2, 2)
    x = word_elem("12", 2) - word_elem("21", 2)
    got = box_bracket(a, b)
    assert got == tensor_pair(word_elem("12", 2) + word_elem("21", 2), x)
    assert got == box_mul(a, b) - box_mul(b, a)
    assert got == pre_lie(a, b) - pre_lie(b, a)
    assert box_bracket(a, a).is_zero()
    assert (box_bracket(a, b) + box_bracket(b, a)).is_zero()


def test_s_element():
    s = s_element(2, 1)
    assert s == unit_double(2) + pair_of_letters(1, 1) + pair_of_letters(2, 2)
    s3 = s_element(2, 3)
    assert len(s3.proj(3)) == 8
    x = word_elem("12", 2) - word_elem("21", 2)
    assert eval_at(x, s_element(2, 2)) == x


def test_r_element_values():
    r1 = r_element(2, 1)
    assert r1 == pair_of_letters(1, 1) + pair_of_letters(2, 2)
    r = r_element(2, 3)
    x = word_elem("12", 2) - word_elem("21", 2)
    assert r.proj(2) == tensor_pair(x, x)
    # doubled level three part equals the symmetrized product of lower parts
    assert r.proj(3) * 2 == pre_lie_sym(r.proj(1), r.proj(2))


def test_r_element_methods_agree():
    for d, level in ((2, 5), (3, 3)):
        assert checks.r_recursion_agrees(r_element(d, level), level)


def test_coeval_recovers_rho():
    r = r_element(2, 4)
    for n in range(1, 5):
        for w in words_of_length(2, n):
            assert coeval_at(word_elem(w, 2), r) == rho(word_elem(w, 2))


def test_eval_at_pre_lie_example():
    got = eval_at(word_elem("12", 2), pre_lie(pair_of_letters(1, 1), pair_of_letters(2, 2)))
    assert got == word_elem("12", 2) - word_elem("21", 2)


def test_eval_homomorphism_on_grouplike():
    g = signature_pwl(TimeSeries([(0, 0), (1, 2), (3, 1)]), 3)
    a = r_element(2, 3)
    b = s_element(2, 3)
    assert eval_at(g, box_mul(a, b)) == concat(eval_at(g, a), eval_at(g, b), 3)


def test_fixed_point_identities():
    for d, level in ((2, 5), (3, 4)):
        r = r_element(d, level)
        assert checks.quadratic_fixed_point(r, level)
        assert checks.symmetrized_fixed_point(r, level)


def test_s_as_iterated_application():
    r = r_element(2, 5)
    acc = unit_double(2)
    z = unit_double(2)
    while True:
        z = box_mul(r, z, 5)
        if z.is_zero():
            break
        z = grading_d_inv(z)
        acc = acc + z
    assert acc == s_element(2, 5)


def test_r_hat_of_s_is_r():
    assert r_hat(s_element(2, 4)) == r_element(2, 4)


def test_r_element_terms_run_by_right_length_right_word_then_left_word():
    assert list(r_element(2, 2).terms()) == [
        (((1,), (1,)), 1),
        (((2,), (2,)), 1),
        (((1, 2), (1, 2)), 1),
        (((2, 1), (1, 2)), -1),
        (((1, 2), (2, 1)), -1),
        (((2, 1), (2, 1)), 1),
    ]
    assert repr(r_element(2, 2)) == (
        "<DoubleTensor d=2 1*(1)x(1) + 1*(2)x(2) + 1*(12)x(12)"
        " + -1*(21)x(12) + -1*(12)x(21) + 1*(21)x(21)>"
    )


def test_exp_box_example():
    x = pair_of_letters(1, 1)
    got = exp_box(x, 2)
    expected = (
        unit_double(2)
        + x
        + tensor_pair(word_elem("11", 2), word_elem("11", 2))
    )
    assert got == expected


def test_log_box_of_s():
    lam = log_box(s_element(2, 2), 2)
    x = word_elem("12", 2) - word_elem("21", 2)
    expected = (
        pair_of_letters(1, 1)
        + pair_of_letters(2, 2)
        + tensor_pair(x, x) * F(1, 2)
    )
    assert lam == expected


def test_exp_log_round_trip():
    x = (
        pair_of_letters(1, 1)
        + tensor_pair(word_elem("12", 2), word_elem("21", 2)) * F(1, 3)
        + tensor_pair(word_elem("2", 2), word_elem("12", 2)) * F(-2, 5)
    )
    assert log_box(exp_box(x, 4), 4) == x.truncate(4)
    with pytest.raises(EmptyWordOperand):
        exp_box(unit_double(2), 3)
    with pytest.raises(ValueError):
        log_box(pair_of_letters(1, 1), 3)


def test_lambda_methods_agree():
    for d, level in ((2, 5), (3, 3)):
        assert checks.lambda_recursion_agrees(lambda_element(d, level), level)


def test_lambda_example_values():
    lam = lambda_element(2, 4)
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    ar, br = area(one, two), lie_bracket(one, two)
    assert lam.proj(1) == r_element(2, 1)
    assert lam.proj(2) == tensor_pair(ar, br) * F(1, 2)
    level3 = (
        tensor_pair(area(one, ar), lie_bracket(one, br)) * F(1, 6)
        + tensor_pair(area(two, ar), lie_bracket(two, br)) * F(1, 6)
        - tensor_pair(shuffle(one, ar), lie_bracket(one, br)) * F(1, 12)
        - tensor_pair(shuffle(two, ar), lie_bracket(two, br)) * F(1, 12)
    )
    assert lam.proj(3) == level3


def test_lambda_hall_decomposition():
    basis = hall_set(2, 4)
    lam = lambda_element(2, 4)
    for h in basis.all_hall_words():
        # projecting the right factors onto the basis recovers each zeta
        assert coeval_at(basis.dual_pbw(h), lam) == basis.zeta(h)
    combined = checks.coordinate_element(basis, 4)
    assert lam == combined
    assert checks.exp_reproduces_diagonal(combined, 4)


def test_r_from_lambda_series():
    lam = lambda_element(2, 5)
    r = r_element(2, 5)
    term = grading_d(lam)
    total = zero_double(2)
    for n in range(1, 6):
        total = total + term * F(1, math.factorial(n))
        term = box_bracket(lam, term, 5)
    assert total == r


def test_nested_box_bracket():
    a = pair_of_letters(1, 1)
    b = pair_of_letters(2, 2)
    c = tensor_pair(word_elem("12", 2), word_elem("12", 2))
    assert nested_box_bracket([a]) == a
    assert nested_box_bracket([a, b]) == box_bracket(a, b)
    assert nested_box_bracket([a, b, c]) == box_bracket(a, box_bracket(b, c))


def test_baker_identity():
    # bracketing against a primitive element commutes with right-bracketing
    rng = random.Random(12)
    basis = hall_set(2, 4)
    for _ in range(6):
        # primitive: left factor anything, right factor a Lie element
        lie_part = zero(2)
        for h in basis.all_hall_words():
            if rng.random() < 0.4:
                lie_part = lie_part + basis.bracketing(h) * F(
                    rng.randint(-2, 2), rng.randint(1, 3)
                )
        left = random_elem(rng, 2, 2)
        if lie_part.is_zero() or left.is_zero():
            continue
        primitive = tensor_pair(left, lie_part, 4)
        q = tensor_pair(
            random_elem(rng, 2, 2), random_elem(rng, 2, 3, min_deg=1), 4
        )
        assert r_hat(box_mul(primitive, q, 4)) == box_bracket(
            primitive, r_hat(q), 4
        )


def test_json_ordering():
    x = tensor_pair(word_elem("12", 2), word_elem("2", 2)) + unit_double(2)
    data = x.to_json_obj()
    assert data[0]["right"] == "e"
    assert data[1] == {"left": "12", "right": "2", "num": "1", "den": "1"}


def test_values_refuse_attribute_assignment():
    pair = tensor_pair(word_elem("12", 2), word_elem("21", 2), level=3)
    before = hash(pair)
    for value in (pair, unshuffle(word_elem("12", 2)), word_elem("12", 2)):
        for name in ("dim", "level", "_terms", "_pairs"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
    assert hash(pair) == before
    assert pair == tensor_pair(word_elem("12", 2), word_elem("21", 2))


@pytest.mark.parametrize("kind", [DoubleTensor, CoproductTerms])
@pytest.mark.parametrize(
    "key, bad", [(((5,), (1,)), "5"), (((1,), (2, 7)), "27")], ids=["left", "right"]
)
def test_pair_keys_use_only_alphabet_letters(kind, key, bad):
    with pytest.raises(ValueError, match="word %s uses letters outside 1..2" % bad):
        kind(2, {key: 1})


def _one_of_each_kind():
    word = word_elem("12", 2)
    return word, tensor_pair(word, word), unshuffle(word)


def test_values_of_different_kinds_do_not_add():
    values = _one_of_each_kind()
    for a in values:
        for b in values:
            if a is b:
                continue
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b


def test_values_of_different_kinds_are_unequal():
    values = _one_of_each_kind()
    for a in values:
        for b in values:
            assert (a == b) is (a is b)
    # both kinds key their terms by word pairs, so only the kind tells them apart
    pair = {((1,), (2,)): 1}
    assert DoubleTensor(2, pair) != CoproductTerms(2, pair)


FOUR_WORDS = [(1,), (2,), (1, 2), (2, 1)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: TensorElem(2, {w: 1 for w in FOUR_WORDS}),
        lambda: DoubleTensor(2, {(w, w): 1 for w in FOUR_WORDS}),
        lambda: CoproductTerms(2, {(w, ()): 1 for w in FOUR_WORDS}),
    ],
    ids=["TensorElem", "DoubleTensor", "CoproductTerms"],
)
def test_each_kind_obeys_the_term_budget(build):
    assert len(build()) == 4
    previous = guard.get_term_budget()
    guard.set_term_budget(3)
    try:
        with pytest.raises(TermBudgetExceeded):
            build()
    finally:
        guard.set_term_budget(previous)


def test_removed_method_aliases_are_rejected():
    with pytest.raises(TypeError):
        rho(word_elem("12", 2), "via_d")
    with pytest.raises(ValueError, match="unknown lambda_element method"):
        lambda_element(2, 2, "log_of_S")
    basis = hall_set(2, 3)
    h = basis.find((1, 1, 2))
    for method in ("q_trees", "p_trees"):
        with pytest.raises(ValueError, match="unknown rho_hall method"):
            rho_hall(basis, h, method)


# -- int numerators against the Fraction lifts ----------------------------------


def _right_grade(key):
    return len(key[1])


def _pair_op(left_op, right_op):
    def op(p, q):
        rights = right_op(p[1], q[1])
        return {
            (left, right): lk * rk
            for left, lk in left_op(p[0], q[0]).items()
            for right, rk in rights.items()
        }

    return op


def _half_shuffle(u, v):
    return {s + v[-1:]: k for s, k in shuffle_oracle(u, v[:-1]).items()}


def _bracket(u, v):
    return {} if u + v == v + u else {u + v: 1, v + u: -1}


def _concat(u, v):
    return {u + v: 1}


BOX = _pair_op(shuffle_oracle, _concat)


def _box_oracle(a, b, level):
    return bilinear_oracle(a, b, BOX, level, _right_grade)


def _area(u, v):
    ab, ba = _half_shuffle(u, v), _half_shuffle(v, u)
    return {w: ab.get(w, 0) - ba.get(w, 0) for w in ab.keys() | ba.keys()}


@pytest.mark.parametrize("seed", range(6))
def test_double_products_match_the_fraction_lifts(seed):
    for d in (2, 3):
        _check_double_products_against_the_fraction_lifts(random.Random(seed), d)


@pytest.mark.parametrize("d", [1, 10, 16])
@pytest.mark.parametrize("seed", range(3))
def test_double_products_match_the_fraction_lifts_on_packed_alphabets(d, seed):
    # one and four or five bits a letter; the letters 10..16 have two digits
    _check_double_products_against_the_fraction_lifts(random.Random(seed), d)
    level = 3 if d == 1 else 2
    diagonal = s_element(d, level)
    assert fractions_of(diagonal) == {
        (u, u): 1 for n in range(level + 1) for u in words_of_length(d, n)
    }
    assert fractions_of(r_hat(diagonal)) == {
        (u, v): Fraction(c)
        for n in range(level + 1)
        for u in words_of_length(d, n)
        for v, c in right_bracketing_oracle(u).items()
    }
    assert r_element(d, level) == r_element(d, level, "recursion")


def _check_double_products_against_the_fraction_lifts(rng, d):
    a = random_double(rng, d, 2, 2)
    b = random_double(rng, d, 2, 2, min_left=1)
    c = random_double(rng, d, 2, 2, min_left=1)
    fa = fractions_of(a)
    products = [
        (a, b, box_mul, BOX),
        (a, b, lambda x, y, level: dendriform(x, y, "succ", level),
         _pair_op(_half_shuffle, _concat)),
        (c, a, lambda x, y, level: dendriform(x, y, "prec", level),
         _pair_op(lambda u, v: _half_shuffle(v, u), _concat)),
        (a, b, pre_lie, _pair_op(_half_shuffle, _bracket)),
        (c, b, pre_lie_sym, _pair_op(_area, _bracket)),
        (a, b, box_bracket, _pair_op(shuffle_oracle, _bracket)),
    ]
    for x, y, product, op in products:
        fx, fy = fractions_of(x), fractions_of(y)
        for level in (None, 0, 1, 2, 3):
            got = product(x, y, level)
            assert_canonical(got)
            assert fractions_of(got) == bilinear_oracle(fx, fy, op, level, _right_grade)
    x = random_elem(rng, d, 2, terms=4, max_den=12)
    y = random_elem(rng, d, 3, terms=4, max_den=12)
    fx, fy = fractions_of(x), fractions_of(y)
    for level in (None, 0, 1, 2):
        got = tensor_pair(x, y, level)
        assert_canonical(got)
        low = {v: c for v, c in fy.items() if level is None or len(v) <= level}
        assert fractions_of(got) == bilinear_oracle(fx, low, lambda u, v: {(u, v): 1})
    for got, expected in [
        (eval_at(x, a), contract_oracle(fa, fx, 0)),
        (coeval_at(y, a), contract_oracle(fa, fy, 1)),
    ]:
        assert_canonical(got)
        assert fractions_of(got) == expected


_LEFT_RULES = {
    None: shuffle_oracle,
    0: lambda u, v: _half_shuffle(v, u),
    1: _half_shuffle,
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cut", [None, 0, 1])
@pytest.mark.parametrize("bracket", [False, True])
def test_multi_pair_bilinear_is_the_sum_of_its_pair_products(d, cut, bracket):
    rng = random.Random("%s %s %s" % (d, cut, bracket))
    op = _pair_op(_LEFT_RULES[cut], _bracket if bracket else _concat)
    scalars = (1, -3, 0, F(2, 5), F(-7, 4))
    values = [random_double(rng, d, 2, 2, min_left=1) for _ in range(3)]
    pairs = [(rng.choice(values), rng.choice(values), rng.choice(scalars)) for _ in range(4)]
    for level in (None, 1, 3):
        got = _bilinear(DoubleTensor, d, iter(pairs), cut, bracket, level)
        assert_canonical(got)
        expected = {}
        for a, b, s in pairs:
            for key, c in bilinear_oracle(
                fractions_of(a), fractions_of(b), op, level, _right_grade
            ).items():
                expected[key] = expected.get(key, 0) + s * c
        assert fractions_of(got) == {key: c for key, c in expected.items() if c}
        one_by_one = linear_combination(zero_double(d), (
            (_bilinear(DoubleTensor, d, [(a, b, 1)], cut, bracket, level), s)
            for a, b, s in pairs
        ))
        assert got == one_by_one
    assert _bilinear(DoubleTensor, d, [], cut, bracket) == zero_double(d)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_pre_lie_sym_sum_is_the_sum_of_both_pre_lie_orders(d):
    def oracle(a, b, level):
        return pre_lie(a, b, level) + pre_lie(b, a, level)

    rng = random.Random(60 + d)
    # left words that end in one letter, with an empty and a nonempty head
    top = DoubleTensor(d, {((d,), (1,)): F(1, 2), ((1, d), (d,)): 3, ((d, d), (1, d)): F(-2, 5)})
    values = [random_double(rng, d, 3, 2, min_left=1, terms=5) for _ in range(3)] + [top]
    values.append(values[0] * 3 + top)  # shares words with values[0] and top
    pairs = [(rng.choice(values), rng.choice(values), F(rng.randint(-3, 3), rng.randint(1, 4)))
             for _ in range(6)]
    pairs += [(values[1], values[1], 1), (top, values[4], 2)]
    for level in (None, 1, 2, 3):
        for a, b, _ in pairs:
            assert pre_lie_sym(a, b, level) == oracle(a, b, level)
        got = pre_lie_sym_sum(d, pairs, level)
        assert_canonical(got)
        assert got == linear_combination(zero_double(d), (
            (oracle(a, b, level), s) for a, b, s in pairs
        ))
    assert pre_lie_sym_sum(d, [], 2) == zero_double(d)
    with_empty = DoubleTensor(d, {((), (1,)): 1})
    for bad in ([(values[0], with_empty, 0)], [(with_empty, values[0], 1)]):
        with pytest.raises(EmptyWordOperand, match="^pre-Lie right operand must have "
                                                   "empty-word-free left factors$"):
            pre_lie_sym_sum(d, bad)


def test_pre_lie_and_box_bracket_sums_are_sums_of_their_products():
    rng = random.Random(12)
    values = [random_double(rng, 3, 2, 2, min_left=1) for _ in range(4)]
    pairs = [(rng.choice(values), rng.choice(values), F(rng.randint(-3, 3), 4)) for _ in range(5)]
    for fused, single in ((pre_lie_sum, pre_lie), (box_bracket_sum, box_bracket)):
        for level in (None, 2):
            expected = linear_combination(zero_double(3), (
                (single(a, b, level), s) for a, b, s in pairs
            ))
            assert fused(3, pairs, level) == expected
    with_empty = DoubleTensor(3, {((), (1,)): 1})
    with pytest.raises(EmptyWordOperand):
        pre_lie_sum(3, [(values[0], values[1], 1), (values[0], with_empty, 0)])
    with pytest.raises(AlphabetMismatch):
        box_bracket_sum(3, [(values[0], random_double(rng, 2, 1, 1), 1)])


@pytest.mark.parametrize("seed", range(4))
def test_double_products_that_cancel_are_canonical(seed):
    rng = random.Random(seed)
    a = random_double(rng, 3, 2, 2, min_left=1, terms=6)
    b = random_double(rng, 3, 2, 2, min_left=1, terms=6)
    # a pair's own commutator cancels term by term inside the accumulator
    for got in (box_bracket(a, a), box_bracket(a, a, 2)):
        assert_canonical(got)
        assert got.is_zero() and got._den == 1
    # so does a's part of a + b, leaving the (a, b) terms in lowest terms
    for level in (None, 2):
        got = box_bracket(a, a + b * 6, level)
        assert_canonical(got)
        assert got == box_bracket(a, b, level) * 6
    # equal right words bracket to zero whatever the denominators
    p = DoubleTensor(2, {((1,), (1,)): F(1, 6), ((2, 1), (1,)): F(5, 4)})
    q = DoubleTensor(2, {((2,), (1,)): F(2, 3)})
    for got in (pre_lie(p, q), pre_lie_sym(p, q), box_bracket(p, q)):
        assert_canonical(got)
        assert got.is_zero() and got._den == 1
    assert dendriform(a, b, "succ") + dendriform(a, b, "prec") == box_mul(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_double_series_match_the_fraction_lifts(seed):
    rng = random.Random(seed)
    x = random_double(rng, 2, 1, 2, min_right=1, terms=3)
    one = {((), ()): F(1)}
    for level in (1, 2, 3):
        low = {k: c for k, c in fractions_of(x).items() if len(k[1]) <= level}
        for got, log in [(exp_box(x, level), False), (log_box(unit_double(2) + x, level), True)]:
            assert_canonical(got)
            assert fractions_of(got) == series_oracle(low, one, _box_oracle, level, log)


def test_r_element_json_is_as_recorded():
    # byte pins: a change here is a change of the JSON or repr format
    text = json.dumps(r_element(2, 3).to_json_obj())
    assert len(text) == 1018
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bd91437a57a2f724d2befc77ed1e415af3fdee5779d0d9228925ff48b1d98ebb")
    assert text.startswith('[{"left": "1", "right": "1", "num": "1", "den": "1"}, ')
    assert repr(r_element(2, 2)) == (
        "<DoubleTensor d=2 1*(1)x(1) + 1*(2)x(2) + 1*(12)x(12) + -1*(21)x(12)"
        " + -1*(12)x(21) + 1*(21)x(21)>")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
def test_a_pair_coefficient_too_long_to_write_is_named():
    f = DoubleTensor(2, {((1,), (1,)): 10**5000})
    message = "coefficient of word pair (1)x(1) has more than %d digits" % (
        sys.get_int_max_str_digits())
    with pytest.raises(ValueError, match=re.escape(message)):
        f.to_json_obj()
    with pytest.raises(ValueError, match=re.escape(message)):
        repr(f)


def test_lambda_recursion_builds_each_tail_bracket_once(monkeypatch):
    calls = []
    kernel = double_tensor.box_bracket

    def spy(a, b, level=None):
        calls.append(level)
        return kernel(a, b, level)

    monkeypatch.setattr(double_tensor, "box_bracket", spy)
    got = lambda_element(2, 6, "recursion")
    # 72 inner brackets over the compositions of levels 2 to 6, 26 distinct tails
    assert len(calls) == 26
    assert got == lambda_element(2, 6)
