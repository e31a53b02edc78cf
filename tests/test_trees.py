from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from areasig import (
    area,
    area_eval,
    checks,
    coeff_b,
    coeff_c,
    coeff_e,
    enumerate_mixed,
    enumerate_trees,
    format_tree,
    hall_set,
    lambda_element,
    lambda_via_trees,
    letter_elem,
    lie_bracket,
    lie_eval,
    mixed_eval,
    pairing,
    parse_tree,
    r_element,
    r_via_trees,
    rho,
    rho_hall,
    rho_via_q_trees,
    shuffle,
    signed_form,
    tensor_pair,
    word_elem,
    zeta_via_trees,
)
from areasig import guard
from areasig.errors import ExpressionSyntaxError, TermBudgetExceeded
from areasig.trees import (
    _label_sum,
    _mixed_shapes,
    _plain_shapes,
    is_valid_mixed,
    leaf_count,
)

from conftest import (
    foliage,
    label_sum_oracle,
    lambda_via_trees_oracle,
    q_coefficient_oracle,
    r_via_trees_oracle,
    rho_p_trees_oracle,
    rho_q_trees_oracle,
    zeta_via_trees_oracle,
)

F = Fraction


def catalan(n):
    out = 1
    for i in range(n):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def test_enumeration_counts():
    for n in range(1, 6):
        assert len(enumerate_trees(1, n)) == catalan(n - 1)
        assert len(enumerate_trees(2, n)) == catalan(n - 1) * 2**n
    assert len(enumerate_mixed(1, 2)) == 2
    assert len(enumerate_mixed(1, 3)) == 6


def test_enumeration_is_duplicate_free():
    trees = enumerate_mixed(2, 3)
    assert len(set(trees)) == len(trees)
    for tree in trees:
        assert is_valid_mixed(tree)
        assert leaf_count(tree) == 3


def test_shuffle_crown_constraint():
    assert is_valid_mixed(("s", ("s", 1, 2), ("a", 1, 2)))
    assert not is_valid_mixed(("a", ("s", 1, 2), 1))
    with pytest.raises(ValueError, match="unknown node kind 'x'"):
        is_valid_mixed(("a", 1, ("x", 1, 2)))
    with pytest.raises(ExpressionSyntaxError):
        parse_tree("a(s(1,2),1)")


def _inner_nodes(tree, out):
    if not isinstance(tree, int):
        out.add(tree)
        _inner_nodes(tree[1], out)
        _inner_nodes(tree[2], out)
    return out


@pytest.mark.parametrize("d, n, trees, zero, classes, nodes", [
    (2, 5, 448, 288, 10, 17),
    (3, 4, 405, 165, 30, 42),
])
def test_signed_classes_of_the_labeled_trees(d, n, trees, zero, classes, nodes):
    forms = [signed_form(tree) for tree in enumerate_trees(d, n)]
    canonical = {tree for sign, tree in forms if sign}
    assert len(forms) == trees
    assert sum(not sign for sign, _ in forms) == zero
    assert len(canonical) == classes
    assert len(set().union(*(_inner_nodes(tree, set()) for tree in canonical))) == nodes


def test_signed_form_obeys_the_three_laws():
    assert signed_form(3) == (1, 3)
    assert signed_form(("a", 2, 1)) == (-1, ("a", 1, 2))
    assert signed_form(("a", ("a", 1, 2), 1)) == (-1, ("a", 1, ("a", 1, 2)))
    assert signed_form(("s", ("a", 2, 1), 1)) == (-1, ("s", 1, ("a", 1, 2)))
    assert signed_form(("s", 2, 1)) == (1, ("s", 1, 2))
    for zero in (("a", 1, 1), ("a", ("a", 1, 2), ("a", 2, 1)), ("s", 1, ("a", 2, 2))):
        assert signed_form(zero) == (0, None)
    trees = [t for n in range(1, 5) for t in enumerate_mixed(2, n)] + [
        t for n in range(1, 5) for t in enumerate_trees(3, n)
    ]
    for tree in trees:
        sign, canonical = signed_form(tree)
        image = mixed_eval(tree, 3)
        if not sign:
            assert image.is_zero()
            continue
        assert image == mixed_eval(canonical, 3) * sign
        assert signed_form(canonical) == (1, canonical)
        assert all(signed_form(t) == (1, t) for t in _inner_nodes(canonical, set()))


def test_an_invalid_tree_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="connected to the root"):
            signed_form(("a", 1, ("s", 1, 2)))
        with pytest.raises(ValueError, match="unknown node kind"):
            signed_form(("x", 1, 2))


def test_eval_examples():
    t = ("a", 1, ("a", 2, 3))
    one, two, three = (letter_elem(i, 3) for i in (1, 2, 3))
    assert area_eval(t, 3) == area(one, area(two, three))
    t2 = ("a", ("a", 1, 2), ("a", 3, 3))
    assert lie_eval(t2, 3) == lie_bracket(
        lie_bracket(one, two), lie_bracket(three, three)
    )
    t3 = ("s", 1, ("a", 2, 3))
    assert mixed_eval(t3, 3) == shuffle(one, area(two, three))
    # pure-area trees evaluate the same under both maps
    t4 = ("a", ("a", 1, 2), 3)
    assert mixed_eval(t4, 3) == area_eval(t4, 3)


def test_coefficient_c():
    assert coeff_c(2) == 1
    assert coeff_c(("a", 1, 2)) == 2
    assert coeff_c(("a", 3, ("a", 1, 2))) == 8
    assert coeff_b(1) == 1
    assert coeff_b(("a", 1, 2)) == 1
    assert coeff_b(("a", 3, ("a", 1, 2))) == 2
    # label independence
    assert coeff_c(("a", 1, ("a", 1, 1))) == coeff_c(("a", 2, ("a", 1, 2)))


def test_coefficient_e():
    assert coeff_e(2) == 1
    assert coeff_e(("s", 2, 3)) == F(-1, 4)
    assert coeff_e(("s", 1, ("s", 2, 3))) == F(1, 36)
    t = ("a", 1, 2)
    assert coeff_e(t) == F(1, 2 * coeff_c(t))


def test_tree_text_round_trip():
    for text in ["1", "a(1,2)", "a(a(1,2),3)", "s(1,a(2,3))", "s(s(1,2),a(3,1))"]:
        assert format_tree(parse_tree(text)) == text
    with pytest.raises(ExpressionSyntaxError):
        parse_tree("a(1")
    with pytest.raises(ExpressionSyntaxError):
        parse_tree("b(1,2)")


# (text, message, offset) as parse_tree reported them before it moved onto
# the reader it shares with parse_expression
MALFORMED_TREES = [
    ("", "unexpected end of tree", 0),
    ("  ", "unexpected end of tree", 2),
    ("a(", "unexpected end of tree", 2),
    ("s(", "unexpected end of tree", 2),
    ("a(1", "expected ','", 3),
    ("a(1;2)", "expected ','", 3),
    ("a(1 2)", "expected ','", 4),
    ("a(1,2", "expected ')'", 5),
    ("s(1,2", "expected ')'", 5),
    ("a(1,2,3)", "expected ')'", 5),
    ("b(1,2)", "expected a tree", 0),
    ("A(1,2)", "expected a tree", 0),
    ("a (1,2)", "expected a tree", 0),
    ("(1)", "expected a tree", 0),
    ("-1", "expected a tree", 0),
    ("a(1,)", "expected a tree", 4),
    ("a(,1)", "expected a tree", 2),
    ("0", "letters start at 1", 0),
    ("a(0,1)", "letters start at 1", 2),
    ("a(00,1)", "letters start at 1", 2),
    ("a(1,2))", "trailing input", 6),
    ("a(1,2)x", "trailing input", 6),
    ("s(1,2) 3", "trailing input", 7),
    ("1 2", "trailing input", 2),
    ("a(s(1,2),1)", "shuffle nodes must be connected to the root", 0),
    ("a(1, s(2,3))", "shuffle nodes must be connected to the root", 0),
    ("s(1,a(2,s(1,2)))", "shuffle nodes must be connected to the root", 0),
    # not digits (str.isdigit holds, int() refuses): no offset before these
    ("a(\u00b2,1)", "expected a tree", 2),
    ("a(1\u00b2,1)", "expected ','", 3),
]


@pytest.mark.parametrize("text, message, offset", MALFORMED_TREES)
def test_malformed_tree_message_and_offset(text, message, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_tree(text)
    assert str(err.value) == "%s at offset %d" % (message, offset)
    assert err.value.position == offset


def test_tree_text_blanks_and_long_letters():
    assert parse_tree(" a( 1 , 2 ) ") == ("a", 1, 2)
    assert parse_tree("a(10,2)") == ("a", 10, 2)
    assert parse_tree("12") == 12


def test_every_mixed_tree_round_trips_through_text():
    for tree in enumerate_mixed(3, 4):
        assert parse_tree(format_tree(tree)) == tree


def test_label_sums_match_the_sums_over_labeled_trees():
    # every shape at d <= 3, n <= 4, and the plain shapes at d = 2, n <= 6
    cases = [(d, n, _mixed_shapes(n)) for d in (1, 2, 3) for n in range(1, 5)]
    cases += [(2, n, _plain_shapes(n)) for n in (5, 6)]
    for d, n, shapes in cases:
        for content in combinations_with_replacement(range(1, d + 1), n):
            for shape in shapes:
                block = _label_sum(shape, content, d)
                assert block == label_sum_oracle(shape, content, d)
                # both words of every pair have the block's letter content
                for (u, v), _ in block.terms():
                    assert tuple(sorted(u)) == tuple(sorted(v)) == content


def test_level_expansions_match_the_sums_over_labeled_trees():
    for d in (1, 2, 3):
        for n in range(1, 5):
            assert r_via_trees(d, n) == r_via_trees_oracle(d, n)
            assert lambda_via_trees(d, n) == lambda_via_trees_oracle(d, n)
    for n in (5, 6):
        assert r_via_trees(2, n) == r_via_trees_oracle(2, n)


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
def test_hall_expansions_match_the_sums_over_labeled_trees(kind):
    for d, top in ((2, 5), (3, 4)):
        basis = hall_set(d, top, kind)
        for h in basis.all_hall_words():
            assert zeta_via_trees(basis, h) == zeta_via_trees_oracle(basis, h)
            # the area recursion against the sum over p-weighted trees
            assert rho_hall(basis, h) == rho_p_trees_oracle(basis, h)
            assert rho_via_q_trees(basis, h) == rho_q_trees_oracle(basis, h)


def _refuse_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product ran before the budget check")

    for name in ("pre_lie_sym_sum", "box_bracket_sum", "area_sum", "area"):
        monkeypatch.setattr("areasig.trees." + name, refuse)


def test_level_expansion_checks_the_budget_before_building(monkeypatch):
    _refuse_products(monkeypatch)
    previous = guard.get_term_budget()
    guard.set_term_budget(1000)
    try:
        with pytest.raises(TermBudgetExceeded) as caught:
            r_via_trees(2, 10)
    finally:
        guard.set_term_budget(previous)
    # every shape labeled by every word
    assert caught.value.needed == len(_plain_shapes(10)) * 2**10


def test_hall_expansions_check_the_budget_before_building(monkeypatch):
    basis = hall_set(2, 6)
    h = basis.find((1, 1, 1, 1, 1, 2))
    expansions = [
        (lambda: zeta_via_trees(basis, h), _mixed_shapes(6)),
        (lambda: rho_via_q_trees(basis, h), _plain_shapes(6)),
    ]
    _refuse_products(monkeypatch)
    previous = guard.get_term_budget()
    guard.set_term_budget(100)
    try:
        for expansion, shapes in expansions:
            with pytest.raises(TermBudgetExceeded) as caught:
                expansion()
            # every shape labeled by each of the 6 anagrams of 111112
            assert caught.value.needed == len(shapes) * 6
    finally:
        guard.set_term_budget(previous)


def test_r_via_trees_matches_direct():
    # two labeled cherries at n=2 collapse to a single diagonal pair
    x = word_elem("12", 2) - word_elem("21", 2)
    assert r_via_trees(2, 2) == tensor_pair(x, x)
    assert r_via_trees(2, 1) == r_element(2, 1)
    assert checks.r_tree_expansion(r_element(2, 5), 5)
    assert checks.r_tree_expansion(r_element(3, 4), 4)


def test_lambda_via_trees_matches_log():
    assert checks.lambda_tree_expansion(lambda_element(2, 4), 4)


@pytest.mark.parametrize("kind", ["lyndon", "standard_hall"])
def test_rho_hall_methods(kind):
    # the recursion and the q-tree sum agree with rho of the dual element
    # across the full stated ranges; the p-tree sum is its conftest oracle
    for d, top in ((2, 5), (3, 4)):
        basis = hall_set(d, top, kind)
        for h in basis.all_hall_words():
            recursion = rho_hall(basis, h, "recursion")
            assert recursion == rho_via_q_trees(basis, h)
            assert recursion == rho(basis.dual_pbw(h))


def test_rho_hall_area_forms():
    basis = hall_set(2, 4)
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    h112 = basis.find((1, 1, 2))
    assert rho_hall(basis, h112) == area(one, area(one, two)) * F(1, 2)
    h1222 = basis.find((1, 2, 2, 2))
    assert rho_hall(basis, h1222) == area(area(area(one, two), two), two) * F(1, 6)


def test_hall_tree_delta_property():
    # on trees mirroring a hall factorization, both coefficient families
    # are kronecker deltas against the hall words
    basis = hall_set(2, 4)
    for h in basis.all_hall_words():
        if len(h) > 4:
            continue
        tree = h.tree
        assert foliage(tree) == h.word
        for h0 in basis.level(len(h)):
            expected = F(1 if h0 == h else 0)
            assert q_coefficient_oracle(basis, tree, h0) == expected
            assert pairing(basis.dual_pbw(h0), lie_eval(tree, 2)) == expected


def test_zeta_via_trees():
    basis = hall_set(2, 5)
    h12 = basis.find((1, 2))
    assert zeta_via_trees(basis, h12) == (
        word_elem("12", 2) - word_elem("21", 2)
    ) * F(1, 2)
    # every table row through level five
    assert checks.zeta_via_trees_agrees(basis, 5)
