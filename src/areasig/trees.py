"""Leaf-labeled binary planar trees and their tree-indexed expansions.

A tree is a letter (int) at a leaf or a node ('a', left, right) bracketing
with the area operation; mixed trees additionally use ('s', left, right)
nodes that multiply with the shuffle.  Shuffle nodes may only appear where
every ancestor is a shuffle node, so they form a crown containing the root.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial
from typing import TYPE_CHECKING

from .double_tensor import DoubleTensor, tensor_pair, zero_double
from .errors import ExpressionSyntaxError, _Reader, is_digit
from .guard import check_term_budget
from .memo import memo, memo_per_owner
from .tensor import (
    TensorElem,
    area,
    letter_elem,
    lie_bracket,
    linear_combination,
    pairing,
    shuffle,
)

if TYPE_CHECKING:
    from .hall import HallBasis, HallWord

AREA = "a"
SHUFFLE = "s"


def is_leaf(tree) -> bool:
    return isinstance(tree, int)


def leaf_count(tree) -> int:
    if is_leaf(tree):
        return 1
    return leaf_count(tree[1]) + leaf_count(tree[2])


def is_valid_mixed(tree, under_area=False) -> bool:
    if is_leaf(tree):
        return True
    kind, left, right = tree
    if kind not in (AREA, SHUFFLE):
        raise ValueError("unknown node kind %r" % (kind,))
    if kind == SHUFFLE and under_area:
        return False
    below = under_area or kind == AREA
    return is_valid_mixed(left, below) and is_valid_mixed(right, below)


# -- enumeration -------------------------------------------------------------

_HOLE = 0  # leaf placeholder in shapes


@memo
def _plain_shapes(n):
    if n == 1:
        return [_HOLE]
    return [
        (AREA, left, right)
        for k in range(1, n)
        for left in _plain_shapes(k)
        for right in _plain_shapes(n - k)
    ]


@memo
def _mixed_shapes(n):
    # An area-rooted mixed tree cannot contain shuffle nodes at all, so the
    # shapes split into the plain ones and shuffle-rooted combinations.
    out = list(_plain_shapes(n))
    for k in range(1, n):
        for left in _mixed_shapes(k):
            for right in _mixed_shapes(n - k):
                out.append((SHUFFLE, left, right))
    return out


def _label(shape, it):
    """The shape with its leaves, left to right, replaced from `it`."""
    if is_leaf(shape):
        return next(it)
    kind, left, right = shape
    return (kind, _label(left, it), _label(right, it))


def _multinomial(word):
    """How many distinct anagrams `word` has."""
    count = factorial(len(word))
    for repeats in Counter(word).values():
        count //= factorial(repeats)
    return count


def _anagrams(word):
    """The distinct anagrams of `word` in lexicographic order, each one
    found from the last by the next-permutation step."""
    letters = sorted(word)
    while True:
        yield tuple(letters)
        i = len(letters) - 2
        while i >= 0 and letters[i] >= letters[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(letters) - 1
        while letters[j] <= letters[i]:
            j -= 1
        letters[i], letters[j] = letters[j], letters[i]
        letters[i + 1 :] = reversed(letters[i + 1 :])


def _labeled(shapes, d, n, word=None):
    """(shape, tree) for each shape labeled by each word of length n over
    1..d, canonical order; given a `word`, by its sorted anagrams alone.

    The dual s(h) of a Hall word h pairs to zero with a tree of other
    letter content, and so does _q_coefficient, as bracket terms keep
    content: so the expansions at h label by the anagrams of h."""
    if n < 1:
        raise ValueError("need n >= 1")
    if word is None:
        check_term_budget(len(shapes) * d**n)
        labelings = list(product(range(1, d + 1), repeat=n))
    else:
        check_term_budget(len(shapes) * _multinomial(word))
        labelings = list(_anagrams(word))
    return [
        (shape, _label(shape, iter(letters)))
        for shape in shapes
        for letters in labelings
    ]


def enumerate_trees(d: int, n: int):
    """All area trees with n leaves labeled from 1..d, canonical order."""
    return [tree for _, tree in _labeled(_plain_shapes(n), d, n)]


def enumerate_mixed(d: int, n: int):
    return [tree for _, tree in _labeled(_mixed_shapes(n), d, n)]


# -- evaluation ---------------------------------------------------------------

_OPS = {
    "area": {AREA: area, SHUFFLE: area},
    "lie": {AREA: lie_bracket, SHUFFLE: lie_bracket},
    "mixed": {AREA: area, SHUFFLE: shuffle},
}


@memo
def _eval(tree, dim, mode) -> TensorElem:
    if is_leaf(tree):
        return letter_elem(tree, dim)
    kind, left, right = tree
    return _OPS[mode][kind](_eval(left, dim, mode), _eval(right, dim, mode))


def area_eval(tree, dim: int) -> TensorElem:
    """Bracket out with the area operation at every node."""
    return _eval(tree, dim, "area")


def lie_eval(tree, dim: int) -> TensorElem:
    """Bracket out with the Lie bracket at every node (both node kinds)."""
    return _eval(tree, dim, "lie")


def mixed_eval(tree, dim: int) -> TensorElem:
    """Area at round nodes, shuffle at square nodes."""
    return _eval(tree, dim, "mixed")


# -- coefficients --------------------------------------------------------------

def coeff_c(tree) -> int:
    """Symmetric label-independent weight: coeff_b doubled at every inner node."""
    return coeff_b(tree) * 2 ** (leaf_count(tree) - 1)


@memo
def coeff_b(tree) -> int:
    """Product over inner nodes of (leaves below the node - 1)."""
    if is_leaf(tree):
        return 1
    _, left, right = tree
    return coeff_b(left) * coeff_b(right) * (leaf_count(left) + leaf_count(right) - 1)


def _shuffle_spine(tree):
    """Peel the right spine of shuffle nodes: tree = t1 -s-> (t2 -s-> ...)."""
    parts = []
    cur = tree
    while not is_leaf(cur) and cur[0] == SHUFFLE:
        parts.append(cur[1])
        cur = cur[2]
    parts.append(cur)
    return parts


def _regraft(parts):
    cur = parts[-1]
    for part in reversed(parts[:-1]):
        cur = (SHUFFLE, part, cur)
    return cur


@memo
def coeff_e(tree) -> Fraction:
    """Rational weight of a mixed tree in the logarithm expansion.

    Area-rooted trees weigh 1/(n c); shuffle-rooted trees recurse through
    the factorization along their right spine of shuffle nodes.
    """
    if is_leaf(tree):
        return Fraction(1)
    if tree[0] == AREA:
        return Fraction(1, leaf_count(tree) * coeff_c(tree))
    parts = _shuffle_spine(tree)
    ell = len(parts)
    n = leaf_count(tree)
    total = Fraction(0)
    fact = 1
    prefix = Fraction(1)
    for j in range(2, ell + 1):
        fact *= j
        prefix *= coeff_e(parts[j - 2])
        tail = parts[ell - 1] if j == ell else _regraft(parts[j - 1 :])
        total += Fraction(leaf_count(tail), fact * n) * coeff_e(tail) * prefix
    return -total


# -- text form -----------------------------------------------------------------


def format_tree(tree) -> str:
    if is_leaf(tree):
        return str(tree)
    kind, left, right = tree
    return "%s(%s,%s)" % (kind, format_tree(left), format_tree(right))


def parse_tree(text: str):
    """Parse the a(x,y)/s(x,y) syntax; round-trips with format_tree."""

    def node(r):
        ch = r.peek()
        if not ch:
            r.error("unexpected end of tree")
        if ch in (AREA, SHUFFLE) and r.text.startswith("(", r.pos + 1):
            r.pos += 2
            left = node(r)
            r.expect(",")
            right = node(r)
            r.expect(")")
            return (ch, left, right)
        if is_digit(ch):
            start = r.pos
            letter = r.number()
            if letter < 1:
                r.error("letters start at 1", start)
            return letter
        r.error("expected a tree")

    tree = _Reader(text).read_all(node, "tree")
    if not is_valid_mixed(tree):
        raise ExpressionSyntaxError("shuffle nodes must be connected to the root", 0)
    return tree


# -- tree-indexed expansions -----------------------------------------------------


# The weights coeff_b, coeff_c and coeff_e depend on a tree's shape alone,
# so the expansions below weigh each shape once and then label it.


def r_via_trees(d: int, n: int) -> DoubleTensor:
    """Level-n part of the right-bracketing element as a sum over area trees."""
    trees = _labeled(_plain_shapes(n), d, n)
    weights = {shape: Fraction(1, coeff_c(shape)) for shape in _plain_shapes(n)}
    return linear_combination(zero_double(d), (
        (tensor_pair(area_eval(tree, d), lie_eval(tree, d)), weights[shape])
        for shape, tree in trees
    ))


def lambda_via_trees(d: int, n: int) -> DoubleTensor:
    """Level-n part of the logarithm element as a sum over mixed trees."""
    trees = _labeled(_mixed_shapes(n), d, n)
    weights = {shape: coeff_e(shape) for shape in _mixed_shapes(n)}
    return linear_combination(zero_double(d), (
        (tensor_pair(mixed_eval(tree, d), lie_eval(tree, d)), weight)
        for shape, tree in trees
        if (weight := weights[shape])
    ))


def zeta_via_trees(basis: HallBasis, h: HallWord) -> TensorElem:
    """First-kind coordinate as shuffles of iterated areas, anagram-labeled."""
    d = basis.dim
    s_h = basis.dual_pbw(h)
    return linear_combination(TensorElem(d, {}), (
        (mixed_eval(tree, d), weight * factor)
        for shape, tree in _labeled(_mixed_shapes(len(h)), d, len(h), h.word)
        if (weight := coeff_e(shape))  # the weight does not depend on the labels
        if (factor := pairing(s_h, lie_eval(tree, d)))
    ))


def rho_hall(basis: HallBasis, h: HallWord, method: str = "recursion") -> TensorElem:
    """The image of the dual element s(h) under rho, three computable ways."""
    d, n = basis.dim, len(h)
    if method == "recursion":
        return _rho_hall_recursive(basis, h)
    if method == "q_trees":
        return linear_combination(TensorElem(d, {}), (
            (area_eval(tree, d), Fraction(q, coeff_b(shape)))
            for shape, tree in _labeled(_plain_shapes(n), d, n, h.word)
            if (q := _q_coefficient(basis, tree, h))
        ))
    if method == "p_trees":
        s_h = basis.dual_pbw(h)
        return linear_combination(TensorElem(d, {}), (
            (area_eval(tree, d), p / coeff_c(shape))
            for shape, tree in _labeled(_plain_shapes(n), d, n, h.word)
            if (p := pairing(s_h, lie_eval(tree, d)))
        ))
    raise ValueError("unknown rho_hall method %r" % method)


@memo_per_owner
def _rho_hall_recursive(basis: HallBasis, h: HallWord) -> TensorElem:
    n = len(h)
    if n == 1:
        return letter_elem(h.word[0], basis.dim)
    return linear_combination(TensorElem(basis.dim, {}), (
        (area(_rho_hall_recursive(basis, h1), _rho_hall_recursive(basis, h2)), c / (n - 1))
        for h1, h2, c in basis._bracket_terms(n)[h]
    ))


@memo_per_owner
def _q_coefficient(basis: HallBasis, tree, h: HallWord) -> Fraction:
    if is_leaf(tree):
        return Fraction(int(h.word == (tree,)))
    # h has as many letters as the tree has leaves, so h2 as many as right
    result = Fraction(0)
    _, left, right = tree
    n_left = leaf_count(left)
    for h1, h2, c in basis._bracket_terms(len(h))[h]:
        if len(h1) == n_left:
            q1 = _q_coefficient(basis, left, h1)
            result += q1 * _q_coefficient(basis, right, h2) * c
    return result
