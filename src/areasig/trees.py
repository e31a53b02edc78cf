"""Leaf-labeled binary planar trees and their tree-indexed expansions.

A tree is a letter (int) at a leaf or a node ('a', left, right) bracketing
with the area operation; mixed trees additionally use ('s', left, right)
nodes that multiply with the shuffle.  Shuffle nodes may only appear where
every ancestor is a shuffle node, so they form a crown containing the root.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from typing import TYPE_CHECKING

from .double_tensor import (
    DoubleTensor,
    box_bracket_sum,
    coeval_at,
    pre_lie_sym_sum,
    tensor_pair,
    zero_double,
)
from .errors import ExpressionSyntaxError, _Reader, is_digit
from .guard import check_term_budget
from .memo import memo, memo_per_owner
from .tensor import (
    TensorElem,
    area,
    area_sum,
    letter_elem,
    lie_bracket,
    linear_combination,
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


def _labeled(shapes, d, n):
    """(shape, tree) for each shape labeled by each word of length n over
    1..d, canonical order."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_term_budget(len(shapes) * d**n)
    labelings = list(product(range(1, d + 1), repeat=n))
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


# -- signed canonical form -------------------------------------------------------


def _order_key(tree):
    """A total order on trees: leaves before nodes, letters by value, nodes
    by kind and then children, left first."""
    if is_leaf(tree):
        return (0, tree)
    kind, left, right = tree
    return (1, kind, _order_key(left), _order_key(right))


@memo
def signed_form(tree):
    """(sign, canonical tree) with tree = sign * canonical tree, sign in
    {-1, 0, 1}, and None for the canonical tree when the sign is 0.

    It rests on three laws, which hold for the area and the discrete area
    alike: area is antisymmetric, so an area node puts its children in
    _order_key order and flips the sign when it swaps them; the shuffle
    product commutes, so a shuffle node orders them without a sign; and
    area(x, x) = 0, so an area node with equal children is 0, as is every
    node with a zero child.  The canonical tree is its own form, and so is
    each of its subtrees.  A tree with a shuffle node under an area node
    raises a ValueError, on every call, as errors are not cached.
    """
    if not is_valid_mixed(tree):
        raise ValueError("shuffle nodes must be connected to the root")
    if is_leaf(tree):
        return 1, tree
    kind, left, right = tree
    (s1, t1), (s2, t2) = signed_form(left), signed_form(right)
    sign = s1 * s2
    if not sign or (kind == AREA and t1 == t2):
        return 0, None
    if _order_key(t1) > _order_key(t2):
        t1, t2 = t2, t1
        if kind == AREA:
            sign = -sign
    return sign, (kind, t1, t2)


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


# Each expansion sums f(T) (x) lie_eval(T) over labeled trees T, weighted by
# the shape alone, and both sides are multilinear in the leaves.  So the sum
# over one shape's labelings with one letter content is built node by node
# (_label_sum), and the Hall-word forms contract one content's sums with the
# dual s(h), which pairs to zero with every other content.


@memo
def _splits(content, k):
    """The distinct ways to split the sorted tuple `content` into k letters
    and the rest, as pairs of sorted tuples."""
    out = {}
    for chosen in combinations(range(len(content)), k):
        left = tuple(content[i] for i in chosen)
        if left not in out:
            out[left] = tuple(c for i, c in enumerate(content) if i not in chosen)
    return tuple(out.items())


@memo
def _label_sum(shape, content, dim) -> DoubleTensor:
    """Sum of mixed_eval(T) (x) lie_eval(T) over the labelings T of `shape`
    whose letters form `content` (a sorted tuple), by the label-sum
    identity: a leaf gives a (x) a, and a node the product of its children's
    sums (pre_lie_sym at an area node, box_bracket at a shuffle node),
    summed over the ways to split the content between them in one
    accumulator."""
    if is_leaf(shape):
        letter = letter_elem(content[0], dim)
        return tensor_pair(letter, letter)
    kind, left, right = shape
    children = [
        (_label_sum(left, c1, dim), _label_sum(right, c2, dim))
        for c1, c2 in _splits(content, leaf_count(left))
    ]
    product = pre_lie_sym_sum if kind == AREA else box_bracket_sum
    return product(dim, ((x, y, 1) for x, y in children))


def _shape_sum(shapes, weight, dim, contents, labelings):
    """Sum of weight(shape) * _label_sum(shape, content, dim) over the shapes
    of nonzero weight and the contents, once the estimate of `labelings`
    labeled trees per shape passes the term budget."""
    check_term_budget(len(shapes) * labelings)
    return linear_combination(zero_double(dim), (
        (_label_sum(shape, content, dim), w)
        for shape in shapes
        if (w := weight(shape))
        for content in contents
    ))


def _inverse_c(shape) -> Fraction:
    return Fraction(1, coeff_c(shape))


def _level_sum(shapes, weight, d, n) -> DoubleTensor:
    if n < 1:
        raise ValueError("need n >= 1")
    contents = list(combinations_with_replacement(range(1, d + 1), n))
    return _shape_sum(shapes, weight, d, contents, d**n)


def r_via_trees(d: int, n: int) -> DoubleTensor:
    """Level-n part of the right-bracketing element as a sum over area trees."""
    return _level_sum(_plain_shapes(n), _inverse_c, d, n)


def lambda_via_trees(d: int, n: int) -> DoubleTensor:
    """Level-n part of the logarithm element as a sum over mixed trees."""
    return _level_sum(_mixed_shapes(n), coeff_e, d, n)


def _hall_sum(basis: HallBasis, h: HallWord, shapes, weight) -> TensorElem:
    """Sum of weight(shape) f(T) <s(h), lie_eval(T)> over the labeled trees
    T: the contraction of s(h) with the label sums of h's content."""
    content = tuple(sorted(h.word))
    block = _shape_sum(shapes, weight, basis.dim, [content], _multinomial(h.word))
    return coeval_at(basis.dual_pbw(h), block)


def zeta_via_trees(basis: HallBasis, h: HallWord) -> TensorElem:
    """First-kind coordinate as shuffles of iterated areas."""
    return _hall_sum(basis, h, _mixed_shapes(len(h)), coeff_e)


def rho_via_q_trees(basis: HallBasis, h: HallWord) -> TensorElem:
    """rho of the dual element s(h) as the sum over the area shapes T of
    _q_sum(T, h) / coeff_b(T); the cross-check of rho_hall."""
    shapes = _plain_shapes(len(h))
    check_term_budget(len(shapes) * _multinomial(h.word))
    return linear_combination(TensorElem(basis.dim, {}), (
        (_q_sum(basis, shape, h), Fraction(1, coeff_b(shape))) for shape in shapes
    ))


@memo_per_owner
def _q_sum(basis: HallBasis, shape, h: HallWord) -> TensorElem:
    """Sum of q(T, h) area_eval(T) over the labelings T of `shape`.  At a
    leaf q is 1 if h is its letter and 0 otherwise; at a node it is the sum
    over the bracket terms (h1, h2, c) of h, with h1 as long as the left
    subtree, of c q(left, h1) q(right, h2).  Area is bilinear, so the sum
    over T follows the same recursion on the children's sums."""
    if is_leaf(shape):
        return letter_elem(h.word[0], basis.dim)
    _, left, right = shape
    n_left = leaf_count(left)
    return area_sum(basis.dim, (
        (_q_sum(basis, left, h1), _q_sum(basis, right, h2), c)
        for h1, h2, c in basis._bracket_terms(len(h))[h]
        if len(h1) == n_left
    ))


def rho_hall(basis: HallBasis, h: HallWord, method: str = "recursion") -> TensorElem:
    """The image of the dual element s(h) under rho, by the area recursion
    on the Hall structure constants; "recursion" is the only method."""
    if method != "recursion":
        raise ValueError("unknown rho_hall method %r" % method)
    return _rho_hall_recursive(basis, h)


@memo_per_owner
def _rho_hall_recursive(basis: HallBasis, h: HallWord) -> TensorElem:
    n = len(h)
    if n == 1:
        return letter_elem(h.word[0], basis.dim)
    return area_sum(basis.dim, (
        (_rho_hall_recursive(basis, h1), _rho_hall_recursive(basis, h2), c / (n - 1))
        for h1, h2, c in basis._bracket_terms(n)[h]
    ))
