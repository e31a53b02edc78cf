"""The linear span generated by iterated areas, and its rank tooling.

The span has the closed-form basis "letters plus w(ij-ji) with i < j", which
drives the membership test here.  The rank checkers pair candidate
generating sets against the free-Lie-algebra levels; full pairing rank at
every level is exactly the condition for shuffle generation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, permutations
import json

from . import linalg
from .errors import EmptyWordOperand
from .hall import HallBasis, hall_set
from .memo import memo
from .tensor import (
    TensorElem,
    area,
    area_sum,
    half_shuffle_sum,
    letter_elem,
    linear_combination,
    pairing,
    rho,
    word_elem,
    words_of_length,
)
from .trees import AREA, _labeled, area_eval, signed_form


# -- the area span -----------------------------------------------------------


def area_span_basis(d: int, n: int):
    """Canonical degree-n basis: letters at n=1, else w(ij-ji) with i < j."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if n == 1:
        return [letter_elem(i, d) for i in range(1, d + 1)]
    out = []
    for w in words_of_length(d, n - 2):
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                out.append(
                    TensorElem(d, {w + (i, j): 1, w + (j, i): -1})
                )
    return out


def area_span_dim(d: int, n: int) -> int:
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if n == 1:
        return d
    return d ** (n - 2) * d * (d - 1) // 2


def area_span_membership(x: TensorElem):
    """Decompose x over the span basis, or return None if it is not inside.

    The decomposition is {'letters': {i: coeff}, 'pairs': {(w, i, j): coeff}}
    with i < j; basis elements are recognized by their final two letters.
    """
    if x.empty_coeff():
        return None
    letters = {}
    pairs = {}
    seen = set()
    for word, coeff in x.terms():
        if len(word) == 1:
            letters[word[0]] = coeff
            continue
        prefix, a, b = word[:-2], word[-2], word[-1]
        if a == b:
            return None
        i, j = (a, b) if a < b else (b, a)
        key = (prefix, i, j)
        if key in seen:
            continue
        seen.add(key)
        plus = x.coeff(prefix + (i, j))
        minus = x.coeff(prefix + (j, i))
        if plus != -minus:
            return None
        pairs[key] = plus
    return {"letters": letters, "pairs": pairs}


# -- left bracketing ----------------------------------------------------------

def _left_comb(letters):
    """The area tree (((l1, l2), l3), ...) on the letters, left to right."""
    tree = letters[0]
    for letter in letters[1:]:
        tree = (AREA, tree, letter)
    return tree


def arealb_word(w, dim: int) -> TensorElem:
    """Left-bracketed area of a word: area_eval of its left comb."""
    w = tuple(w)
    if not w:
        return TensorElem(dim, {})
    return area_eval(_left_comb(w), dim)


def arealb(x: TensorElem) -> TensorElem:
    """Strict left-bracketing of the area operation along each word."""
    return linear_combination(
        TensorElem(x.dim, {}), ((arealb_word(w, x.dim), c) for w, c in x.terms())
    )


# -- permutation expansions -----------------------------------------------------

@memo
def signed_permutations(n: int):
    """All of S_n with the sign f_n; f_n multiplies g_i over positions.

    g_i(sigma) is +1 when every smaller value j < i occurs before i in the
    one-line word, else -1.
    """
    out = []
    for sigma in permutations(range(1, n + 1)):
        position = {value: idx for idx, value in enumerate(sigma)}
        sign = 1
        for i in range(2, n + 1):
            pos_i = position[i]
            if any(position[j] > pos_i for j in range(1, i)):
                sign = -sign
        out.append((sigma, sign))
    return out


def _permutation_sum(w, dim: int, signed_perms) -> TensorElem:
    """Sum of sign * (w permuted by sigma) over the (sigma, sign) pairs."""
    w = tuple(w)
    n = len(w)
    if n < 1:
        raise EmptyWordOperand("need a nonempty word")
    terms: dict = {}
    for sigma, sign in signed_perms(n):
        permuted = tuple(w[s - 1] for s in sigma)
        terms[permuted] = terms.get(permuted, 0) + sign
    return TensorElem(dim, terms)


def theta_expansion(w, dim: int) -> TensorElem:
    """Left-bracketed area of a word as a signed sum over all permutations."""
    return _permutation_sum(w, dim, signed_permutations)


@memo
def interval_permutations(n: int):
    """Permutations whose every suffix value set is an interval of integers."""
    return [
        (sigma, sign)
        for sigma, sign in signed_permutations(n)
        if all(
            max(sigma[i:]) - min(sigma[i:]) + 1 == n - i for i in range(n - 1)
        )
    ]


def rho_permutation(w, dim: int) -> TensorElem:
    """rho of a word as a signed sum over interval permutations."""
    return _permutation_sum(w, dim, interval_permutations)


# -- volumes and the degree-4 identity -------------------------------------------


def vol(a: TensorElem, b: TensorElem, c: TensorElem) -> TensorElem:
    """Cyclic sum of left-nested areas, area(area(a, b), c) + area(area(b, c),
    a) + area(area(c, a), b); pairs to six times a signed volume.

    It is vol_n at three arguments, the cyclic sum of area(a, b) > c: the
    first halves of the outer areas.  The second halves cancel: by the
    Zinbiel law x > (y > z) = (x ш y) > z, c > area(a, b) is
    (c ш a) > b - (c ш b) > a, whose cyclic sum is zero as ш commutes.
    """
    return vol_n((a, b, c))


def vol_n(args) -> TensorElem:
    """Signed sum over orderings of left-nested half-shuffles of the arguments.

    Grouping the orderings by their last argument x_i gives the recursion
    vol_n(x_1..x_n) = sum_i (-1)^(n-i) vol_n(x without x_i) > x_i, in one
    half_shuffle_sum, down to vol_n(x, y) = area(x, y).  Each of the
    2^n - n - 1 volumes is built once, keyed by its subset of arguments.
    """
    args = tuple(args)
    n = len(args)
    if n < 2:
        raise ValueError("need at least two arguments")
    vols = {pair: area(args[pair[0]], args[pair[1]]) for pair in combinations(range(n), 2)}
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            vols[subset] = half_shuffle_sum(args[0].dim, [
                (vols[subset[:j] + subset[j + 1:]], args[i], (-1) ** (size - 1 - j))
                for j, i in enumerate(subset)
            ])
    return vols[tuple(range(n))]


def volume_invariant(d: int, n: int) -> TensorElem:
    """Alternating sum of the permutations of the word 12..n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return TensorElem(max(d, n), {
        sigma: (-1) ** sum(a > b for a, b in combinations(sigma, 2))
        for sigma in permutations(range(1, n + 1))
    })


def tortkara_check(a, b, c, d_elem=None) -> bool:
    """The degree-4 identity of the area operation, in its stated forms.

    With three arguments checks
        area(area(a,b), area(c,b)) = area(vol(a,b,c), b);
    a fourth argument d switches to the two four-variable forms
        area(area(a,b), area(c,d)) + area(area(a,d), area(c,b))
            = area(vol(a,b,c), d) + area(vol(a,d,c), b),
        2 area(area(a,b), area(c,d)) = area(vol(a,b,c), d) + area(vol(a,d,c), b)
            + area(vol(b,a,d), c) + area(vol(b,c,d), a).
    Each form is one area_sum of its two sides' difference, tested with
    is_zero(); where the first holds, the second is the difference of the
    two, area(area(a,b), area(c,d)) - area(area(a,d), area(c,b))
    = area(vol(b,a,d), c) + area(vol(b,c,d), a), which is summed instead.
    """
    dim = a.dim
    if d_elem is None:
        return area_sum(dim, (
            (area(a, b), area(c, b), 1), (vol(a, b, c), b, -1),
        )).is_zero()
    ab, cd, ad, cb = area(a, b), area(c, d_elem), area(a, d_elem), area(c, b)
    if not area_sum(dim, (
        (ab, cd, 1), (ad, cb, 1), (vol(a, b, c), d_elem, -1), (vol(a, d_elem, c), b, -1),
    )).is_zero():
        return False
    return area_sum(dim, (
        (ab, cd, 1), (ad, cb, -1), (vol(b, a, d_elem), c, -1), (vol(b, c, d_elem), a, -1),
    )).is_zero()


# -- rank reports -----------------------------------------------------------------


@dataclass
class SpanReport:
    d: int
    n: int
    generators: int
    rank: int
    target: int
    full_rank: bool

    def to_json_obj(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_json_obj())


def generation_rank(xs, n: int, basis: HallBasis | None = None) -> SpanReport:
    """Rank of the pairing of degree-n elements against the Lie level.

    Full rank at every level is the criterion for the family to shuffle
    generate; inhomogeneous inputs are rejected.
    """
    xs = list(xs)
    if not xs and basis is None:
        raise ValueError("need at least one element")
    d = xs[0].dim if xs else basis.dim
    for x in xs:
        if not x.is_zero() and (x.degree() != n or x.min_degree() != n):
            raise ValueError("elements must be homogeneous of degree %d" % n)
    if basis is None:
        basis = hall_set(d, n)
    hall_level = basis.level(n)
    vectors = []
    for x in xs:
        row = {}
        for idx, h in enumerate(hall_level):
            value = pairing(x, basis.bracketing(h))
            if value:
                row[idx] = value
        vectors.append(row)
    rank = linalg.rank_of_vectors(vectors)
    target = len(hall_level)
    return SpanReport(d, n, len(xs), rank, target, rank == target)


def _check_alphabet(d: int):
    if d < 1:
        raise ValueError("alphabet size d must be >= 1, got %r" % (d,))


def areas_generate_check(d: int, n: int, basis: HallBasis | None = None) -> SpanReport:
    """Pairing rank of the degree-n part of the area span against the Lie level."""
    _check_alphabet(d)
    if basis is None:
        basis = hall_set(d, n)
    return generation_rank(area_span_basis(d, n), n, basis)


def _leftbracket_rows(d: int, n: int):
    """The left bracketings of the words w of length n with w[0] < w[1], as
    int rows.  They span every left bracketing: area is antisymmetric, so
    swapping the first two letters negates one, and equal first letters
    give 0."""
    return [arealb_word(w, d).int_row() for w in words_of_length(d, n) if w[0] < w[1]]


def leftbracket_span_check(d: int, n: int) -> SpanReport:
    """Rank of the strict left-bracketings with i1 < i2 inside the span.

    generators counts them, C(d, 2) d^(n-2) rows from _leftbracket_rows.
    Full rank holds at d = 2 through n = 12, at d = 3 through n = 7 (729 of
    729) and at d = 4 through n = 6 (1536 of 1536); the tests pin it at d = 2
    and d = 3 through n = 6 and at (4, 5).  The statement for every alphabet
    is still open (ROADMAP item 8).
    """
    _check_alphabet(d)
    if n < 2:
        raise ValueError("need n >= 2")
    rows = _leftbracket_rows(d, n)
    rank = linalg.rank_of_vectors(rows)
    target = area_span_dim(d, n)
    return SpanReport(d, n, len(rows), rank, target, rank == target)


def words_as_rho_shuffles(w):
    """Factorizations writing the word as shuffles of rho images.

    Returns [(blocks, coefficient)] with blocks a tuple of nonempty words
    multiplying the factorization w = w1 ... wn, so that the word equals the
    sum of coefficient * rho(w1) sh ... sh rho(wn).
    """
    w = tuple(w)
    if not w:
        raise EmptyWordOperand("need a nonempty word")
    return list(_rho_shuffle_terms(w).items())


@memo
def _rho_shuffle_terms(w):
    """blocks -> coefficient for the nonempty word w, unrolling
    w = (1/|w|) sum over w = u v with u nonempty of rho(u) sh v."""
    n = len(w)
    out = {(w,): Fraction(1, n)}
    for cut in range(1, n):
        for blocks, c in _rho_shuffle_terms(w[cut:]).items():
            out[(w[:cut],) + blocks] = c / n
    return out


def rho_image_in_area_span(w, dim: int) -> bool:
    """Membership of rho(word) in the area span (holds for every word)."""
    image = rho(word_elem(w, dim))
    return image.is_zero() or area_span_membership(image) is not None


# -- reduction of general bracketings to left ones ---------------------------------


def special_tree(n: int):
    """Left-bracket tree on n-2 leaves grafted onto a final cherry.

    Leaves carry placeholder letter 1; special_tree_reduction relabels them.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    return (AREA, _left_comb((1,) * (n - 2)), (AREA, 1, 1))


def special_tree_reduction(n: int, d: int) -> SpanReport:
    """Solvability of every labeled special tree over the left-bracket span.

    generators counts every left bracketing, d**n, rank the number of
    solvable labelings, target the number of labelings tested.  Only the
    C(d, 2) d^(n-2) rows of _leftbracket_rows, the words with w[0] < w[1],
    are reduced to echelon form, once: they span every left bracketing.
    One labeled tree per class of trees.signed_form is reduced against
    them, which decides every labeling in the class: a labeling is its
    class's tree times 1 or -1, or zero, and a span holds 0 and holds -v
    when it holds v.
    """
    _check_alphabet(d)
    trees = [tree for _, tree in _labeled([special_tree(n)], d, n)]
    classes = Counter(signed_form(tree)[1] for tree in trees)  # None is the zero class
    rows = linalg.echelon(_leftbracket_rows(d, n))
    solvable = sum(
        count for tree, count in classes.items()
        if tree is None or linalg.in_span(rows, area_eval(tree, d).int_row())
    )
    return SpanReport(d, n, d**n, solvable, len(trees), solvable == len(trees))
