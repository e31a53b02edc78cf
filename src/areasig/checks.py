"""The exact identities of the package, each checked once.

Every check takes its inputs (dimensions and levels, or elements and paths)
and returns a bool; `areasig verify` runs them through the suites in
SUITES, and the acceptance tests call them with their own inputs.  A suite
maps (d, level) to its (name, passed) results and the notes printed before
them, from fixed seeds so that its output is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .discrete import (
    TimeSeries,
    discrete_area,
    discrete_area_tree,
    discrete_integral,
    signature_pwl,
)
from .double_tensor import (
    exp_box,
    lambda_element,
    pre_lie,
    pre_lie_sym,
    r_element,
    s_element,
    tensor_pair,
    zero_double,
)
from .hall import hall_set
from .span import (
    area_span_basis,
    area_span_membership,
    rho_permutation,
    tortkara_check,
    vol_n,
    volume_invariant,
)
from .tensor import (
    TensorElem,
    antipode,
    area,
    dynkin_r,
    exp_conc,
    grading_d,
    half_shuffle,
    is_grouplike,
    letter_elem,
    linear_combination,
    log_conc,
    pairing,
    rho,
    rho_word,
    rho_word_via_d,
    shuffle,
    word_elem,
    words_of_length,
)
from .trees import (
    enumerate_trees,
    lambda_via_trees,
    mixed_eval,
    r_via_trees,
    rho_hall,
    rho_via_q_trees,
    zeta_via_trees,
)


# -- shuffle algebra -------------------------------------------------------------


def shuffle_commutes(a, b) -> bool:
    return shuffle(a, b) == shuffle(b, a)


def shuffle_associates(a, b, c) -> bool:
    return shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def half_shuffles_split_shuffle(a, b) -> bool:
    return shuffle(a, b) == half_shuffle(a, b) + half_shuffle(b, a)


def zinbiel_law(a, b, c) -> bool:
    # in the orientation of this half-shuffle (last letter from the right
    # factor): a > (b > c) = (a > b) > c + (b > a) > c
    return half_shuffle(a, half_shuffle(b, c)) == half_shuffle(
        half_shuffle(a, b), c
    ) + half_shuffle(half_shuffle(b, a), c)


def antipode_is_involution(a) -> bool:
    return antipode(antipode(a)) == a


def word_is_half_area_plus_shuffle(d) -> bool:
    """12 = (area(1, 2) + shuffle(1, 2)) / 2; needs d >= 2."""
    one, two = letter_elem(1, d), letter_elem(2, d)
    return (area(one, two) + shuffle(one, two)) * Fraction(1, 2) == word_elem((1, 2), d)


def exp_log_round_trip(x, level) -> bool:
    return log_conc(exp_conc(x, level), level) == x.truncate(level)


# -- the right-bracketing map and its canonical element --------------------------


def dynkin_criterion(basis) -> bool:
    """r(P) = D(P) on every Hall bracketing P."""
    return all(
        dynkin_r(p) == grading_d(p)
        for p in map(basis.bracketing, basis.all_hall_words())
    )


def rho_adjoint_to_r(d, top) -> bool:
    """<rho(u), v> = <u, r(v)> for all words u, v of equal length <= top:
    per length, rho's (u, v) -> coefficient map is the transpose of r's."""
    for n in range(1, top + 1):
        words = list(words_of_length(d, n))
        rho_map = {(u, v): c for u in words for v, c in rho(word_elem(u, d)).terms()}
        r_map = {(u, v): c for v in words for u, c in dynkin_r(word_elem(v, d)).terms()}
        if rho_map != r_map:
            return False
    return True


def grading_identity(d, top) -> bool:
    """D(w) = sum over splits w = u v, u nonempty, of rho(u) shuffled with v."""
    for n in range(1, top + 1):
        for w in words_of_length(d, n):
            total = linear_combination(TensorElem(d, {}), (
                (shuffle(rho(word_elem(w[:cut], d)), word_elem(w[cut:], d)), 1)
                for cut in range(1, n + 1)
            ))
            if total != grading_d(word_elem(w, d)):
                return False
    return True


def rho_three_ways(d, top) -> bool:
    """The two-sided recursion, the grading identity and the interval
    permutations give the same rho(w) for every word of length <= top."""
    for n in range(1, top + 1):
        for w in words_of_length(d, n):
            direct = rho_word(w)
            if direct != rho_word_via_d(w) or TensorElem(d, direct) != rho_permutation(w, d):
                return False
    return True


def r_recursion_agrees(r, level) -> bool:
    return r == r_element(r.dim, level, "recursion")


def quadratic_fixed_point(r, level) -> bool:
    """D^(R) - R = R pre-Lie R."""
    return grading_d(r) - r == pre_lie(r, r, level)


def symmetrized_fixed_point(r, level) -> bool:
    return grading_d(r) - r == pre_lie_sym(r, r, level) * Fraction(1, 2)


def r_tree_expansion(r, top) -> bool:
    return all(r_via_trees(r.dim, n) == r.proj(n) for n in range(1, top + 1))


# -- the logarithm element and the coordinates of the first kind -----------------


def lambda_recursion_agrees(lam, level) -> bool:
    return lam == lambda_element(lam.dim, level, "recursion")


def lambda_tree_expansion(lam, top) -> bool:
    return all(
        lambda_via_trees(lam.dim, n) == lam.proj(n) for n in range(1, top + 1)
    )


def coordinate_element(basis, level):
    """Sum over Hall words h of zeta_h (x) P_h."""
    return linear_combination(zero_double(basis.dim), (
        (tensor_pair(basis.zeta(h), basis.bracketing(h), level), 1)
        for h in basis.all_hall_words()
    ))


def exp_reproduces_diagonal(combined, level) -> bool:
    return exp_box(combined, level) == s_element(combined.dim, level)


def zeta_via_trees_agrees(basis, top) -> bool:
    return all(
        zeta_via_trees(basis, h) == basis.zeta(h) for h in basis.all_hall_words(top)
    )


def rho_on_dual_elements(basis, top) -> bool:
    """rho_hall, and rho_via_q_trees up to length top, equal rho of the
    dual element."""
    for h in basis.all_hall_words():
        direct = rho(basis.dual_pbw(h))
        if rho_hall(basis, h) != direct:
            return False
        if len(h) <= top and rho_via_q_trees(basis, h) != direct:
            return False
    return True


# -- the degree-four identity and the area span -----------------------------------


def tortkara_holds(tuples) -> bool:
    """tortkara_check on every triple (three-variable form) or quadruple."""
    return all(tortkara_check(*args) for args in tuples)


def vol_is_alternating_invariant(dim) -> bool:
    letters = [letter_elem(i, dim) for i in (1, 2, 3)]
    return vol_n(letters) == volume_invariant(dim, 3)


def area_span_closed(pairs) -> bool:
    return all(area_span_membership(area(x, y)) is not None for x, y in pairs)


# -- piecewise-linear paths ---------------------------------------------------------


def l_path_area_is_one() -> bool:
    path = TimeSeries([(0, 0), (1, 0), (1, 1)])
    ar = area(letter_elem(1, 2), letter_elem(2, 2))
    return (
        discrete_area(path.coordinate(1), path.coordinate(2)).final() == 1
        and pairing(ar, signature_pwl(path, 2)) == 1
    )


def square_loop_area_is_two() -> bool:
    square = TimeSeries([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    return discrete_area(square.coordinate(1), square.coordinate(2)).final() == 2


def discrete_areas_match(path, sig, trees) -> bool:
    """The iterated discrete area over each (mixed) tree ends at the pairing
    of the tree's element with sig, the signature of path."""
    return all(
        discrete_area_tree(tree, path).final() == pairing(mixed_eval(tree, path.dim), sig)
        for tree in trees
    )


def trapezoid_matches_level_two(path, sig) -> bool:
    integral = discrete_integral(path.coordinate(1), path.coordinate(2)).final()
    return integral == pairing(word_elem((1, 2), path.dim), sig)


def noniterating_witness():
    """The first two-segment path in d=3 with steps in {-1, 0, 1}^3 on which
    the iterated trapezoid rule misses <123, S>, as (path, <123, S>,
    iterated value), or None."""
    for steps in product((-1, 0, 1), repeat=6):
        first, second = steps[:3], steps[3:]
        path = TimeSeries([(0, 0, 0), first, tuple(a + b for a, b in zip(first, second))])
        direct = pairing(word_elem((1, 2, 3), 3), signature_pwl(path, 3))
        iterated = discrete_integral(
            discrete_integral(path.coordinate(1), path.coordinate(2)),
            path.coordinate(3),
        ).final()
        if direct != iterated:
            return path, direct, iterated
    return None


# -- the suites behind `areasig verify` ---------------------------------------------


def _random_elem(rng, d, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, max_deg)
        word = tuple(rng.randint(1, d) for _ in range(n))
        terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return TensorElem(d, terms)


def random_path(rng, segments):
    """A plane path with steps of coordinates a/b, |a| <= 4, 1 <= b <= 3."""
    pts = [(Fraction(0), Fraction(0))]
    for _ in range(segments):
        x, y = pts[-1]
        x += Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        y += Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        pts.append((x, y))
    return TimeSeries(pts)


def core_suite(d, level):
    rng = random.Random(2024)
    results = []
    for i in range(8):
        a, b, c = (_random_elem(rng, d, 3) for _ in range(3))
        results += [
            ("shuffle commutative #%d" % i, shuffle_commutes(a, b)),
            ("shuffle associative #%d" % i, shuffle_associates(a, b, c)),
            ("halfshuffle splits shuffle #%d" % i, half_shuffles_split_shuffle(a, b)),
            ("zinbiel #%d" % i, zinbiel_law(a, b, c)),
            ("antipode involution #%d" % i, antipode_is_involution(a)),
        ]
    results.append(
        ("word = half sum of area and shuffle", d < 2 or word_is_half_area_plus_shuffle(d))
    )
    x = _random_elem(rng, d, level)
    results.append(("exp/log round trip", exp_log_round_trip(x, level)))
    return results, []


def dynkin_suite(d, level):
    top = min(level, 4)
    r = r_element(d, level)
    return [
        ("dynkin criterion on hall elements", dynkin_criterion(hall_set(d, level))),
        ("rho adjoint to r", rho_adjoint_to_r(d, top)),
        ("grading identity", grading_identity(d, level)),
        ("rho three ways", rho_three_ways(d, level)),
        ("r element recursion", r_recursion_agrees(r, level)),
        ("quadratic fixed point", quadratic_fixed_point(r, level)),
        ("symmetrized fixed point", symmetrized_fixed_point(r, level)),
        ("tree expansion of r element", r_tree_expansion(r, top)),
    ], []


def lambda_suite(d, level):
    top = min(level, 4)
    lam = lambda_element(d, level)
    basis = hall_set(d, level)
    combined = coordinate_element(basis, level)
    return [
        ("lambda recursion", lambda_recursion_agrees(lam, level)),
        ("lambda tree expansion", lambda_tree_expansion(lam, top)),
        ("lambda = sum of zeta x bracketing", lam == combined),
        ("exponential reproduces diagonal", exp_reproduces_diagonal(combined, level)),
        ("zeta via trees", zeta_via_trees_agrees(basis, top)),
        ("rho on dual elements", rho_on_dual_elements(basis, top)),
    ], []


def tortkara_suite(d, level):
    del level
    rng = random.Random(99)
    dim = max(d, 3)
    letters = [letter_elem(i, dim) for i in range(1, dim + 1)]
    tuples = []
    for _ in range(25):
        a, b, c, e = (_random_elem(rng, dim, 2) for _ in range(4))
        tuples += [(a, b, c), (a, b, c, e)]
    pairs = []
    for _ in range(10):
        span = area_span_basis(dim, rng.randint(2, 3))
        pairs.append((span[rng.randrange(len(span))], span[rng.randrange(len(span))]))
    return [
        ("tortkara on letter triples", tortkara_holds(product(letters, repeat=3))),
        ("tortkara on random elements", tortkara_holds(tuples)),
        ("vol of letters is the alternating invariant", vol_is_alternating_invariant(dim)),
        ("span closed under area", area_span_closed(pairs)),
    ], []


def pwl_suite(d, level):
    del d
    rng = random.Random(5)
    # the trapezoid check pairs with the level-two word 12
    top = min(max(level, 2), 4)
    trees = [
        tree
        for n in range(1, 5)
        for tree in enumerate_trees(2, n)
        if mixed_eval(tree, 2).degree() <= top
    ]
    areas_ok = grouplike_ok = True
    for _ in range(10):
        path = random_path(rng, rng.randint(2, 5))
        sig = signature_pwl(path, top)
        grouplike_ok = grouplike_ok and is_grouplike(sig, top)
        areas_ok = (
            areas_ok
            and discrete_areas_match(path, sig, trees)
            and trapezoid_matches_level_two(path, sig)
        )
    witness = noniterating_witness()
    notes = []
    if witness is not None:
        path, direct, iterated = witness
        notes.append(
            "witness path %s: <123, S> = %s but iterated trapezoid = %s"
            % ([tuple(map(str, p)) for p in path.points], direct, iterated)
        )
    return [
        ("L-path area", l_path_area_is_one()),
        ("unit square loop encloses area 2", square_loop_area_is_two()),
        ("discrete areas match signature pairings", areas_ok),
        ("signatures are grouplike", grouplike_ok),
        ("trapezoid rule does not iterate", witness is not None),
    ], notes


SUITES = {
    "core": core_suite,
    "dynkin": dynkin_suite,
    "lambda": lambda_suite,
    "tortkara": tortkara_suite,
    "pwl": pwl_suite,
}
