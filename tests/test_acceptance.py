"""Acceptance criteria, one test per criterion.

Every comparison is exact (rational equality); the stated runtime ceilings
are asserted.  Each test prints one summary line, visible with pytest -s.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

from areasig import (
    area,
    areas_generate_check,
    arealb,
    checks,
    concat,
    dynkin_r,
    enumerate_trees,
    evaluate_text,
    generation_rank,
    hall_set,
    invert_r,
    lambda_element,
    leftbracket_span_check,
    letter_elem,
    lie_bracket,
    pairing,
    r_element,
    rho,
    shuffle,
    signature_pwl,
    tensor_pair,
    theta_expansion,
    vol,
    word_elem,
    zero,
)
from areasig.discrete import TimeSeries
from areasig.double_tensor import zero_double
from areasig.tensor import parse_word, words_of_length
from areasig.trees import rho_hall

from conftest import eval_rho_shuffle_expansion, random_elem
from reference_tables import (
    INTRO_EXPANSIONS_123,
    RHO_D2_HALL,
    RHO_D2_HALL_LEVEL6_EXTRA,
    RHO_D2_LYNDON,
    RHO_D2_LYNDON_LEVEL6_EXTRA,
    RHO_D3_LYNDON,
    LYNDON_D2_TABLE,
    LYNDON_D3_TABLE,
    HALL_D2_TABLE_RAW,
    HALL_D2_TABLE,
    bracket_elem,
    el,
)

F = Fraction


def report(num, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % extra if extra else ""
    print("criterion %02d %s - %s%s" % (num, status, description, suffix))
    assert ok, "criterion %d failed: %s" % (num, description)


@lru_cache(maxsize=None)
def basis(d, level, kind="lyndon"):
    return hall_set(d, level, kind)


def table_matches(table, b):
    bad = []
    for word_txt, bracket, s_terms, zeta_terms in table:
        h = b.find(parse_word(word_txt))
        if h is None:
            bad.append((word_txt, "hall word"))
            continue
        if b.bracketing(h) != bracket_elem(bracket, b.dim):
            bad.append((word_txt, "P"))
        if b.dual_pbw(h) != el(b.dim, s_terms):
            bad.append((word_txt, "S"))
        if b.zeta(h) != el(b.dim, zeta_terms):
            bad.append((word_txt, "zeta"))
    return bad


def test_criterion_01_table1_reproduction():
    start = time.monotonic()
    b = basis(2, 5)
    bad = table_matches(LYNDON_D2_TABLE, b)
    row_count = sum(len(b.level(n)) for n in range(1, 6))
    elapsed = time.monotonic() - start
    ok = not bad and row_count == len(LYNDON_D2_TABLE) == 14 and elapsed < 30
    report(1, "table of P/S/zeta for d=2 Lyndon levels 1-5", ok, "%.1fs" % elapsed)


def test_criterion_02_table2_reproduction():
    start = time.monotonic()
    b = basis(3, 4)
    bad = table_matches(LYNDON_D3_TABLE, b)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60
    report(2, "table of P/S/zeta for d=3 Lyndon shown rows", ok, "%.1fs" % elapsed)


def test_criterion_03_table3_duality_and_soft_rows():
    b = basis(2, 5, "standard_hall")
    duality_ok = True
    for n in range(1, 6):
        level = b.level(n)
        for h in level:
            for g in level:
                if pairing(b.dual_pbw(h), b.bracketing(g)) != (1 if h == g else 0):
                    duality_ok = False
    raw = table_matches(HALL_D2_TABLE_RAW, b)
    corrected = table_matches(HALL_D2_TABLE, b)
    # soft target: only the internally inconsistent raw cells disagree;
    # the consistent readings match row for row
    extra = "raw mismatches: %d, consistent mismatches: %d" % (
        len(raw),
        len(corrected),
    )
    report(3, "standard-hall duality exact (rows reported, not gated)",
           duality_ok, extra)


def test_criterion_04_rho_example_lists():
    b2 = basis(2, 6)
    ok = True
    for word_txt, terms in {**RHO_D2_LYNDON, **RHO_D2_LYNDON_LEVEL6_EXTRA}.items():
        h = b2.find(parse_word(word_txt))
        if rho(b2.dual_pbw(h)) != el(2, terms):
            ok = False
    b3 = basis(3, 4)
    for word_txt, terms in RHO_D3_LYNDON.items():
        h = b3.find(parse_word(word_txt))
        if rho(b3.dual_pbw(h)) != el(3, terms):
            ok = False
    bh = basis(2, 6, "standard_hall")
    for word_txt, terms in {**RHO_D2_HALL, **RHO_D2_HALL_LEVEL6_EXTRA}.items():
        h = bh.find(parse_word(word_txt))
        if rho(bh.dual_pbw(h)) != el(2, terms):
            ok = False
    # the recursion through areas gives the same values, level six included
    for b, table in (
        (b2, {**RHO_D2_LYNDON, **RHO_D2_LYNDON_LEVEL6_EXTRA}),
        (bh, {**RHO_D2_HALL, **RHO_D2_HALL_LEVEL6_EXTRA}),
    ):
        for word_txt, terms in table.items():
            h = b.find(parse_word(word_txt))
            if rho_hall(b, h, "recursion") != el(2, terms):
                ok = False
    report(4, "rho example lists (both bases, incl. level-6 extras)", ok)


def test_criterion_05_fixed_point_identities():
    start = time.monotonic()
    ok = True
    for d, level in ((2, 6), (3, 4)):
        r = r_element(d, level)
        ok = (
            ok
            and checks.r_recursion_agrees(r, level)
            and checks.quadratic_fixed_point(r, level)
            and checks.symmetrized_fixed_point(r, level)
        )
    ok = ok and checks.r_tree_expansion(r_element(2, 5), 5)
    elapsed = time.monotonic() - start
    report(5, "quadratic fixed point, recursion and tree form of R", ok and elapsed < 120,
           "%.1fs" % elapsed)


def test_criterion_06_lambda_cross_validation():
    lam = lambda_element(2, 4)
    ok = checks.lambda_recursion_agrees(lam, 4) and checks.lambda_tree_expansion(lam, 4)
    one, two = letter_elem(1, 2), letter_elem(2, 2)
    ar, br = area(one, two), lie_bracket(one, two)
    if lam.proj(1) != tensor_pair(one, one) + tensor_pair(two, two):
        ok = False
    if lam.proj(2) != tensor_pair(ar, br) * F(1, 2):
        ok = False
    level3 = (
        tensor_pair(area(one, ar), lie_bracket(one, br)) * F(1, 6)
        + tensor_pair(area(two, ar), lie_bracket(two, br)) * F(1, 6)
        - tensor_pair(shuffle(one, ar), lie_bracket(one, br)) * F(1, 12)
        - tensor_pair(shuffle(two, ar), lie_bracket(two, br)) * F(1, 12)
    )
    if lam.proj(3) != level3:
        ok = False
    level4 = zero_double(2)
    for i, iel in ((1, one), (2, two)):
        for j, jel in ((1, one), (2, two)):
            inner = area(jel, ar)
            right = lie_bracket(iel, lie_bracket(jel, br))
            level4 = level4 + tensor_pair(area(iel, inner), right) * F(1, 24)
            level4 = level4 - tensor_pair(shuffle(iel, inner), right) * F(1, 24)
    if lam.proj(4) != level4:
        ok = False
    report(6, "logarithm element: series, recursion, trees and shown values", ok)


def test_criterion_07_coordinates_round_trip():
    ok = all(
        checks.exp_reproduces_diagonal(checks.coordinate_element(basis(d, level), level), level)
        for d, level in ((2, 5), (3, 4))
    )
    report(7, "exponential of the coordinate element reproduces the diagonal", ok)


def test_criterion_08_grading_identity_and_rho_agreement():
    ok = all(
        checks.grading_identity(d, top) and checks.rho_three_ways(d, top)
        for d, top in ((2, 6), (3, 5))
    )
    report(8, "grading identity and the three rho computations", ok)


def test_criterion_09_theta_expansion_and_concat_identity():
    ok = True
    for d in (2, 3):
        for n in range(1, 7):
            for w in words_of_length(d, n):
                if theta_expansion(w, d) != arealb(word_elem(w, d)):
                    ok = False
                    break
    rng = random.Random(2718)
    cases = 0
    while cases < 200:
        d = rng.choice((2, 3))
        nv = rng.randint(1, 3)
        nw = rng.randint(2, 4)
        if nv + nw > 6:
            continue
        v = tuple(rng.randint(1, d) for _ in range(nv))
        wword = tuple(rng.randint(1, d) for _ in range(nw))
        lw = letter_elem(wword[0], d)
        for letter in wword[1:]:
            lw = lie_bracket(lw, letter_elem(letter, d))
        if lw.is_zero():
            continue
        cases += 1
        lhs = arealb(concat(word_elem(v, d), lw))
        rhs = concat(arealb(word_elem(v, d)), arealb(lw))
        if lhs != rhs:
            ok = False
    report(9, "permutation expansion of left bracketing, concat identity", ok)


def test_criterion_10_tortkara():
    one, two, three = (letter_elem(i, 3) for i in (1, 2, 3))
    instance = area(area(one, two), area(three, two))
    expected = el(
        3,
        {"1223": -2, "1232": 2, "2213": 2, "2231": -2, "3212": -2, "3221": 2},
    )
    ok = instance == expected == area(vol(one, two, three), two)
    letters3 = [letter_elem(i, 3) for i in (1, 2, 3)]
    ok = (
        ok
        and checks.tortkara_holds(product(letters3, repeat=3))
        and checks.tortkara_holds(product(letters3, repeat=4))
    )
    rng = random.Random(31415)
    tuples = []
    for _ in range(100):
        dims = rng.choice((2, 3))
        a, b, c, d = (random_elem(rng, dims, 2, min_deg=1) for _ in range(4))
        tuples += [(a, b, c), (a, b, c, d)]
    ok = ok and checks.tortkara_holds(tuples)
    report(10, "degree-four identity: shown instance, letters, random tuples", ok)


def test_criterion_11_generation_ranks():
    start = time.monotonic()
    ok = True
    for d, top in ((2, 6), (3, 5)):
        b = basis(d, top)
        for n in range(1, top + 1):
            if not areas_generate_check(d, n, b).full_rank:
                ok = False
            rho_gens = [rho(word_elem(w, d)) for w in words_of_length(d, n)]
            rho_gens = [x for x in rho_gens if not x.is_zero()]
            if not generation_rank(rho_gens, n, b).full_rank:
                ok = False
    elapsed = time.monotonic() - start
    report(11, "full pairing rank for area-span and rho generators",
           ok and elapsed < 120, "%.1fs" % elapsed)


def test_criterion_12_leftbracket_spanning():
    ok = True
    for n in range(2, 7):
        rep = leftbracket_span_check(2, n)
        if not rep.full_rank or rep.rank != 2 ** (n - 2):
            ok = False
    reports = [leftbracket_span_check(3, n) for n in range(2, 5)]
    extra = "d=3 ranks " + ", ".join(
        "n=%d: %d/%d" % (r.n, r.rank, r.target) for r in reports
    )
    report(12, "left bracketings span (asserted for d=2, d=3 reported)", ok, extra)


def test_criterion_13_words_as_rho_shuffles():
    ok = True
    for n in range(1, 6):
        for w in words_of_length(2, n):
            if eval_rho_shuffle_expansion(w, 2) != word_elem(w, 2):
                ok = False
    report(13, "factorization expansion over rho images reproduces words", ok)


def test_criterion_14_discrete_area_exactness():
    start = time.monotonic()
    rng = random.Random(60221023)
    trees = [tree for n in range(1, 5) for tree in enumerate_trees(2, n)]
    ok = True
    for _ in range(50):
        pts = [(F(0), F(0))]
        for _seg in range(rng.randint(1, 5)):
            pts.append(
                (
                    pts[-1][0] + F(rng.randint(-6, 6), rng.randint(1, 4)),
                    pts[-1][1] + F(rng.randint(-6, 6), rng.randint(1, 4)),
                )
            )
        ts = TimeSeries(pts)
        if not checks.discrete_areas_match(ts, signature_pwl(ts, 4), trees):
            ok = False
    ok = ok and checks.square_loop_area_is_two()
    witness = checks.noniterating_witness()
    if witness is None:
        ok = False
    elapsed = time.monotonic() - start
    extra = "witness %s: direct %s vs iterated %s; %.1fs" % (
        witness[0].points if witness else None,
        witness[1] if witness else "-",
        witness[2] if witness else "-",
        elapsed,
    )
    report(14, "discrete areas equal signature pairings exactly", ok and elapsed < 60, extra)


def test_criterion_15_intro_expansions():
    ok = all(
        evaluate_text(text, 3) == word_elem("123", 3)
        for text in INTRO_EXPANSIONS_123
    )
    report(15, "shown decompositions of the word 123 evaluate exactly", ok)


def test_criterion_16_invert_r():
    rng = random.Random(1618)
    b = basis(2, 4)
    ok = True
    for _ in range(20):
        x = zero(2)
        for h in b.all_hall_words():
            if rng.random() < 0.6:
                x = x + b.bracketing(h) * F(rng.randint(-3, 3), rng.randint(1, 4))
        g = invert_r(x, 4)
        if dynkin_r(g).truncate(4) != x.truncate(4):
            ok = False
    for _ in range(5):
        pts = [(F(0), F(0))]
        for _seg in range(2):
            pts.append(
                (
                    pts[-1][0] + F(rng.randint(-3, 3), rng.randint(1, 2)),
                    pts[-1][1] + F(rng.randint(-3, 3), rng.randint(1, 2)),
                )
            )
        g = signature_pwl(TimeSeries(pts), 4)
        if invert_r(dynkin_r(g).truncate(4), 4) != g:
            ok = False
    report(16, "inverse of the right-bracketing map round-trips", ok)
