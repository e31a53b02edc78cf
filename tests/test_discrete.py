import gc
import io
import random
import re
import sys
import time
import weakref
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest

from areasig import (
    ScalarSeries,
    TimeSeries,
    area,
    area_eval,
    checks,
    discrete_area,
    discrete_area_tree,
    discrete_integral,
    enumerate_mixed,
    enumerate_trees,
    is_grouplike,
    letter_elem,
    load_timeseries,
    mixed_eval,
    pairing,
    parse_tree,
    signature_pwl,
    word_elem,
)
from areasig import discrete, guard
from areasig.discrete import EXACT, _parse_token, _series
from areasig.errors import TermBudgetExceeded
from areasig.tensor import TensorElem, as_scalar, concat, exp_conc, unit
from areasig.trees import leaf_count

from conftest import (
    discrete_area_oracle,
    discrete_area_tree_oracle,
    discrete_integral_oracle,
    is_grouplike_oracle,
    signature_oracle,
    signature_pairing,
    solve_oracle,
)

F = Fraction

L_PATH = TimeSeries([(0, 0), (1, 0), (1, 1)])
SQUARE = TimeSeries([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


# -- series basics ------------------------------------------------------------


def test_series_must_start_at_zero():
    with pytest.raises(ValueError):
        ScalarSeries([1, 2])
    with pytest.raises(ValueError):
        TimeSeries([(1, 0), (0, 0)])


def test_series_reject_floats():
    for value in (0.1, float("inf")):
        with pytest.raises(TypeError, match="exact rational"):
            TimeSeries([(0, 0), (value, 0)])
    with pytest.raises(TypeError, match="exact rational"):
        ScalarSeries([0, 0.5])


def test_discrete_area_is_antisymmetric():
    a = ScalarSeries([0, 1, 3, 2])
    b = ScalarSeries([0, 2, 2, 5])
    left = discrete_area(a, b)
    right = discrete_area(b, a)
    assert left.values == [-v for v in right.values]
    assert left.values[0] == 0
    assert discrete_area(a, a).values == [0, 0, 0, 0]


def test_discrete_area_length_mismatch():
    with pytest.raises(ValueError):
        discrete_area(ScalarSeries([0, 1]), ScalarSeries([0, 1, 2]))


def test_l_path_values():
    assert checks.l_path_area_is_one()
    assert pairing(word_elem("12", 2), signature_pwl(L_PATH, 2)) == 1
    assert discrete_integral(L_PATH.coordinate(1), L_PATH.coordinate(2)).final() == 1


def test_square_loop_area_is_two():
    assert checks.square_loop_area_is_two()
    sig = signature_pwl(SQUARE, 2)
    assert pairing(area(letter_elem(1, 2), letter_elem(2, 2)), sig) == 2


def test_constant_zero_series():
    z = ScalarSeries([0, 0, 0])
    assert discrete_integral(z, z).values == [0, 0, 0]


# -- exact iteration of discrete areas ---------------------------------------


def test_leaf_tree_returns_coordinate():
    series = discrete_area_tree(1, L_PATH)
    assert series.values == L_PATH.coordinate(1).values


def test_tree_iteration_example():
    # a(a(1,2),3) iterates the two-argument rule
    ts = TimeSeries([(0, 0, 0), (1, 2, 1), (2, 0, 3), (1, 1, 1)])
    tree = ("a", ("a", 1, 2), 3)
    direct = discrete_area(
        discrete_area(ts.coordinate(1), ts.coordinate(2)), ts.coordinate(3)
    )
    assert discrete_area_tree(tree, ts).values == direct.values


def test_tree_labels_validated():
    # a zero class reads no coordinate, yet its letters are checked
    for tree in (3, ("a", 3, 3), ("s", 1, ("a", 3, 3)), parse_tree("a(a(1,3),a(1,3))")):
        for _ in range(2):
            with pytest.raises(ValueError, match="coordinate 3 outside 1..2"):
                discrete_area_tree(tree, L_PATH)
    with pytest.raises(ValueError, match="coordinate 0 outside 1..2"):
        discrete_area_tree(("a", 0, 0), L_PATH)


def test_unknown_node_kind_is_rejected():
    # an unknown kind is not iterated as an area
    with pytest.raises(ValueError, match="unknown node kind 'x'"):
        discrete_area_tree(("x", 1, 2), L_PATH)
    with pytest.raises(ValueError, match="unknown node kind 'x'"):
        discrete_area_tree(("s", 1, ("a", 2, ("x", 1, 2))), L_PATH)


def test_discrete_area_matches_signature_exactly():
    # mixed trees too: a shuffle node multiplies its children pointwise
    rng = random.Random(40)
    trees = [tree for n in range(1, 5) for tree in enumerate_mixed(2, n)]
    for _ in range(12):
        ts = checks.random_path(rng, rng.randint(1, 5))
        sig = signature_pwl(ts, 4)
        for tree in trees:
            assert discrete_area_tree(tree, ts).final() == pairing(
                mixed_eval(tree, 2), sig
            )
    with pytest.raises(ValueError, match="connected to the root"):
        discrete_area_tree(("a", ("s", 1, 2), 1), L_PATH)


def test_span_members_reproduce_breakpoint_series():
    # every span element of degree <= 4, written as an exact combination of
    # iterated-area trees, is reproduced breakpoint by breakpoint by the
    # matching combination of discrete-area series
    from areasig.span import area_span_basis

    rng = random.Random(41)
    paths = [checks.random_path(rng, 4) for _ in range(3)]
    prefix_sigs = [
        [
            signature_pwl(TimeSeries(ts.points[: k + 1]), 4)
            for k in range(len(ts.points))
        ]
        for ts in paths
    ]
    for n in range(1, 5):
        trees = enumerate_trees(2, n)
        tree_vectors = [dict(area_eval(tree, 2).terms()) for tree in trees]
        for phi in area_span_basis(2, n):
            coeffs = solve_oracle(tree_vectors, dict(phi.terms()))
            assert coeffs is not None
            for ts, sigs in zip(paths, prefix_sigs):
                series = [discrete_area_tree(tree, ts) for tree in trees]
                for k, sig in enumerate(sigs):
                    combined = sum(
                        c * s.values[k] for c, s in zip(coeffs, series) if c
                    )
                    assert combined == pairing(phi, sig)


def test_discrete_integral_matches_level_two_but_does_not_iterate():
    rng = random.Random(42)
    for _ in range(10):
        ts = checks.random_path(rng, 4)
        assert checks.trapezoid_matches_level_two(ts, signature_pwl(ts, 2))
    assert checks.noniterating_witness() is not None


# -- signatures ------------------------------------------------------------------


def test_single_segment_signature():
    ts = TimeSeries([(0, 0), (2, 3)])
    sig = signature_pwl(ts, 2)
    incr = letter_elem(1, 2) * 2 + letter_elem(2, 2) * 3
    assert sig == unit(2) + incr + concat(incr, incr) * F(1, 2)
    assert sig == exp_conc(incr, 2)


def test_chen_multiplicativity():
    rng = random.Random(43)
    for _ in range(6):
        ts = checks.random_path(rng, 4)
        split = rng.randint(1, 3)
        first = TimeSeries(ts.points[: split + 1])
        rest_pts = [
            tuple(p[i] - ts.points[split][i] for i in range(2))
            for p in ts.points[split:]
        ]
        second = TimeSeries(rest_pts)
        product = concat(signature_pwl(first, 4), signature_pwl(second, 4), 4)
        assert product == signature_pwl(ts, 4)


def test_signature_is_grouplike():
    rng = random.Random(44)
    for _ in range(4):
        ts = checks.random_path(rng, 3)
        assert is_grouplike(signature_pwl(ts, 4), 4)


def test_is_grouplike_agrees_with_the_word_pair_loop():
    # signatures, scaled signatures, a perturbed one and ones checked past
    # their level, over d <= 3 and level <= 4
    rng = random.Random(48)
    verdicts = []
    for d in (1, 2, 3):
        for level in (1, 2, 3, 4):
            sig = signature_pwl(_seeded_path(rng, d, 3), level)
            for g in (sig, sig * F(2), sig + word_elem((d,) * level, d) * F(1, 7)):
                for at in {level - 1 or 1, level, level + 1}:
                    verdicts.append(is_grouplike(g, at))
                    assert verdicts[-1] == is_grouplike_oracle(g, at), (d, level, at)
    assert True in verdicts and False in verdicts


def _seeded_path(rng, d, segments, dens=(1, 2, 3, 5)):
    pts = [(F(0),) * d]
    for _ in range(segments):
        pts.append(tuple(
            c + F(rng.randint(-6, 6), rng.choice(dens)) for c in pts[-1]
        ))
    return TimeSeries(pts)


def _assert_matches_oracles(ts, level):
    sig = signature_pwl(ts, level)
    assert sig == signature_oracle(ts, level)
    assert all(type(c) is Fraction for _, c in sig.terms())
    for i in range(1, ts.dim + 1):
        for j in range(1, ts.dim + 1):
            a, b = ts.coordinate(i), ts.coordinate(j)
            got = discrete_area(a, b)
            assert got == discrete_area_oracle(a, b)
            assert all(type(v) is Fraction for v in got.values)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_integer_kernels_match_their_oracles(d):
    rng = random.Random(90 + d)
    for level in range(1, 7):
        segments = rng.randint(2, 3) if d ** level <= 256 else 2
        _assert_matches_oracles(_seeded_path(rng, d, segments), level)


def test_integer_kernels_on_degenerate_paths():
    # a repeated point is a zero segment; the origin alone has signature 1
    repeated = TimeSeries([(0, 0), (1, F(1, 2)), (1, F(1, 2)), (F(-1, 3), 2)])
    _assert_matches_oracles(repeated, 5)
    origin = TimeSeries([(0, 0, 0)])
    assert signature_pwl(origin, 4) == unit(3) == signature_oracle(origin, 4)
    _assert_matches_oracles(origin, 4)


def test_axis_aligned_path_stays_sparse():
    ts = TimeSeries([(0,) * 5] + [(0, 0, F(t, 3), 0, 0) for t in (2, -1, 5, 4)])
    sig = signature_pwl(ts, 6)
    assert len(sig) == 7
    assert sig == signature_oracle(ts, 6)


def test_integer_kernels_with_large_prime_denominators():
    rng = random.Random(97)
    _assert_matches_oracles(_seeded_path(rng, 2, 4, dens=(7919, 7907, 1)), 5)
    ts = TimeSeries([(0, 0), (F(1, 7919), 0), (F(1, 7919), F(-3, 7907))])
    _assert_matches_oracles(ts, 4)


def _padded_path(rng, d, segments):
    """A seeded path of `segments` segments with zero segments added first,
    in the middle and last."""
    points = _seeded_path(rng, d, segments).points
    middle = (len(points) + 1) // 2
    return TimeSeries(
        points[:1] + points[:middle] + points[middle - 1 :] + points[-1:]
    )


@pytest.mark.parametrize("segments", [1, 2, 3, 7, 30])
def test_time_major_chain_matches_the_oracle(segments):
    rng = random.Random(200 + segments)
    for d in range(1, 5):  # up to 4^6 = 4096 words at level 6
        for level in (1, 2, 6):
            ts = _padded_path(rng, d, segments)
            assert len(ts) == segments + 4
            sig, oracle = signature_pwl(ts, level), signature_oracle(ts, level)
            # lowest terms on both sides: the stored ints themselves agree
            assert (sig._terms, sig._den) == (oracle._terms, oracle._den)


def test_a_cancelled_chain_value_replaces_the_old_series():
    ts = TimeSeries([(0,), (F(2, 3),), (F(2, 3),), (F(-2, 3),)])
    sig = signature_pwl(ts, 6)
    assert sig == signature_oracle(ts, 6)
    assert sig == exp_conc(letter_elem(1, 1) * F(-2, 3), 6)


def test_l_path_stays_sparse_at_high_level():
    sig = signature_pwl(L_PATH, 30)
    # the words 1^a 2^b with a + b <= 30, each 1 / (a! b!)
    assert len(sig) == sum(n + 1 for n in range(31))
    assert sig.truncate(8) == signature_oracle(L_PATH, 8)


def test_time_major_chain_drops_words_that_stay_zero():
    # x, then y, then x again: only the words 1^a 2^b 1^c occur, far fewer
    # than the 2^12 words a chain keeping all-zero lists would hold
    ts = TimeSeries([(0, 0), (F(1, 2), 0), (F(1, 2), 2), (F(-1, 3), 2)])
    previous = guard.get_term_budget()
    guard.set_term_budget(1000)
    try:
        sig = signature_pwl(ts, 12)
    finally:
        guard.set_term_budget(previous)
    assert all(re.fullmatch("1*2*1*", "".join(map(str, w))) for w in sig.words())
    assert sig.truncate(6) == signature_oracle(ts, 6)


def test_signature_past_nine_letters():
    origin = (0,) * 12
    step = tuple(F(i % 5 - 2, 3) if i >= 9 else 0 for i in range(12))
    ts = TimeSeries([origin, step, tuple(2 * v + (i == 11) for i, v in enumerate(step))])
    sig = signature_pwl(ts, 3)
    assert sig == signature_oracle(ts, 3)
    assert {letter for word in sig.words() for letter in word} == {10, 11, 12}


def test_signature_obeys_the_term_budget():
    ts = TimeSeries([(0, 0), (1, 2), (F(1, 2), 3)])
    previous = guard.get_term_budget()
    guard.set_term_budget(10)
    try:
        with pytest.raises(TermBudgetExceeded) as caught:
            signature_pwl(ts, 5)
    finally:
        guard.set_term_budget(previous)
    # stopped while building a level, before the 63-term result
    assert caught.value.needed < 63
    # in fact before building anything: 2 letters move, and 2^5 > 10
    assert caught.value.needed == 32


def test_signature_estimates_its_size_before_it_starts():
    ts = TimeSeries([(0, 0), (1, 1)])
    with pytest.raises(TermBudgetExceeded) as caught:
        signature_pwl(ts, 40)
    assert caught.value.needed == 2 ** 40
    assert "needs 1099511627776 terms" in str(caught.value)
    with pytest.raises(TermBudgetExceeded, match=r"needs at least 2\*\*20000 terms"):
        signature_pwl(ts, 20000)


def test_signature_budget_counts_the_terms_of_every_level():
    # one letter moves per segment, so the estimate is 1; levels 0 to 6 hold
    # 1, 2, 4, ..., 32 and 63 terms
    ts = TimeSeries([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    assert [len(signature_pwl(ts, 6).proj(n)) for n in range(7)] == [1, 2, 4, 8, 16, 32, 63]
    previous = guard.get_term_budget()
    guard.set_term_budget(60)
    try:
        with pytest.raises(TermBudgetExceeded) as caught:
            signature_pwl(ts, 6)
    finally:
        guard.set_term_budget(previous)
    # no level alone passes 60, levels 0 to 5 together do: stopped before level 6
    assert caught.value.needed == 63


def test_signature_pairing_mode():
    value = signature_pairing(word_elem("12", 2), L_PATH)
    assert value == 1 and isinstance(value, Fraction)
    with pytest.raises(ValueError, match="'inf' is not a finite"):
        load_timeseries("0,0\n1,inf\n")


# -- csv loading -----------------------------------------------------------------


def test_load_prepends_origin():
    ts = load_timeseries("1,0\n1,1\n")
    assert ts.points == [(0, 0), (1, 0), (1, 1)]
    assert all(isinstance(v, Fraction) for p in ts.points for v in p)
    assert ts.meta["zero_row_prepended"]


def test_load_reads_each_token_exactly_into_the_point_form():
    loaded = load_timeseries("0,0\n0.25,-3/6\n1e-3,2\n")
    points = [(F(0), F(0)), (F(1, 4), F(-1, 2)), (F(1, 1000), F(2))]
    assert loaded.points == TimeSeries(points).points
    assert loaded.coordinate(1) == TimeSeries(points).coordinate(1)
    assert loaded.coordinate(2) == TimeSeries(points).coordinate(2)
    assert not loaded.meta["zero_row_prepended"]


def test_load_decimals_exactly():
    ts = load_timeseries("0.5,0.25")
    assert ts.points == [(0, 0), (F(1, 2), F(1, 4))]


def test_load_fraction_tokens():
    ts = load_timeseries("1/3,2\n2/3,4\n")
    assert ts.points[1] == (F(1, 3), 2)


def test_load_header_and_floats():
    ts = load_timeseries("x,y\n0,0\n1/2,1\n")
    assert ts.meta["header_skipped"]
    assert ts.points == [(0, 0), (F(1, 2), 1)]
    for text, token in [
        ("x,y\n0,0\nnan,1\n", "nan"),
        ("0,0\n1,inf\n", "inf"),
        ("-inf,1\n", "-inf"),
        ("0.1,abc\n", "abc"),
    ]:
        with pytest.raises(ValueError, match="'%s' is not a finite" % token):
            load_timeseries(text)
    with pytest.raises(ValueError, match="header but no data rows"):
        load_timeseries("x,y\n")


@pytest.mark.parametrize("source", [
    b"\xef\xbb\xbf1,2\n3,4\n", "\ufeff1,2\n3,4\n", io.BytesIO(b"\xef\xbb\xbf1,2\n3,4\n"),
], ids=["bytes", "str", "binary-file"])
def test_load_skips_one_leading_byte_order_mark(source):
    plain = load_timeseries(b"1,2\n3,4\n")
    loaded = load_timeseries(source)
    assert loaded.points == plain.points == [(0, 0), (1, 2), (3, 4)]
    assert loaded.meta == plain.meta


def test_load_rejects_bad_input():
    with pytest.raises(ValueError):
        load_timeseries("")
    with pytest.raises(ValueError):
        load_timeseries("1,2\n3\n")
    with pytest.raises(ValueError):
        load_timeseries("1,zzz9\n")


# Tokens the CSV reader takes, each read as Fraction reads it.
ACCEPTED_TOKENS = (
    "0", "-0", "+7", "-3", "007", " 5 ", "\t-2/6 ", "3/4", "-6/8", "12/08", "0/5",
    "1.5", "-.25", "1.", "+0.0", "2e3", "1.5E-2", "1e-3", ".5e+2", "0e0", "-7E1",
)
# Tokens it refuses: non-ASCII digits, underscores, spaces inside p/q (all
# of which some Python version's Fraction takes), zero denominators, and
# whatever is not a finite rational number.
REJECTED_TOKENS = (
    "\u0661", "\u0661/3", "1/\u0662", "\uff11", "\u00bd", "\u00b2", "1\u00a0",
    "1_000", "1/1_0", "1e1_0", "3 / 4", "3/ 4", "1 2",
    "1/0", "-5/00",
    "", " ", ".", "e5", "1e", ".e1", "/3", "1/", "1/-2", "1/+2", "1/2.5", "1.5/2",
    "1e5/2", "--1", "+-1", "0x10", "nan", "inf", "-inf", "Infinity",
)


def test_csv_tokens_read_as_fraction_reads_them():
    for token in ACCEPTED_TOKENS:
        value = Fraction(token)
        assert _parse_token(token) == (value.numerator, value.denominator), token


@pytest.mark.parametrize("token", REJECTED_TOKENS)
def test_csv_tokens_outside_the_ascii_grammar_are_refused(token):
    assert _parse_token(token) is None
    with pytest.raises(ValueError, match="token %s is not a finite" % re.escape(repr(token))):
        load_timeseries("0,0\n1,%s\n" % token)


def test_scalar_text_reads_as_fraction_reads_it():
    for token in ACCEPTED_TOKENS:
        assert as_scalar(token) == Fraction(token), token
    assert TimeSeries([(0, 0), ("1/2", " -3 ")]).points[1] == (F(1, 2), F(-3))
    entry = {"word": "12", "num": " -6 ", "den": "+8"}
    assert TensorElem.from_json_obj([entry], 2) == word_elem("12", 2) * F(-3, 4)
    assert TensorElem.from_json_obj([dict(entry, num=-6, den=8)], 2) == (
        word_elem("12", 2) * F(-3, 4))


@pytest.mark.parametrize("token", REJECTED_TOKENS + ("1e4301", "1e-4301"))
def test_text_outside_the_ascii_grammar_is_refused_everywhere(token):
    with pytest.raises(ValueError, match="is not a finite rational"):
        as_scalar(token)
    with pytest.raises(ValueError, match="is not a finite rational"):
        TimeSeries([(0, 0), (token, 1)])
    for part in ("num", "den"):
        entry = {"word": "1", "num": "1", "den": "1", part: token}
        with pytest.raises(ValueError, match="is not an integer in ASCII digits"):
            TensorElem.from_json_obj([entry], 2)


@pytest.mark.parametrize("text", ["1/2", "1.5", "2.", "2e0", "1e4301", 1.5, True, None])
def test_json_coefficients_are_integers_in_ascii_digits(text):
    with pytest.raises(ValueError, match="is not an integer in ASCII digits"):
        TensorElem.from_json_obj([{"word": "1", "num": text, "den": "1"}], 2)


def test_csv_exponents_are_bounded():
    assert _parse_token("1e4300") == (10**4300, 1)
    assert _parse_token("-2.5e-4300") == (-1, 4 * 10**4299)
    series = load_timeseries("0,0\n1e4300,1e-4300\n")
    assert series.points[1] == (F(10**4300), F(1, 10**4300))
    for token in ("1e4301", "1e-4301", "1e999999999", "-1.5E+4301", "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("token %r is not a finite" % token)):
            load_timeseries("0,0\n1,%s\n" % token)
        assert time.perf_counter() - start < 0.5, token


def test_series_json():
    series = ScalarSeries([0, F(1, 2)])
    assert series.to_json_obj() == {"mode": EXACT, "values": ["0", "1/2"]}
    series = ScalarSeries([0, F(-4, 6), 3, F(5, 4), -2])
    assert series.to_json_obj()["values"] == [str(v) for v in series.values]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
def test_a_series_value_too_long_to_write_is_named():
    message = "the value at breakpoint 2 has more than %d digits" % sys.get_int_max_str_digits()
    for series in (ScalarSeries([0, 1, 10**4300]), ScalarSeries([0, 1, F(1, 10**4300)])):
        with pytest.raises(ValueError, match=re.escape(message)):
            series.to_json_obj()


# The same points as ints, Fractions and strings, and as CSV text: columns
# whose denominators are shared (thirds) or not (halves against sevenths).
PARITY_POINTS = [
    [(0, 0), (1, 2), (-3, 5)],
    [(0, 0), (F(1, 3), F(2, 3)), (F(-4, 3), F(5, 3))],
    [(0, 0), (F(1, 2), F(3, 7)), (F(-5, 4), 2), (3, F(-9, 14))],
    [(0, F(0, 5)), (F(6, 4), F(-10, 15)), (F(1, 6), 4)],
]


@pytest.mark.parametrize("points", PARITY_POINTS)
def test_timeseries_and_load_timeseries_agree(points):
    csv = "".join(",".join(str(v) for v in p) + "\n" for p in points)
    loaded = load_timeseries(csv)
    for given in (points, [tuple(str(v) for v in p) for p in points],
                  [tuple(F(v) for v in p) for p in points]):
        series = TimeSeries(given)
        assert series.dim == loaded.dim == 2
        for i in (1, 2):
            a, b = series.coordinate(i), loaded.coordinate(i)
            assert (a._nums, a._divisor) == (b._nums, b._divisor)
            assert a.values == [F(p[i - 1]) for p in points]
            assert _in_lowest_terms(a)


def test_fractional_path_signature_json_is_as_recorded():
    # a byte pin: a change here is a change of the JSON format
    path = TimeSeries([(0, 0), (F(1, 2), F(1, 3)), (F(-2, 3), F(5, 4))])
    assert signature_pwl(path, 2).to_json() == (
        '[{"word": "e", "num": "1", "den": "1"}, {"word": "1", "num": "-2", "den": "3"}, '
        '{"word": "2", "num": "5", "den": "4"}, {"word": "11", "num": "2", "den": "9"}, '
        '{"word": "12", "num": "1", "den": "144"}, {"word": "21", "num": "-121", "den": "144"}, '
        '{"word": "22", "num": "25", "den": "32"}]')
    loaded = load_timeseries("1/2,1/3\n-2/3,5/4\n")
    assert signature_pwl(loaded, 2).to_json() == signature_pwl(path, 2).to_json()


# -- one integer form ------------------------------------------------------------


def _in_lowest_terms(series):
    nums, den = series._nums, series._divisor
    return den > 0 and gcd(den, *nums) == 1 and (any(nums) or den == 1)


@pytest.mark.parametrize("d", [2, 3])
def test_integer_tree_walk_matches_the_fraction_oracle(d):
    rng = random.Random(140 + d)
    trees = [tree for n in range(1, 5) for tree in enumerate_mixed(d, n)]
    paths = [
        _seeded_path(rng, d, rng.randint(1, 4), dens=range(1, 13)) for _ in range(3)
    ]
    # an all-zero coordinate: its series, and every product with it, is over 1
    paths.append(TimeSeries([(0,) * d, (0,) * (d - 1) + (F(1, 6),)]))
    for ts in paths:
        for tree in trees:
            got = discrete_area_tree(tree, ts)
            assert got.values == discrete_area_tree_oracle(tree, ts).values
            assert _in_lowest_terms(got)


def test_discrete_integral_matches_the_trapezoid_oracle():
    rng = random.Random(150)
    for _ in range(6):
        ts = _seeded_path(rng, 3, rng.randint(1, 5), dens=range(1, 13))
        for i in range(1, 4):
            for j in range(1, 4):
                a, b = ts.coordinate(i), ts.coordinate(j)
                got = discrete_integral(a, b)
                assert got.values == discrete_integral_oracle(a, b).values
                assert _in_lowest_terms(got)
                nested = discrete_integral(got, ts.coordinate(i))
                oracle = discrete_integral_oracle(got, ts.coordinate(i))
                assert nested.values == oracle.values


def test_every_series_is_in_lowest_terms():
    zero = ScalarSeries([0, 0, F(0, 7)])
    assert zero._nums == (0, 0, 0) and zero._divisor == 1
    assert ScalarSeries([0, F(2, 4), F(3, 9)])._divisor == 6
    flat = TimeSeries([(0, 0), (F(1, 3), 0), (F(2, 3), 0)])
    x, y = flat.coordinate(1), flat.coordinate(2)
    results = [
        x, y, discrete_area(x, y), discrete_area(x, x), discrete_integral(x, y),
        discrete_integral(x, x), discrete_area_tree(("s", 1, 1), flat),
        discrete_area_tree(("s", 1, 2), flat),
    ]
    assert all(_in_lowest_terms(series) for series in results)
    assert [series._divisor for series in results] == [3, 1, 1, 1, 1, 18, 9, 1]


def test_points_round_trip_as_fractions():
    rng = random.Random(160)
    for d in (1, 2, 3):
        ts = _seeded_path(rng, d, 4, dens=range(1, 13))
        again = TimeSeries(ts.points)
        assert again.points == ts.points
        assert all(type(v) is Fraction for p in again.points for v in p)
        assert all(again.coordinate(i) == ts.coordinate(i) for i in range(1, d + 1))
        column = again.coordinate(d)
        assert column[1:] == column.values[1:] == [p[-1] for p in ts.points[1:]]
        assert column[-1] == column.final() == ts.points[-1][-1]


# -- one evaluation per subtree and path ---------------------------------------------

# the area trees of the benchmark's features job: 21 distinct area subtrees,
# in 3 classes up to sign: a(1,2), a(1,a(1,2)) and a(2,a(1,2))
FEATURE_TREES = [t for n in (1, 2, 3) for t in enumerate_trees(2, n)] + [
    parse_tree("a(a(1,2),a(2,1))")
]


def _unshared_area_tree(tree, x):
    """The walk before subtrees were shared, kept as an oracle: every call
    recomputes every subtree of the tree as given, with the indexed integer
    steps."""
    if isinstance(tree, int):
        return x.coordinate(tree)
    kind, left, right = tree
    a, b = _unshared_area_tree(left, x), _unshared_area_tree(right, x)
    p, q, den = a._nums, b._nums, a._divisor * b._divisor
    if kind == "s":
        return _series((u * v for u, v in zip(p, q)), den)
    steps = (p[i] * q[i + 1] - p[i + 1] * q[i] for i in range(len(p) - 1))
    return _series(accumulate(steps, initial=0), den)


def _path_with_zero_segments(rng, d, segments):
    """A seeded path on which every third segment, counting from the first,
    stands still."""
    pts = [(F(0),) * d]
    for k in range(segments):
        pts.append(pts[-1] if k % 3 == 0 else tuple(
            c + F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for c in pts[-1]
        ))
    return TimeSeries(pts)


def _has_shuffle(tree):
    return not isinstance(tree, int) and (
        tree[0] == "s" or _has_shuffle(tree[1]) or _has_shuffle(tree[2])
    )


@pytest.mark.parametrize("d, trees", [
    (2, FEATURE_TREES),
    (3, [t for n in (1, 2, 3) for t in enumerate_mixed(3, n)]),
    *((d, [t for n in range(1, 5) for t in enumerate_trees(d, n)]) for d in (1, 2, 3)),
    (2, [t for n in range(1, 5) for t in enumerate_mixed(2, n)]),
])
def test_shared_subtrees_match_the_unshared_walk_and_the_signature(d, trees):
    rng = random.Random(170 + d)
    paths = [_seeded_path(rng, d, rng.randint(1, 6), dens=range(1, 10)) for _ in range(4)]
    paths += [_path_with_zero_segments(rng, d, segments) for segments in (1, 4, 7)]
    level = max(map(leaf_count, trees))
    for ts in paths:
        sig = signature_pwl(ts, level)
        # twice, the second time in reverse, so that every result is read
        # back from the path's table as well as computed
        for tree in trees + trees[::-1]:
            got = discrete_area_tree(tree, ts)
            # equal series: the same numerators at every breakpoint over one divisor
            assert len(got) == len(ts) and _in_lowest_terms(got)
            assert got == _unshared_area_tree(tree, ts)
            assert got.final() == pairing(mixed_eval(tree, d), sig)
            if not _has_shuffle(tree):
                assert got.final() == pairing(area_eval(tree, d), sig)


def test_a_zero_class_is_all_zeros_over_one_and_an_invalid_tree_always_raises():
    ts = _path_with_zero_segments(random.Random(185), 2, 5)
    for text in ("a(1,1)", "a(a(1,2),a(1,2))", "a(a(1,2),a(2,1))", "s(a(2,2),1)"):
        zero = discrete_area_tree(parse_tree(text), ts)
        assert zero._nums == (0,) * len(ts) and zero._divisor == 1
    invalid = ("a", 1, ("s", 1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="connected to the root"):
            discrete_area_tree(invalid, ts)


def test_each_area_subtree_is_evaluated_once_per_path(monkeypatch):
    calls = []
    kernel = discrete.discrete_area

    def spy(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(discrete, "discrete_area", spy)
    ts = _seeded_path(random.Random(180), 2, 30)
    assert len(FEATURE_TREES) == 23
    for tree in FEATURE_TREES:
        discrete_area_tree(tree, ts)
    assert len(calls) == 3
    for tree in FEATURE_TREES:
        discrete_area_tree(tree, ts)
    assert len(calls) == 3
    discrete_area_tree(("a", 1, 2), TimeSeries(ts.points))  # another path, its own table
    assert len(calls) == 4


def test_the_subtree_table_does_not_keep_a_path_alive():
    ts = _seeded_path(random.Random(190), 2, 5)
    series = [discrete_area_tree(tree, ts) for tree in FEATURE_TREES]
    ref = weakref.ref(ts)
    del ts
    gc.collect()
    assert ref() is None
    assert series[-1].final() == 0  # a(a(1,2),a(2,1)) = -a(a(1,2),a(1,2))
