"""Time series, discrete signed areas and exact signatures of linear splines.

A TimeSeries is a breakpoint sequence anchored at the origin; there are no
timestamps because the signature does not see the parametrization.  Values
are coerced by tensor.as_scalar (a float is rejected with a TypeError) and
stored once, as int numerators over one denominator; every operation runs
on those ints and all identities here hold with exact equality.  CSV input
is read exactly, in ASCII digits only: a token that is not a finite
rational number in that form (nan, inf, a non-ASCII digit, an exponent
past 4300, or text in a data row) is rejected with a ValueError naming it.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, floordiv, mul, neg, sub

from .errors import _parse_token, _text
from .guard import check_term_budget
from .memo import memo_per_owner
from .tensor import EMPTY_WORD, TensorElem, _code, _over_lcm, _ratio
from .trees import SHUFFLE, is_leaf, signed_form
from .words import appended

EXACT = "exact_rational"

# segments per block of signature_pwl's time-major chain
_BLOCK = 256


class ScalarSeries:
    """Scalar breakpoint values v0 = 0, v1, ..., vn, held as int _nums over one
    positive int _divisor in lowest terms (an all-zero series is over 1)."""

    __slots__ = ("_nums", "_divisor")

    def __init__(self, values):
        ratios = [_ratio(v) for v in values]
        if not ratios:
            raise ValueError("a series needs at least the starting value")
        if ratios[0][0]:
            raise ValueError("series must start at zero")
        self._nums, self._divisor = _over_lcm(ratios)

    @property
    def values(self):
        return [Fraction(n, self._divisor) for n in self._nums]

    def __len__(self):
        return len(self._nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.values[i]
        return Fraction(self._nums[i], self._divisor)

    def __eq__(self, other):
        return isinstance(other, ScalarSeries) and (
            self._divisor, self._nums) == (other._divisor, other._nums)

    def __repr__(self):
        return "ScalarSeries(%r)" % (self.values,)

    def final(self):
        return Fraction(self._nums[-1], self._divisor)

    def to_json_obj(self):
        """A value too long to write raises a ValueError naming its breakpoint."""
        values = [_text(v, "the value at breakpoint %d", i) for i, v in enumerate(self.values)]
        return {"mode": EXACT, "values": values}

    def to_json(self):
        return json.dumps(self.to_json_obj())


def _series(nums, den) -> ScalarSeries:
    """int `nums` (starting at 0) over the positive int `den`, reduced by one gcd."""
    nums = tuple(nums)
    common = gcd(den, *nums)
    if common != 1:
        nums, den = tuple(map(floordiv, nums, repeat(common))), den // common
    return _stored(nums, den)


def _stored(nums, den) -> ScalarSeries:
    """The series of the int tuple `nums` over `den`, already in lowest terms."""
    series = object.__new__(ScalarSeries)
    series._nums, series._divisor = nums, den
    return series


class TimeSeries:
    """Points x0 = 0, x1, ..., xn in ambient dimension d, one series per axis.

    A TimeSeries is weakly referable, so that discrete_area_tree's table of
    subtree series lives exactly as long as the path it belongs to."""

    __slots__ = ("dim", "_columns", "meta", "__weakref__")

    def __init__(self, points, meta=None):
        self._fill([[_ratio(v) for v in p] for p in points], meta)

    def _fill(self, rows, meta):
        """Set the points from rows of (numerator, denominator) pairs in lowest terms."""
        if not rows:
            raise ValueError("a time series needs at least the origin")
        dims = set(map(len, rows))
        if len(dims) != 1:
            raise ValueError("points have mixed dimensions")
        self.dim = dims.pop()
        if self.dim < 1:
            raise ValueError("need dimension >= 1")
        if any(n for n, _ in rows[0]):
            raise ValueError("time series must start at the origin")
        self._columns = tuple(_stored(*_over_lcm(column)) for column in zip(*rows))
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self._columns[0])

    @property
    def points(self):
        return list(zip(*(column.values for column in self._columns)))

    def coordinate(self, i: int) -> ScalarSeries:
        """The i-th coordinate (letters count from 1) as a scalar series."""
        if not 1 <= i <= self.dim:
            raise ValueError("coordinate %d outside 1..%d" % (i, self.dim))
        return self._columns[i - 1]


def discrete_area(a: ScalarSeries, b: ScalarSeries) -> ScalarSeries:
    """Antisymmetrized cross-correlation of two series.

    The orientation is fixed so that the final value equals the pairing of
    the signed-area element with the signature of the linear interpolation,
    exactly; see signature_pwl.  It sums numerators over den_a den_b.
    """
    if len(a) != len(b):
        raise ValueError("series lengths differ")
    p, q = a._nums, b._nums
    steps = map(sub, map(mul, p, q[1:]), map(mul, p[1:], q))
    return _series(accumulate(steps, initial=0), a._divisor * b._divisor)


def discrete_integral(a: ScalarSeries, b: ScalarSeries) -> ScalarSeries:
    """Trapezoid-rule integral of a against the increments of b.

    Its final value matches the order-two signature coefficient, but unlike
    discrete_area this rule does not iterate to higher orders.
    """
    if len(a) != len(b):
        raise ValueError("series lengths differ")
    p, q = a._nums, b._nums
    steps = map(mul, map(add, p, p[1:]), map(sub, q[1:], q))
    return _series(accumulate(steps, initial=0), 2 * a._divisor * b._divisor)


def discrete_area_tree(tree, x: TimeSeries) -> ScalarSeries:
    """Iterate discrete_area through a labeled binary tree.

    An area node ('a') is the discrete area of its children's series and a
    shuffle node ('s') their pointwise product.  The signature pairing is a
    character of the shuffle product and shuffle nodes only form the crown
    at the root, so the series is exact at every breakpoint.

    The discrete area is antisymmetric and vanishes on equal series, as
    integers, since its step is p_i q_(i+1) - p_(i+1) q_i, and the
    pointwise product commutes.  So each tree is evaluated as its
    trees.signed_form: the result is the canonical tree's series, its exact
    negation, or the all-zero series over 1.  Each distinct canonical
    subtree is evaluated once per path: its series is kept in a table that
    belongs to x and lives as long as x, and every later call on x whose
    tree shares that subtree, up to sign, reuses it.  A letter outside
    1..x.dim raises a ValueError, in a zero class too.
    """
    sign, canonical = signed_form(tree)
    if not sign:
        _check_letters(tree, x)
        return _stored((0,) * len(x), 1)
    series = _discrete_area_tree(x, canonical)
    if sign < 0:
        return _stored(tuple(map(neg, series._nums)), series._divisor)
    return series


def _check_letters(tree, x: TimeSeries) -> None:
    """Raise as x.coordinate does for a leaf outside 1..x.dim.  A zero
    class reads no leaf, and a canonical tree has the same leaves as the
    tree it stands for, so this is only needed for a zero class."""
    if is_leaf(tree):
        x.coordinate(tree)
    else:
        _check_letters(tree[1], x)
        _check_letters(tree[2], x)


@memo_per_owner
def _discrete_area_tree(x: TimeSeries, tree) -> ScalarSeries:
    """The series of a canonical tree, whose subtrees are all canonical."""
    if is_leaf(tree):
        return x.coordinate(tree)
    kind, left, right = tree
    a, b = _discrete_area_tree(x, left), _discrete_area_tree(x, right)
    if kind == SHUFFLE:
        return _series(map(mul, a._nums, b._nums), a._divisor * b._divisor)
    return discrete_area(a, b)


def signature_pwl(x: TimeSeries, level: int = 5) -> TensorElem:
    """Truncated signature of the piecewise-linear path through the points.

    Each segment multiplies the running signature S by the exponential of
    its increment z.  Level n of the product is the sum over i of
    S_i z^(n-i) / (n-i)!, computed by Horner's rule (as in Signatory and
    iisignature): acc_0 = S_0, acc_j = acc_(j-1) z / (n-j+1) + S_j, and
    the new S_n is acc_n.  The result is grouplike up to the level.

    The arithmetic is on integers: with D the lcm of the coordinates' stored
    denominators and L = level, level n is held as words -> int equal to
    the coefficient times L! D^n, and D z is an integer vector.  Every
    division is exact: a term of acc_j that comes from S_i and segments
    taken k_1, ..., k_m times is an integer divided by k_1! ... k_m!
    (n-i)! / (n-j)!, which divides i! (n-i)!, hence n!, hence L!.

    The chain runs time-major, over all segments at once.  The first
    nonzero segment starts from the unit, so its product is exp(z), built
    level by level as E_n = E_(n-1) z / n = L! z^n / n!.  Over the other
    segments a chain value is one int list per word, its value at each
    segment, and S_j is the word's list of values before each segment.
    acc_j is then computed element by element, so each of its ints is the
    one that a Horner step at that segment computes, and each division
    stays exact.  Levels go bottom up, as acc_(n-1) needs S_0..S_(n-1)
    only: level n's list is the running sum of its increments acc_(n-1) z
    from its value before these segments, and the top level needs only its
    final value, one dot product per word.  The segments go in blocks of
    _BLOCK, so that a long path holds at most _BLOCK ints per word.

    Sparsity: zero segments are skipped, only letters that move enter z,
    and a word whose list is all zero is dropped, which is exact as every
    step is linear.  A chain value that cancels to zero replaces the word's
    old series rather than falling back to it.  So an axis-aligned path
    stays sparse.  Words are the tensor store's codes, extended by
    words.appended; the levels go to the store as int numerators over
    their one denominator L! D^L.

    The term budget is checked before anything is built, against the
    largest (letters moving in one segment) ** level: Horner's top level
    at that segment holds at least that many words.  In the loop each
    chain step is checked against the words it makes, and each finished
    level against the nonzero terms of all levels so far.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    dim = x.dim
    den = lcm(*(c._divisor for c in x._columns))
    rows = list(zip(*([n * (den // c._divisor) for n in c._nums] for c in x._columns)))
    steps = [z for z in (
        [e - s for s, e in zip(start, end)] for start, end in zip(rows, rows[1:])
    ) if any(z)]
    check_term_budget(max((sum(map(bool, z)) for z in steps), default=1) ** level)
    scale = factorial(level)
    first = [(a + 1, z) for a, z in enumerate(steps[0]) if z] if steps else []
    levels = [{_code(EMPTY_WORD, dim): scale}]
    for n in range(1, level + 1):
        check_term_budget(sum(map(len, levels)) + len(levels[-1]) * len(first))
        levels.append({w: c * z // n for w, c, z in appended(levels[-1], first, dim)})
    for b in range(1, len(steps), _BLOCK):
        block = steps[b : b + _BLOCK]
        m = len(block)
        letters = [(a + 1, z) for a, z in enumerate(zip(*block)) if any(z)]
        series = [{w: [c] * m for w, c in levels[0].items()}]
        for n in range(1, level + 1):
            acc = series[0]
            for j in range(1, n):
                check_term_budget(len(acc) * len(letters))
                div = n - j + 1
                nxt = dict(series[j])
                for w, c, z in appended(acc, letters, dim):
                    old = nxt.get(w)
                    if old is None:
                        step = [p * q // div for p, q in zip(c, z)]
                    else:
                        step = [p * q // div + o for p, q, o in zip(c, z, old)]
                    if any(step):
                        nxt[w] = step
                    elif old is not None:
                        del nxt[w]  # cancelled: the old series must not stay
                acc = nxt
            check_term_budget(len(acc) * len(letters))
            start = levels[n]
            if n == level:
                top = start | {
                    w: start.get(w, 0) + sum(map(mul, c, z))
                    for w, c, z in appended(acc, letters, dim)
                }
                levels[n] = {w: c for w, c in top.items() if c}
            else:
                grown = {
                    w: values for w, c, z in appended(acc, letters, dim)
                    if any(values := list(accumulate(map(mul, c, z), initial=start.get(w, 0))))
                }
                grown.update((w, [c] * (m + 1)) for w, c in start.items() if w not in grown)
                series.append(grown)
                levels[n] = {w: values[-1] for w, values in grown.items() if values[-1]}
            check_term_budget(sum(map(len, levels[: n + 1])))
    powers = [den ** (level - n) for n in range(level + 1)]
    return TensorElem._over(dim, {
        w: c * power
        for terms, power in zip(levels, powers)
        for w, c in terms.items()
    }, scale * powers[0])


def _is_numeric(cell: str) -> bool:
    """Whether a cell reads as a number, finite or not (a header has none)."""
    try:
        float(cell)
    except ValueError:
        return _parse_token(cell) is not None
    return True


def load_timeseries(source) -> TimeSeries:
    """Read a d-column CSV (optional header) into an origin-anchored series.

    Row 0 is a header when none of its cells is numeric; the other rows
    become the points, and a leading zero row is prepended when absent.
    Every token must be an integer p, a fraction p/q, or a decimal with an
    optional exponent of at most 4300 in magnitude, in ASCII digits with an
    optional sign, read exactly (the grammar is errors._TOKEN); any other
    token (nan, inf, 1_000, 1e4301, a non-ASCII digit, text) raises a
    ValueError naming it.  One leading byte-order mark, which spreadsheets
    write for "CSV UTF-8", is skipped.
    """
    text = source if isinstance(source, (str, bytes)) else source.read()
    text = text.decode("utf-8-sig") if isinstance(text, bytes) else text.removeprefix("\ufeff")
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("empty csv input")
    header_skipped = not any(_is_numeric(cell) for cell in rows[0])
    rows = rows[header_skipped:]
    if not rows:
        raise ValueError("csv has a header but no data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError("ragged csv rows: widths %s" % sorted(widths))
    parsed = [[_parse_token(cell) for cell in row] for row in rows]
    for row, ratios in zip(rows, parsed):
        if None in ratios:
            raise ValueError("csv token %r is not a finite rational number in ASCII "
                             "digits" % row[ratios.index(None)])
    anchored = not any(num for num, _ in parsed[0])
    series = TimeSeries.__new__(TimeSeries)
    series._fill(parsed if anchored else [[(0, 1)] * len(parsed[0])] + parsed,
                 {"zero_row_prepended": not anchored, "header_skipped": header_skipped})
    return series
