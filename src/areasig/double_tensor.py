"""Combinations of word-pairs: shuffle on the left, concatenation on the right.

The grading of a pair (p, q) is the length of the right word q, so proj,
truncate, grading_d and grading_d_inv of the tensor module act on the right
side only.  Products truncate at their `level` argument alone; left factors
grow without bound, exactly as the product rules require.

This module holds word-pair rules and builders only: each product names a
rule on left words and a rule on right words for the tensor module's
pair-key bilinear lift, and eval_at / coeval_at are its contraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import itemgetter

from .errors import EmptyWordOperand
from .tensor import (
    EMPTY_WORD,
    TensorElem,
    _areas,
    _bilinear,
    _contract,
    _empty_left,
    _map_right,
    _outer,
    _scaled,
    _Terms,
    linear_combination,
    shuffle_words,  # unused here; bench/test_bench.py checks this re-import
    words_of_length,
)
from .words import length, r_codes


class DoubleTensor(_Terms):
    """Finite map (left word, right word) -> rational, held as int numerators
    over one denominator and graded by the right word."""

    __slots__ = ()

    @staticmethod
    def _grade(key, k):
        return length(key[1], k)

    # terms() runs in (right word, left word) order, each word by length and
    # then lexicographically, as the codes compare
    _order = staticmethod(itemgetter(1, 0))


def zero_double(dim: int) -> DoubleTensor:
    return DoubleTensor(dim, {})


def unit_double(dim: int) -> DoubleTensor:
    return DoubleTensor(dim, {(EMPTY_WORD, EMPTY_WORD): 1})


def tensor_pair(left: TensorElem, right: TensorElem, level=None) -> DoubleTensor:
    """Outer product of a left-side and a right-side element."""
    if level is not None:
        right = right.truncate(level)
    return _outer(left, right, DoubleTensor)


# -- products ---------------------------------------------------------------


def box_mul(a: DoubleTensor, b: DoubleTensor, level=None) -> DoubleTensor:
    """Shuffle the left components, concatenate the right ones."""
    return _bilinear(DoubleTensor, a.dim, ((a, b, 1),), level=level)


def _check_left_nonempty(role, *xs):
    if any(map(_empty_left, xs)):
        raise EmptyWordOperand("%s must have empty-word-free left factors" % role)


def dendriform(a: DoubleTensor, b: DoubleTensor, which: str, level=None) -> DoubleTensor:
    """Half-shuffle on the left, concatenation on the right.

    which='succ' shuffles into the last letter of b's left factor,
    which='prec' into the last letter of a's.  The two halves add up to
    box_mul.
    """
    if which == "succ":
        _check_left_nonempty("succ right operand", b)
        return _bilinear(DoubleTensor, a.dim, ((a, b, 1),), cut=1, level=level)
    if which == "prec":
        _check_left_nonempty("prec left operand", a)
        return _bilinear(DoubleTensor, a.dim, ((a, b, 1),), cut=0, level=level)
    raise ValueError("which must be 'succ' or 'prec'")


def pre_lie_sum(dim: int, pairs, level=None) -> DoubleTensor:
    """The sum of s * pre_lie(a, b) over the (a, b, s) in `pairs`, each over
    the alphabet 1..dim, in one accumulator."""
    pairs = list(pairs)
    _check_left_nonempty("pre-Lie right operand", *(b for _, b, _ in pairs))
    return _bilinear(DoubleTensor, dim, pairs, cut=1, bracket=True, level=level)


def pre_lie(a: DoubleTensor, b: DoubleTensor, level=None) -> DoubleTensor:
    """Half-shuffle on the left, commutator on the right."""
    return pre_lie_sum(a.dim, ((a, b, 1),), level)


def pre_lie_sym_sum(dim: int, pairs, level=None) -> DoubleTensor:
    """The sum of s * pre_lie_sym(a, b) over the (a, b, s) in `pairs`, each
    over the alphabet 1..dim, in one accumulator: the area of the left
    words (x) the commutator of the right words, each pair visited once."""
    pairs = list(pairs)
    _check_left_nonempty("pre-Lie right operand", *(z for a, b, _ in pairs for z in (b, a)))
    return _areas(DoubleTensor, dim, *_scaled(dim, pairs), level)


def pre_lie_sym(a: DoubleTensor, b: DoubleTensor, level=None) -> DoubleTensor:
    """pre_lie(a, b) + pre_lie(b, a): area on the left, bracket on the right."""
    return pre_lie_sym_sum(a.dim, ((a, b, 1),), level)


def box_bracket_sum(dim: int, pairs, level=None) -> DoubleTensor:
    """The sum of s * box_bracket(a, b) over the (a, b, s) in `pairs`, each
    over the alphabet 1..dim, in one accumulator."""
    return _bilinear(DoubleTensor, dim, pairs, bracket=True, level=level)


def box_bracket(a: DoubleTensor, b: DoubleTensor, level=None) -> DoubleTensor:
    """Commutator of box_mul: shuffle left, bracket right."""
    return box_bracket_sum(a.dim, ((a, b, 1),), level)


def nested_box_bracket(items) -> DoubleTensor:
    """Right-nested box bracket [x1,[x2,...[x_{n-1},xn]...]].

    Public API only: lambda_element's recursion builds its brackets through
    a per-call table of composition tails, so no caller in the library
    uses this fold.
    """
    items = list(items)
    if not items:
        raise ValueError("need at least one element")
    acc = items[-1]
    for x in reversed(items[:-1]):
        acc = box_bracket(x, acc)
    return acc


# -- right-side operators ----------------------------------------------------


def r_hat(a: DoubleTensor) -> DoubleTensor:
    """Apply the right-bracketing operator to every right word."""
    return _map_right(a, r_codes)


# -- evaluation ---------------------------------------------------------------


def eval_at(x: TensorElem, f: DoubleTensor) -> TensorElem:
    """Pair the left factors against x, leaving a right-side element."""
    return _contract(f, x, 0)


def coeval_at(y: TensorElem, f: DoubleTensor) -> TensorElem:
    """Pair the right factors against y, leaving a left-side element."""
    return _contract(f, y, 1)


# -- canonical elements --------------------------------------------------------


def s_element(d: int, level: int) -> DoubleTensor:
    """Sum of w (x) w over all words of length <= level."""
    terms = {}
    for n in range(level + 1):
        for w in words_of_length(d, n):
            terms[(w, w)] = 1
    return DoubleTensor(d, terms)


def r_element(d: int, level: int, method: str = "direct") -> DoubleTensor:
    """Sum of w (x) r(w); equivalently the quadratic fixed-point solution."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if method == "direct":
        return r_hat(s_element(d, level))
    if method == "recursion":
        # level n of the fixed point D(R) - R = pre_lie(R, R): (n-1) R_n is
        # the sum over the splits s of pre_lie(R_s, R_(n-s))
        parts = [r_level_one(d)]
        for n in range(2, level + 1):
            weight = Fraction(1, n - 1)
            parts.append(pre_lie_sum(d, (
                (parts[split - 1], parts[n - split - 1], weight) for split in range(1, n)
            )))
        return linear_combination(zero_double(d), ((part, 1) for part in parts))
    raise ValueError("unknown r_element method %r" % method)


def r_level_one(d: int) -> DoubleTensor:
    return DoubleTensor(d, {((i,), (i,)): 1 for i in range(1, d + 1)})


def _series(x, one, level, log=False) -> DoubleTensor:
    """Truncated exp(x), or log(one + x) if `log`, for box_mul with unit `one`.

    Adds x^n/n!, or (-1)^(n-1) x^n/n, for n = 1..level to one (to zero for
    log), stopping at the first power that box_mul(_, _, level) truncates
    to zero.  Backs exp_box and log_box; the concatenation series is
    tensor._concat_horner.
    """
    result = one * 0 if log else one
    power = one
    for n in range(1, level + 1):
        power = box_mul(power, x, level)
        if power.is_zero():
            break
        result = result + power / ((n if n % 2 else -n) if log else factorial(n))
    return result


def exp_box(x: DoubleTensor, level: int) -> DoubleTensor:
    """Exponential for box_mul, truncated by the right-word grading."""
    if not x.proj(0).is_zero():
        raise EmptyWordOperand("exp needs vanishing right-degree-zero part")
    return _series(x.truncate(level), unit_double(x.dim), level)


def log_box(g: DoubleTensor, level: int) -> DoubleTensor:
    """Logarithm for box_mul; needs right-degree-zero part exactly e (x) e."""
    one = unit_double(g.dim)
    if g.proj(0) != one:
        raise ValueError("log needs right-degree-zero part equal to e(x)e")
    y = (g - one).truncate(level)
    return _series(y, one, level, log=True)


def _compositions(total, parts):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def lambda_element(d: int, level: int, method: str = "log_of_s") -> DoubleTensor:
    """Logarithm of the diagonal element, graded piece by graded piece."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if method == "log_of_s":
        return log_box(s_element(d, level), level)
    if method == "recursion":
        parts = [r_level_one(d)]
        r_full = r_element(d, level)
        # composition tail -> its nested box bracket, built once per call:
        # many compositions, at this level and above, share a tail
        nested = {}

        def tail_bracket(tail):
            got = nested.get(tail)
            if got is None:
                first = parts[tail[0] - 1]
                got = nested[tail] = (
                    first if len(tail) == 1 else box_bracket(first, tail_bracket(tail[1:]))
                )
            return got

        for n in range(2, level + 1):
            # each nested bracket's outer bracket, summed in one accumulator
            brackets = box_bracket_sum(d, (
                (parts[comp[0] - 1], tail_bracket(comp[1:]),
                 Fraction(-comp[-1], n * factorial(i)))
                for i in range(2, n + 1)
                for comp in _compositions(n, i)
            ))
            parts.append(r_full.proj(n) * Fraction(1, n) + brackets)
        return linear_combination(zero_double(d), ((part, 1) for part in parts))
    raise ValueError("unknown lambda_element method %r" % method)
