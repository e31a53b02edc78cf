"""Words over the alphabet 1..d and exact-rational combinations of them.

_Terms is the one coefficient store of the package: TensorElem (finite
combinations of words, for the tensor algebra and its level-truncated
completion), CoproductTerms here and double_tensor.DoubleTensor are its
subclasses.  Only this module reads a value's coefficient map: other
modules go through coeff, terms() and the lifts below (one bilinear, one
linear, one contraction).  Coefficients are fractions.Fraction
throughout; floats are rejected so that every identity in this package
can be checked with exact equality.

All values are immutable after construction and all operations are pure,
so elements can be shared freely across threads.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import AlphabetMismatch, EmptyWordOperand
from .guard import check_term_budget
from .memo import memo

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


def as_scalar(value) -> Fraction:
    """Coerce to an exact rational; floats are deliberately not accepted."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("expected an exact rational, got %r" % (value,))


def parse_word(text) -> Word:
    """Read a word from its text form: digits, 'e', or a bracketed int list."""
    if isinstance(text, (tuple, list)):
        return tuple(int(i) for i in text)
    text = text.strip()
    if text in ("", "e"):
        return EMPTY_WORD
    if text.startswith("["):
        return tuple(int(i) for i in json.loads(text))
    return tuple(int(ch) for ch in text)


def format_word(w: Word, dim: int = 9) -> str:
    if not w:
        return "e"
    if dim <= 9:
        return "".join(str(i) for i in w)
    return "[" + ",".join(str(i) for i in w) + "]"


def word_sort_key(w: Word):
    """Canonical order: by length, then lexicographic."""
    return (len(w), w)


def _word(word, dim) -> Word:
    """`word` as a tuple, checked to use only the letters 1..dim."""
    word = tuple(word)
    if any(not 1 <= letter <= dim for letter in word):
        # Brackets as soon as a letter has two digits: (1, 12) is not 112.
        raise ValueError(
            "word %s uses letters outside 1..%d"
            % (format_word(word, max((dim,) + word)), dim)
        )
    return word


class _Terms:
    """Immutable finite map key -> nonzero Fraction over the alphabet 1..dim.

    The one coefficient store behind TensorElem, DoubleTensor and
    CoproductTerms: construction and the term budget, immutability, the
    linear structure, equality, the alphabet check, the grading, lookup
    and ordered iteration live here.  Keys are pairs of words unless a
    subclass overrides _key; _grade maps a key to its degree (the total
    length of a pair unless a subclass says otherwise) and _order to its
    place in terms() (left word, then right word, each by length and then
    lexicographically).  Values of different kinds never combine: + and -
    raise TypeError and == is False.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("alphabet size must be >= 1")
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = as_scalar(coeff)
            key = self._key(key, dim)
            if coeff:
                clean[key] = coeff
        self._store(dim, clean)

    @staticmethod
    def _key(key, dim):
        left, right = key
        return (_word(left, dim), _word(right, dim))

    @staticmethod
    def _grade(key):
        return len(key[0]) + len(key[1])

    @staticmethod
    def _order(key):
        return (word_sort_key(key[0]), word_sort_key(key[1]))

    def _store(self, dim, clean_terms):
        check_term_budget(len(clean_terms))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", clean_terms)

    @classmethod
    def _raw(cls, dim, clean_terms):
        # Internal fast path: keys canonical, coefficients nonzero Fractions.
        self = object.__new__(cls)
        self._store(dim, clean_terms)
        return self

    def _like(self, clean_terms):
        """This kind over this alphabet holding `clean_terms`."""
        return self._raw(self.dim, clean_terms)

    def _select(self, keep):
        grade = self._grade
        return self._like({k: c for k, c in self._terms.items() if keep(grade(k))})

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _same_alphabet(self, other):
        if self.dim != other.dim:
            raise AlphabetMismatch(
                "alphabet sizes differ: %d vs %d" % (self.dim, other.dim)
            )

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, left, right) -> Fraction:
        return self._terms.get((tuple(left), tuple(right)), Fraction(0))

    def terms(self):
        """Yield (key, coefficient) pairs in canonical order."""
        terms = self._terms
        for key in sorted(terms, key=self._order):
            yield key, terms[key]

    def __repr__(self):
        inner = " + ".join(
            "%s*(%s)x(%s)" % (c, format_word(l, self.dim), format_word(r, self.dim))
            for (l, r), c in self.terms()
        )
        return "<%s d=%d %s>" % (type(self).__name__, self.dim, inner or "0")

    # -- linear structure ------------------------------------------------

    def _plus(self, other, negate):
        if type(other) is not type(self):
            return NotImplemented
        self._same_alphabet(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            _bump(out, key, -c if negate else c)
        return self._like(out)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        s = as_scalar(scalar)
        if not s:
            return self._like({})
        return self._like({k: c * s for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / as_scalar(scalar))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    # -- grading ---------------------------------------------------------

    def proj(self, n: int):
        """Terms of degree exactly n."""
        return self._select(lambda g: g == n)

    def proj_at_least(self, n: int):
        return self._select(lambda g: g >= n)

    def truncate(self, level: int):
        """Drop terms of degree above `level`."""
        return self._select(lambda g: g <= level)


class TensorElem(_Terms):
    """Finite map word -> Fraction over a fixed alphabet size.

    Invariants: no zero coefficients are stored; iteration through terms()
    follows the canonical (length, lexicographic) order.
    """

    __slots__ = ()

    _key = staticmethod(_word)
    _grade = staticmethod(len)
    _order = staticmethod(word_sort_key)

    # -- inspection ------------------------------------------------------

    def coeff(self, word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def words(self):
        return sorted(self._terms, key=word_sort_key)

    def degree(self) -> int:
        """Maximal word length present; 0 for the zero element."""
        return max((len(w) for w in self._terms), default=0)

    def min_degree(self) -> int:
        return min((len(w) for w in self._terms), default=0)

    def empty_coeff(self) -> Fraction:
        return self._terms.get(EMPTY_WORD, Fraction(0))

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        return "<TensorElem d=%d %s>" % (self.dim, str(self))

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for w, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            word = format_word(w, self.dim)
            body = word if mag == 1 else "%s*%s" % (mag, word)
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += " %s %s" % (sign, body)
        return out

    def to_json_obj(self):
        return [
            {
                "word": format_word(w, self.dim),
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
            for w, c in self.terms()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, data, dim):
        terms = {}
        for entry in data:
            word = parse_word(entry["word"])
            terms[word] = Fraction(int(entry["num"]), int(entry["den"]))
        return cls(dim, terms)


def _bump(acc, key, value):
    cur = acc.get(key)
    if cur is None:
        if value:
            acc[key] = value
    else:
        cur = cur + value
        if cur:
            acc[key] = cur
        else:
            del acc[key]


# -- constructors ---------------------------------------------------------


def zero(dim: int) -> TensorElem:
    return TensorElem(dim, {})


def unit(dim: int) -> TensorElem:
    """The empty word with coefficient one."""
    return TensorElem(dim, {EMPTY_WORD: 1})


def word_elem(word, dim: int) -> TensorElem:
    return TensorElem(dim, {parse_word(word): 1})


def letter_elem(letter: int, dim: int) -> TensorElem:
    return TensorElem(dim, {(letter,): 1})


def words_of_length(dim: int, n: int):
    """All words of exactly length n, lexicographic order."""
    return (tuple(w) for w in product(range(1, dim + 1), repeat=n))


def all_words(dim: int, max_len: int):
    for n in range(max_len + 1):
        yield from words_of_length(dim, n)


# -- word-level kernels (integer coefficients, memoized) ------------------


def shuffle_words(u: Word, v: Word) -> dict:
    """All interleavings of u and v with multiplicity, as word -> int."""
    if word_sort_key(u) > word_sort_key(v):
        u, v = v, u
    return _shuffle_sorted(u, v)


@memo
def _shuffle_sorted(u: Word, v: Word) -> dict:
    # Called with u <= v in (length, lex) order, so the table holds each
    # unordered pair once.
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict = {}
    for w, c in shuffle_words(u[:-1], v).items():
        _bump(out, w + u[-1:], c)
    for w, c in shuffle_words(u, v[:-1]).items():
        _bump(out, w + v[-1:], c)
    return out


def half_shuffle_words(u: Word, v: Word) -> dict:
    """Interleavings of u and v that end with the last letter of v."""
    if not v:
        raise EmptyWordOperand("half-shuffle needs a nonempty right factor")
    return {w + v[-1:]: c for w, c in shuffle_words(u, v[:-1]).items()}


@memo
def r_word(w: Word) -> dict:
    """Right-nested bracketing [l1,[l2,...[l_{n-1},ln]]] of a word."""
    n = len(w)
    if n == 0:
        return {}
    if n == 1:
        return {w: 1}
    head = w[:1]
    out: dict = {}
    for t, c in r_word(w[1:]).items():
        _bump(out, head + t, c)
        _bump(out, t + head, -c)
    return out


@memo
def rho_word(w: Word) -> dict:
    """Adjoint of the right-bracketing operator, via its two-sided recursion."""
    n = len(w)
    if n == 0:
        return {}
    if n == 1:
        return {w: 1}
    i, j, mid = w[:1], w[-1:], w[1:-1]
    out: dict = {}
    for t, c in rho_word(mid + j).items():
        _bump(out, i + t, c)
    for t, c in rho_word(i + mid).items():
        _bump(out, j + t, -c)
    return out


@memo
def rho_word_via_d(w: Word) -> dict:
    """Same map, computed from the grading identity instead; kept as the
    cross-check of rho_word (areasig.checks.rho_three_ways).

    rho(w) = |w| w - sum over proper splits w = u v of rho(u) shuffled with v.
    """
    n = len(w)
    if n == 0:
        return {}
    if n == 1:
        return {w: 1}
    out = {w: n}
    for cut in range(1, n):
        u, v = w[:cut], w[cut:]
        for t, c in rho_word_via_d(u).items():
            for s, k in shuffle_words(t, v).items():
                _bump(out, s, -c * k)
    return out


def _concat_words(u: Word, v: Word) -> dict:
    return {u + v: 1}


def _deconcat_word(w: Word) -> dict:
    """Every splitting w = u v, empty factors included, as (u, v) -> 1."""
    return {(w[:cut], w[cut:]): 1 for cut in range(len(w) + 1)}


@memo
def unshuffle_word(w: Word) -> dict:
    """All splittings of w's positions into two complementary subsequences,
    by the last letter a: unshuffle(w a) = unshuffle(w) (a (x) e + e (x) a)."""
    if not w:
        return {(EMPTY_WORD, EMPTY_WORD): 1}
    a = w[-1:]
    out: dict = {}
    for (u, v), c in unshuffle_word(w[:-1]).items():
        _bump(out, (u + a, v), c)
        _bump(out, (u, v + a), c)
    return out


@memo
def _convolution_power(w: Word, k: int, coproduct, product) -> dict:
    """(id - unit counit)^{*k} at the nonempty word w, for the convolution
    of `coproduct` and `product`: w itself at k = 1, else the sum over the
    coproduct terms (u, v) of w with u and v nonempty of u times the
    (k-1)-st power at v."""
    if k == 1:
        return {w: 1}
    out: dict = {}
    for (u, v), m in coproduct(w).items():
        if not (u and v) or len(v) < k - 1:
            continue
        for t, c in _convolution_power(v, k - 1, coproduct, product).items():
            for s, n in product(u, t).items():
                _bump(out, s, m * c * n)
    return out


def _log_id(w: Word, coproduct, product) -> dict:
    """log(id) at w in the convolution algebra of `coproduct` and `product`:
    the sum over k of (-1)^(k-1)/k times the k-th convolution power."""
    out: dict = {}
    for k in range(1, len(w) + 1):
        weight = Fraction((-1) ** (k - 1), k)
        for t, c in _convolution_power(w, k, coproduct, product).items():
            _bump(out, t, weight * c)
    return out


@memo
def pi1_word(u: Word) -> dict:
    """Eulerian idempotent: log(id) for unshuffle and concatenation.

    Its restriction to grouplike elements is the concatenation logarithm.
    """
    return _log_id(u, unshuffle_word, _concat_words)


@memo
def pi1_transpose_word(w: Word) -> dict:
    """Transpose of pi1: log(id) for deconcatenation and shuffle."""
    return _log_id(w, _deconcat_word, shuffle_words)


# -- bilinear and linear lifts --------------------------------------------


def _bilinear(x, y, key_op, level=None, kind=None):
    """The bilinear map sending each key pair (u, v) to key_op(u, v), as a
    `kind` (x's own unless given).  Pairs whose grades add up to more than
    `level` are skipped.  Backs shuffle, half_shuffle, tensor_pair and the
    double-tensor products.
    """
    x._same_alphabet(y)
    grade = x._grade
    acc: dict = {}
    for u, cu in x._terms.items():
        for v, cv in y._terms.items():
            if level is not None and grade(u) + grade(v) > level:
                continue
            c = cu * cv
            for w, k in key_op(u, v).items():
                # most multiplicities are 1; skip the Fraction product then
                _bump(acc, w, c if k == 1 else c * k)
    return (kind or type(x))._raw(x.dim, acc)


def _linear(x, key_op, kind=None):
    """The linear map sending each key u of x to key_op(u), as a `kind`
    (x's own unless given)."""
    acc: dict = {}
    for u, cu in x._terms.items():
        for w, k in key_op(u).items():
            _bump(acc, w, cu * k)
    return (kind or type(x))._raw(x.dim, acc)


def _contract(f, x, side):
    """Pair side `side` (0 left, 1 right) of f's pair keys against the
    TensorElem x, leaving a TensorElem in the other side's words."""
    f._same_alphabet(x)
    against = x._terms
    acc: dict = {}
    for key, c in f._terms.items():
        cx = against.get(key[side])
        if cx is not None:
            _bump(acc, key[1 - side], c * cx)
    return TensorElem._raw(f.dim, acc)


def _reject_empty(x: TensorElem, role: str):
    if x.empty_coeff():
        raise EmptyWordOperand("%s must have no empty-word component" % role)


# -- public operations -----------------------------------------------------


def concat(x: TensorElem, y: TensorElem, level=None) -> TensorElem:
    """Concatenation product; levels above `level` are dropped if given.

    With a level, y's terms are sorted by word length once, and each u
    runs over the prefix of length at most level - |u| only, rather than
    testing every pair.
    """
    x._same_alphabet(y)
    if level is not None:
        ordered = sorted(y._terms.items(), key=lambda term: len(term[0]))
        lengths = [len(v) for v, _ in ordered]
    acc: dict = {}
    for u, cu in x._terms.items():
        if level is None:
            terms = y._terms.items()
        else:
            terms = ordered[:bisect_right(lengths, level - len(u))]
        for v, cv in terms:
            _bump(acc, u + v, cu * cv)
    return TensorElem._raw(x.dim, acc)


def shuffle(x: TensorElem, y: TensorElem) -> TensorElem:
    return _bilinear(x, y, shuffle_words)


def half_shuffle(x: TensorElem, y: TensorElem) -> TensorElem:
    """x > y: shuffles of x and y ending with the final letter of y."""
    _reject_empty(y, "right half-shuffle factor")
    return _bilinear(x, y, half_shuffle_words)


def area(x: TensorElem, y: TensorElem) -> TensorElem:
    """Antisymmetrized half-shuffle, the signed-area operation."""
    _reject_empty(x, "area operand")
    _reject_empty(y, "area operand")
    return half_shuffle(x, y) - half_shuffle(y, x)


def lie_bracket(x: TensorElem, y: TensorElem) -> TensorElem:
    return concat(x, y) - concat(y, x)


def pairing(x: TensorElem, y: TensorElem) -> Fraction:
    """Dual pairing with words as an orthonormal pair of bases."""
    x._same_alphabet(y)
    small, big = (x._terms, y._terms) if len(x) <= len(y) else (y._terms, x._terms)
    total = Fraction(0)
    for w, c in small.items():
        other = big.get(w)
        if other is not None:
            total += c * other
    return total


def dynkin_r(x: TensorElem) -> TensorElem:
    """Right bracketing w -> [l1,[l2,...[l_{n-1},ln]]], linearly extended."""
    return _linear(x, r_word)


def rho(x: TensorElem) -> TensorElem:
    """Adjoint of dynkin_r under the word pairing."""
    return _linear(x, rho_word)


def grading_d(x):
    """Each term times its degree: the word length of a TensorElem, the
    right-word length of a DoubleTensor."""
    grade = x._grade
    return x._like({k: c * grade(k) for k, c in x._terms.items() if grade(k)})


def grading_d_inv(x):
    """Divide each term by its degree; undefined on terms of degree zero."""
    grade = x._grade
    try:
        return x._like({k: c / grade(k) for k, c in x._terms.items()})
    except ZeroDivisionError:
        raise EmptyWordOperand("grading inverse is undefined in degree zero") from None


def antipode(x: TensorElem) -> TensorElem:
    """w -> (-1)^|w| times w reversed; an involution."""
    return TensorElem._raw(
        x.dim,
        {w[::-1]: c * (-1) ** len(w) for w, c in x._terms.items()},
    )


def pi1(x: TensorElem) -> TensorElem:
    return _linear(x, pi1_word)


def pi1_transpose(x: TensorElem) -> TensorElem:
    return _linear(x, pi1_transpose_word)


class CoproductTerms(_Terms):
    """Finite map (word, word) -> Fraction produced by unshuffling."""

    __slots__ = ()

    def pair_with(self, a: TensorElem, b: TensorElem) -> Fraction:
        """<a (x) b, self>, the scalar dual to shuffling a with b."""
        return pairing(a, _contract(self, b, 1))


def unshuffle(x: TensorElem) -> CoproductTerms:
    """Coproduct dual to the shuffle product."""
    return _linear(x, unshuffle_word, CoproductTerms)


def is_grouplike(g: TensorElem, level: int) -> bool:
    """Check the grouplike law for the unshuffle coproduct up to `level`."""
    g = g.truncate(level)
    if g.empty_coeff() != 1:
        return False
    split = unshuffle(g)
    for u in all_words(g.dim, level):
        for v in all_words(g.dim, level - len(u)):
            if split.coeff(u, v) != g.coeff(u) * g.coeff(v):
                return False
    return True


def _series(x, one, product, level, log=False):
    """Truncated exp(x), or log(one + x) if `log`, for a product with unit `one`.

    Adds x^n/n!, or (-1)^(n-1) x^n/n, for n = 1..level to one (to zero for
    log), stopping at the first power that product(_, _, level) truncates
    to zero.  Backs exp_conc, log_conc, exp_box and log_box.
    """
    result = one * 0 if log else one
    power = one
    for n in range(1, level + 1):
        power = product(power, x, level)
        if power.is_zero():
            break
        weight = Fraction((-1) ** (n - 1), n) if log else Fraction(1, factorial(n))
        result = result + power * weight
    return result


def exp_conc(x: TensorElem, level: int = 5) -> TensorElem:
    """Concatenation exponential, truncated at `level`."""
    if x.empty_coeff():
        raise EmptyWordOperand("exp needs a vanishing empty-word coefficient")
    return _series(x.truncate(level), unit(x.dim), concat, level)


def log_conc(g: TensorElem, level: int = 5) -> TensorElem:
    """Concatenation logarithm, truncated at `level`."""
    if g.empty_coeff() != 1:
        raise ValueError("log needs empty-word coefficient exactly 1")
    one = unit(g.dim)
    return _series((g - one).truncate(level), one, concat, level, log=True)


def is_lie_element(x: TensorElem) -> bool:
    """Dynkin criterion: no empty word and r(x) = D(x)."""
    if x.empty_coeff():
        return False
    return dynkin_r(x) == grading_d(x)


def invert_r(x: TensorElem, level: int = 5) -> TensorElem:
    """Grouplike g with dynkin_r(g) = x up to `level`.

    Built from the fixed point g = e + D^{-1}(x g), iterated until the
    grading exhausts the truncation.  The input must pass the Lie test.
    """
    x = x.truncate(level)
    if not is_lie_element(x):
        raise ValueError("invert_r needs a Lie element input")
    g = unit(x.dim)
    z = unit(x.dim)
    while True:
        xz = concat(x, z, level)
        if xz.is_zero():
            break
        z = grading_d_inv(xz)
        g = g + z
    return g
