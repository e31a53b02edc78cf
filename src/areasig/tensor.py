"""Words over the alphabet 1..d and exact-rational combinations of them.

_Terms is the one coefficient store of the package: TensorElem (finite
combinations of words, for the tensor algebra and its level-truncated
completion), CoproductTerms here and double_tensor.DoubleTensor are its
subclasses.  Only this module reads a value's coefficient map: other
modules go through coeff, terms() and the lifts below (the shuffle, area
and bilinear pair loops, one linear lift, one contraction).

A value is held as nonzero integer numerators over one positive integer
denominator, in lowest terms: the gcd of the denominator and every
numerator is 1, and the zero value has denominator 1.  So every loop here
runs on ints, and == and hash compare plain dicts and ints.  A
fractions.Fraction is made only where a coefficient leaves the store
(coeff, terms(), pairing) and where a scalar enters it; floats are
rejected so that every identity in this package can be checked with
exact equality.

Inside the store a word is one packed int, its code, in the format of
areasig.words, whose kernels (shuffles, r, rho, unshuffle, pi1) run on
codes.  A TensorElem key is one code; a DoubleTensor or CoproductTerms key
is a pair of codes, so terms() sorts plain ints.  The tuple-level kernels
(shuffle_words, r_word, ...) are encode/decode adapters over the code
kernels.  Words are tuples at every public boundary: the constructors,
coeff, terms() and words().  The one exception is TensorElem.int_row(),
the int row that linalg reduces: its keys are codes, opaque keys that
sort like the words.  str, repr and JSON are written from int numerators
and each word's memoised text (_word_text), with no Fraction made and no
word decoded per term.

All values are immutable after construction and all operations are pure,
so elements can be shared freely across threads.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm

from .errors import (
    AlphabetMismatch,
    EmptyWordOperand,
    _parse_int,
    _parse_token,
    _Reader,
    _text,
    is_digit,
)
from .guard import check_term_budget
from .memo import memo
from .words import (
    area_words,
    decode,
    encode,
    length,
    log_den,
    nonzero,
    pi1_numerators,
    pi1_transpose_numerators,
    r_codes,
    rho_codes,
    shuffle_codes,
    shuffled,
    unshuffle_codes,
)

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


def as_scalar(value) -> Fraction:
    """Coerce to an exact rational (text in the CSV reader's ASCII grammar);
    floats are deliberately not accepted."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _json_int(value) -> int:
    """A numerator or denominator from JSON: an int or its ASCII text."""
    n = _parse_int(str(value))
    if n is None:
        raise ValueError("%r is not an integer in ASCII digits" % (value,))
    return n


def _ratio(value):
    """(numerator, denominator) in lowest terms of an exact rational scalar,
    read as as_scalar reads it, with no Fraction made for an int or text."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, str):
        ratio = _parse_token(value)
        if ratio is None:
            raise ValueError("%r is not a finite rational number in ASCII digits" % value)
        return ratio
    raise TypeError("expected an exact rational, got %r" % (value,))


def _over_lcm(ratios):
    """(numerators, lcm) of (numerator, denominator) pairs in lowest terms,
    denominators positive: the numerators over the lcm, also in lowest terms."""
    den = lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


def parse_word(text) -> Word:
    """Read a word from its text form: ASCII digits, 'e', or a bracketed list
    of ints, read as an expression's w(...) reads it (so '[]' is refused,
    and the empty word is 'e'); a list or tuple of ints is taken as it is.
    Any other letter (a bool, a float, a non-ASCII digit) raises a
    ValueError naming it or, in brackets, the offset where reading stopped."""
    if isinstance(text, str):
        if text.lstrip().startswith("["):
            return _Reader(text).read_all(_Reader.letters, "word")
        text = text.strip()
        if text in ("", "e"):
            return EMPTY_WORD
        bad = [ch for ch in text if not is_digit(ch)]
        if bad:
            raise ValueError("word letter %r is not an ASCII digit" % bad[0])
        return tuple(map(int, text))
    bad = [i for i in text if type(i) is not int]
    if bad:
        raise ValueError("word letter %r is not an int" % (bad[0],))
    return tuple(text)


def format_word(w: Word, dim: int = 9) -> str:
    if not w:
        return "e"
    if dim <= 9:
        return "".join(str(i) for i in w)
    return "[" + ",".join(str(i) for i in w) + "]"


_OF_WORD = "the coefficient of word %s"
_OF_PAIR = "the coefficient of word pair (%s)x(%s)"


def _ratio_text(num, den, name, args) -> str:
    """str(Fraction(num, den)) of a ratio in lowest terms, through _text."""
    text = _text(num, name, args)
    return text if den == 1 else "%s/%s" % (text, _text(den, name, args))


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


# -- words at the boundary: tuples to codes and text ---------------------------


@memo
def _word_text(code, dim) -> str:
    """format_word of the word with code `code` over 1..dim: every writer
    names its words through this table, so each word is decoded once."""
    return format_word(decode(code, dim.bit_length()), dim)


def _code(word, dim) -> int:
    """The code of `word`, checked to use only the letters 1..dim."""
    return encode(_word(word, dim), dim.bit_length())


def _find(word, dim) -> int:
    """The code of `word`, or -1, which is no key, if a letter lies outside
    1..dim."""
    word = tuple(word)
    if all(isinstance(letter, int) and 1 <= letter <= dim for letter in word):
        return encode(word, dim.bit_length())
    return -1


def _encode_words(*words):
    """The codes of tuple words at the fewest bits per letter that hold all
    their letters, and that width; every letter must be positive."""
    letters = [letter for word in words for letter in word]
    if letters and min(letters) < 1:
        shown = ", ".join(format_word(word, 10) for word in words)
        raise ValueError("words %s use letters below 1" % shown)
    k = max(letters, default=1).bit_length()
    return [encode(word, k) for word in words], k


def _decoded(table, k) -> dict:
    return {decode(w, k): c for w, c in table.items()}


class _Terms:
    """Immutable finite map key -> nonzero rational over the alphabet 1..dim.

    The one coefficient store behind TensorElem, DoubleTensor and
    CoproductTerms: construction and the term budget, immutability, the
    linear structure, equality, the alphabet check, the grading, lookup
    and ordered iteration live here.  _terms maps each key to a nonzero
    int numerator over the one positive int denominator _den, in lowest
    terms (see the module docstring); coeff and terms() give Fractions.
    Keys are pairs of word codes unless a subclass overrides _key (public
    key to stored key), _public(key, dim) (back) and _key_text(key, dim)
    (the key's text, for the writers); _grade(key, k) maps a key to
    its degree (the total length of a pair unless a subclass says
    otherwise) and _order to its sort key in terms(), None for the keys
    themselves (left word, then right word, each by length and then
    lexicographically).  Values of different kinds never combine: + and -
    raise TypeError and == is False.
    """

    __slots__ = ("dim", "_terms", "_den")

    _order = None

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("alphabet size must be >= 1")
        ratios = {self._key(key, dim): _ratio(c) for key, c in (terms or {}).items()}
        numerators, den = _over_lcm(ratios.values())
        self._store(dim, {k: n for k, n in zip(ratios, numerators) if n}, den)

    @staticmethod
    def _key(key, dim):
        left, right = key
        return (_code(left, dim), _code(right, dim))

    @staticmethod
    def _public(key, dim):
        k = dim.bit_length()
        return (decode(key[0], k), decode(key[1], k))

    @staticmethod
    def _key_text(key, dim):
        return (_word_text(key[0], dim), _word_text(key[1], dim))

    @staticmethod
    def _grade(key, k):
        return length(key[0], k) + length(key[1], k)

    def _store(self, dim, numerators, den):
        check_term_budget(len(numerators))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", numerators)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _raw(cls, dim, numerators, den=1):
        # Internal fast path: keys canonical, numerators nonzero ints in
        # lowest terms over den.
        self = object.__new__(cls)
        self._store(dim, numerators, den)
        return self

    @classmethod
    def _over(cls, dim, numerators, den=1):
        """The value with int `numerators` (zeros allowed) over the positive
        int `den`, brought to lowest terms; keys must be canonical."""
        numerators = nonzero(numerators)
        if den != 1:
            common = gcd(den, *numerators.values())
            if common != 1:
                den //= common
                numerators = {k: c // common for k, c in numerators.items()}
        return cls._raw(dim, numerators, den)

    def _like(self, numerators, den=1):
        """This kind over this alphabet holding `numerators` over `den`."""
        return self._over(self.dim, numerators, den)

    def _select(self, keep):
        grade, k = self._grade, self.dim.bit_length()
        return self._like(
            {key: c for key, c in self._terms.items() if keep(grade(key, k))},
            self._den,
        )

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

    def _coeff(self, key) -> Fraction:
        return Fraction(self._terms.get(key, 0), self._den)

    def coeff(self, left, right) -> Fraction:
        return self._coeff((_find(left, self.dim), _find(right, self.dim)))

    def terms(self):
        """Yield (key, coefficient) pairs in canonical order."""
        for key, num, den in self._ratios(self._public):
            yield key, Fraction(num, den)

    def _ratios(self, form=None):
        """Yield (key, numerator, denominator) in canonical order, each
        coefficient in lowest terms, from ints alone: the key as
        form(key, dim), by default its text (_key_text).  The writers below
        make no Fraction and decode no word."""
        terms, den, dim = self._terms, self._den, self.dim
        form = form or self._key_text
        keys = sorted(terms, key=self._order)
        if den == 1:
            for key in keys:
                yield form(key, dim), terms[key], 1
            return
        for key in keys:
            c = terms[key]
            common = gcd(c, den)
            yield form(key, dim), c // common, den // common

    def __repr__(self):
        terms = [
            "%s*(%s)x(%s)" % (_ratio_text(num, den, _OF_PAIR, (l, r)), l, r)
            for (l, r), num, den in self._ratios()
        ]
        return "<%s d=%d %s>" % (type(self).__name__, self.dim, " + ".join(terms) or "0")

    def to_json_obj(self):
        """The terms in canonical order, each the dict that _json_entry makes
        of its key's text and its num and den as text, in lowest terms."""
        entry = self._json_entry
        return [entry(key, num, den) for key, num, den in self._ratios()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def _json_entry(key, num, den):
        left, right = key
        return {"left": left, "right": right, "num": _text(num, _OF_PAIR, key),
                "den": _text(den, _OF_PAIR, key)}

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        return linear_combination(self, ((other, 1),))

    def __sub__(self, other):
        return linear_combination(self, ((other, -1),))

    def __neg__(self):
        return self._raw(self.dim, {k: -c for k, c in self._terms.items()}, self._den)

    def __mul__(self, scalar):
        num, den = _ratio(scalar)
        if not num:
            return self._raw(self.dim, {})
        return self._like({k: c * num for k, c in self._terms.items()}, self._den * den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        num, den = _ratio(scalar)
        if not num:
            raise ZeroDivisionError("division of a %s by zero" % type(self).__name__)
        if num < 0:
            num, den = -num, -den
        return self._like({k: c * den for k, c in self._terms.items()}, self._den * num)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.dim, self._den, frozenset(self._terms.items())))

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
    """Finite map word -> rational over a fixed alphabet size, held as int
    numerators over one denominator and keyed by word codes.

    Invariants: no zero coefficients are stored; iteration through terms()
    follows the canonical (length, lexicographic) order.
    """

    __slots__ = ()

    _key = staticmethod(_code)
    _key_text = staticmethod(_word_text)
    _grade = staticmethod(length)

    @staticmethod
    def _public(code, dim):
        return decode(code, dim.bit_length())

    # -- inspection ------------------------------------------------------

    def coeff(self, word) -> Fraction:
        return self._coeff(_find(word, self.dim))

    def words(self):
        k = self.dim.bit_length()
        return [decode(w, k) for w in sorted(self._terms)]

    def degree(self) -> int:
        """Maximal word length present; 0 for the zero element."""
        return length(max(self._terms, default=0), self.dim.bit_length())

    def min_degree(self) -> int:
        return length(min(self._terms, default=0), self.dim.bit_length())

    def empty_coeff(self) -> Fraction:
        return self._coeff(0)

    def int_row(self) -> dict:
        """A new dict of the int numerators, the coefficients times one
        positive factor, keyed by word codes (opaque keys that sort like
        the words): linalg's row for dict(terms()), with no Fraction made."""
        return dict(self._terms)

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        return "<TensorElem d=%d %s>" % (self.dim, str(self))

    def __str__(self):
        """Terms as "12 - 1/2*21 + ...", or "0"."""
        chunks = []
        for word, num, den in self._ratios():
            if den != 1 or num not in (1, -1):
                word = "%s*%s" % (_ratio_text(abs(num), den, _OF_WORD, word), word)
            chunks += ["-" if num < 0 else "+", word]
        if not chunks:
            return "0"
        text = " ".join(chunks)  # "+ 12 - 21 ...": the first sign sticks or goes
        return text[2:] if chunks[0] == "+" else "-" + text[2:]

    @staticmethod
    def _json_entry(word, num, den):
        return {"word": word, "num": _text(num, _OF_WORD, word),
                "den": _text(den, _OF_WORD, word)}

    @classmethod
    def from_json_obj(cls, data, dim):
        """The element of to_json_obj's list of terms; a zero denominator or
        a word given twice (in any spelling) raises a ValueError."""
        terms = {}
        for entry in data:
            word = parse_word(entry["word"])
            num, den = _json_int(entry["num"]), _json_int(entry["den"])
            if not den:
                raise ValueError("JSON term %r has a zero denominator" % (entry,))
            if word in terms:
                raise ValueError("JSON term %r repeats the word %s"
                                 % (entry, format_word(word, max((dim,) + word))))
            terms[word] = Fraction(num, den)
        return cls(dim, terms)


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


# -- word-level kernels on tuples: adapters over the code kernels ----------


@memo
def shuffle_words(u: Word, v: Word) -> dict:
    """All interleavings of u and v with multiplicity, as word -> int; both
    orders of a pair share one dict object."""
    if len(u) > len(v) or (len(u) == len(v) and u > v):
        return shuffle_words(v, u)
    (cu, cv), k = _encode_words(u, v)
    return _decoded(shuffle_codes(cu, cv, k), k)


def half_shuffle_words(u: Word, v: Word) -> dict:
    """Interleavings of u and v that end with the last letter of v; the
    lifts stream these inline (see _shuffles) and do not call this."""
    if not v:
        raise EmptyWordOperand("half-shuffle needs a nonempty right factor")
    return {w + v[-1:]: c for w, c in shuffle_words(u, v[:-1]).items()}


def _on_word(kernel, w: Word, den=None) -> dict:
    """The code kernel at the tuple word w, decoded, its values over
    den(code, k) if given."""
    (code,), k = _encode_words(w)
    if den is None:
        return _decoded(kernel(code, k), k)
    den = den(code, k)
    return {decode(t, k): Fraction(c, den) for t, c in kernel(code, k).items()}


def r_word(w: Word) -> dict:
    """Right-nested bracketing [l1,[l2,...[l_{n-1},ln]]] of a word."""
    return _on_word(r_codes, w)


def rho_word(w: Word) -> dict:
    """Adjoint of the right-bracketing operator, via its two-sided recursion."""
    return _on_word(rho_codes, w)


@memo
def rho_word_via_d(w: Word) -> dict:
    """Same map, computed from the grading identity on tuple words instead;
    kept as the cross-check of rho_word (areasig.checks.rho_three_ways).

    rho(w) = |w| w - sum over proper splits w = u v of rho(u) shuffled with v.
    """
    out = {w: len(w)} if w else {}
    for cut in range(1, len(w)):
        for t, c in rho_word_via_d(w[:cut]).items():
            for s, m in shuffle_words(t, w[cut:]).items():
                out[s] = out.get(s, 0) - c * m
    return nonzero(out)


def unshuffle_word(w: Word) -> dict:
    """All splittings of w's positions into two complementary subsequences,
    by the last letter a: unshuffle(w a) = unshuffle(w) (a (x) e + e (x) a)."""
    (code,), k = _encode_words(w)
    return {
        (decode(u, k), decode(v, k)): c
        for (u, v), c in unshuffle_codes(code, k).items()
    }


def pi1_word(u: Word) -> dict:
    """Eulerian idempotent: log(id) for unshuffle and concatenation.

    Its restriction to grouplike elements is the concatenation logarithm.
    """
    return _on_word(pi1_numerators, u, log_den)


def pi1_transpose_word(w: Word) -> dict:
    """Transpose of pi1: log(id) for deconcatenation and shuffle."""
    return _on_word(pi1_transpose_numerators, w, log_den)


# -- bilinear and linear lifts --------------------------------------------


def _pairs(x, entries, level):
    """Each term (u, cu) of x with the list of `entries`, tuples led by a key
    of x's kind, that its products keep: all of them, or with a `level`
    only those with grade(u) + grade(key) <= level.  Then the entries are
    sorted by the grade hook once and each u runs over a bisect_right
    prefix, rather than testing every pair."""
    if level is None:
        for u, cu in x._terms.items():
            yield u, cu, entries
        return
    grade, k = x._grade, x.dim.bit_length()
    ordered = sorted(entries, key=lambda entry: grade(entry[0], k))
    grades = [grade(entry[0], k) for entry in ordered]
    for u, cu in x._terms.items():
        yield u, cu, ordered[:bisect_right(grades, level - grade(u, k))]


def _split(code, cut, k):
    """(head, last): the code and 0, or if `cut` the code without its last
    letter and that letter.  A product shuffles the heads of its two
    factors and appends the lasts, so a cut makes it a half-shuffle."""
    return (code >> k, code & ((1 << k) - 1)) if cut else (code, 0)


def _scaled(dim, triples):
    """([(a, b, multiplier)], den) for the (a, b, scalar) in `triples`, each
    a and b over the alphabet 1..dim: the nonzero scalars as int
    multipliers over den, the lcm of every a._den * b._den * (the scalar's
    denominator), with no lcm taken when they are all one value.  An int
    scalar is read as it is, with no _ratio call.  Backs the sums of
    products of the pair loops."""
    out, dens = [], []
    for a, b, scalar in triples:
        if a.dim != dim or b.dim != dim:
            raise AlphabetMismatch("alphabet sizes differ: %d vs %d"
                                   % (dim, b.dim if a.dim == dim else a.dim))
        num, den = (scalar, 1) if type(scalar) is int else _ratio(scalar)
        if num:
            out.append((a, b, num))
            dens.append(a._den * b._den * den)
    den = dens[0] if dens else 1
    if dens.count(den) != len(dens):
        den = lcm(*dens)
        out = [(a, b, num * (den // d)) for (a, b, num), d in zip(out, dens)]
    return out, den


def _bilinear(kind, dim, pairs, cut=None, bracket=False, level=None):
    """The sum of scalar * (the product of a and b) over the (a, b, scalar)
    in `pairs`, as the pair-keyed `kind` over the alphabet 1..dim.  The
    product shuffles the left words and concatenates the right words s, t,
    skipping pairs whose grades add up to more than `level`: cut=0 or 1
    half-shuffles into the last letter of the first or the second factor's
    left word, and bracket makes s t - t s.  Every pair streams the shuffle
    of its left heads times its right words into one int accumulator, with
    no dict per pair, and the term budget is checked after each pair.
    Backs the box products."""
    pairs, den = _scaled(dim, pairs)
    k = dim.bit_length()
    shift = 0 if cut is None else k  # room for the one cut letter
    acc: dict = {}
    get = acc.get
    for x, y, mul in pairs:
        entries = [
            (key, c * mul) + _split(key[0], cut == 1, k) + (k * length(key[1], k),)
            for key, c in y._terms.items()
        ]
        for (p, s), cp, terms in _pairs(x, entries, level):
            p_head, p_last = _split(p, cut == 0, k)
            s_len = k * length(s, k)
            for (_, t), cq, q_head, q_last, t_len in terms:
                c = cp * cq
                st = (s << t_len) | t
                if bracket:
                    ts = (t << s_len) | s
                    if st == ts:
                        continue
                last = p_last | q_last
                for w, m in shuffled(p_head, q_head, k).items():
                    w = (w << shift) | last
                    key = (w, st)
                    acc[key] = get(key, 0) + c * m
                    if bracket:
                        key = (w, ts)
                        acc[key] = get(key, 0) - c * m
        check_term_budget(len(acc))
    return kind._over(dim, acc, den)


def _outer(x, y, kind):
    """x (x) y as the pair-keyed `kind`: its key pairs are all distinct, so
    one dict holds the products, with no accumulator."""
    x._same_alphabet(y)
    right = y._terms.items()
    pairs = {(u, v): cu * cv for u, cu in x._terms.items() for v, cv in right}
    return kind._over(x.dim, pairs, x._den * y._den)


def _linear(x, key_op, kind=None, key_den=None):
    """The linear map sending each key u of x to key_op(u, k), as a `kind`
    (x's own unless given), for k bits per letter.  key_op gives ints,
    over key_den(u, k) if given."""
    k = x.dim.bit_length()
    common = 1 if key_den is None else lcm(*(key_den(u, k) for u in x._terms))
    acc: dict = {}
    get = acc.get
    for u, cu in x._terms.items():
        if key_den is not None:
            cu *= common // key_den(u, k)
        for w, m in key_op(u, k).items():
            acc[w] = get(w, 0) + cu * m
    return (kind or type(x))._over(x.dim, acc, x._den * common)


def _contract(f, x, side):
    """Pair side `side` (0 left, 1 right) of f's pair keys against the
    TensorElem x, leaving a TensorElem in the other side's words."""
    f._same_alphabet(x)
    against = x._terms
    acc: dict = {}
    get = acc.get
    for key, c in f._terms.items():
        cx = against.get(key[side])
        if cx is not None:
            rest = key[1 - side]
            acc[rest] = get(rest, 0) + c * cx
    return TensorElem._over(f.dim, acc, f._den * x._den)


def _map_right(x, kernel):
    """The pair-keyed x with each right word t replaced by the code kernel's
    kernel(t, k), linearly.  Backs double_tensor.r_hat."""
    return _linear(x, lambda key, k: {(key[0], t): c for t, c in kernel(key[1], k).items()})


def _empty_left(x) -> bool:
    """Whether a key of the pair-keyed x has the empty left word."""
    return any(not key[0] for key in x._terms)


def linear_combination(start, pairs):
    """`start` plus the sum of scalar * x over the (x, scalar) pairs, each x
    of start's kind and alphabet.

    The pairs stream into one int accumulator, rescaled only when the lcm
    of the denominators grows, so a fold of n terms copies no partial sum.
    Backs + and -.  An x of another kind raises TypeError and one over
    another alphabet AlphabetMismatch; zero scalars add nothing.
    """
    kind = type(start)
    acc, den = dict(start._terms), start._den
    get = acc.get
    for x, scalar in pairs:
        if type(x) is not kind:
            raise TypeError("cannot add %s to %s" % (type(x).__name__, kind.__name__))
        start._same_alphabet(x)
        num, scalar_den = _ratio(scalar)
        if not num:
            continue
        x_den = x._den * scalar_den
        common = lcm(den, x_den)
        if common != den:
            scale, den = common // den, common
            for key in acc:
                acc[key] *= scale
        num *= common // x_den
        for key, c in x._terms.items():
            acc[key] = get(key, 0) + c * num
        check_term_budget(len(acc))
    return kind._over(start.dim, acc, den)


def _reject_empty(role: str, *xs):
    for x in xs:
        if 0 in x._terms:
            raise EmptyWordOperand("%s must have no empty-word component" % role)


# -- public operations -----------------------------------------------------


def concat(x: TensorElem, y: TensorElem, level=None) -> TensorElem:
    """Concatenation product; levels above `level` are dropped if given."""
    x._same_alphabet(y)
    k = x.dim.bit_length()
    right = [(v, cv, k * length(v, k)) for v, cv in y._terms.items()]
    acc: dict = {}
    get = acc.get
    for u, cu, terms in _pairs(x, right, level):
        for v, cv, v_len in terms:
            w = (u << v_len) | v
            acc[w] = get(w, 0) + cu * cv
    return TensorElem._over(x.dim, acc, x._den * y._den)


def shuffle(x: TensorElem, y: TensorElem) -> TensorElem:
    x._same_alphabet(y)
    return _shuffles(x.dim, ((x, y, 1),), x._den * y._den, False)


def _shuffles(dim, triples, den, cut):
    """The sum of m * (a shuffled with b), or with `cut` of m * (a > b), over
    the (a, b, m) in `triples`, int multipliers over the denominator `den`,
    in one int accumulator held to the term budget after each product.  A
    pair (u, v) walks the memoised u ш v, or u ш v' then v's last letter."""
    k = dim.bit_length()
    acc: dict = {}
    get = acc.get
    shift, mask = (k, (1 << k) - 1) if cut else (0, 0)
    for a, b, mul in triples:
        right = [(v >> shift, v & mask, cv * mul) for v, cv in b._terms.items()]
        for u, cu in a._terms.items():
            for head, last, cv in right:
                c = cu * cv
                for w, m in shuffled(u, head, k).items():
                    w = (w << shift) | last
                    acc[w] = get(w, 0) + c * m
        check_term_budget(len(acc))
    return TensorElem._over(dim, acc, den)


def half_shuffle(x: TensorElem, y: TensorElem) -> TensorElem:
    """x > y: shuffles of x and y ending with the final letter of y."""
    _reject_empty("right half-shuffle factor", y)
    x._same_alphabet(y)
    return _shuffles(x.dim, ((x, y, 1),), x._den * y._den, True)


def half_shuffle_sum(dim: int, triples) -> TensorElem:
    """The sum of s * (x > y) over the (x, y, s) in `triples`, each x and y
    over the alphabet 1..dim, in one accumulator: no product is built as an
    element of its own."""
    triples = list(triples)
    _reject_empty("right half-shuffle factor", *(y for _, y, _ in triples))
    return _shuffles(dim, *_scaled(dim, triples), True)


def area(x: TensorElem, y: TensorElem) -> TensorElem:
    """Antisymmetrized half-shuffle x > y - y > x, the signed-area operation.

    For words u = u'a and v = v'b, area(u, v) = (u ш v') b - (v ш u') a.  If
    a = b = l, both halves hold (u' ш v') l l with opposite signs, so with
    u' = u''e and v' = v''c, area(u, v) = (u ш v'') c l - (v ш u'') e l, a
    half absent if its word is one letter; and area(u, u) = 0.
    """
    _reject_empty("area operand", x, y)
    x._same_alphabet(y)
    return _areas(TensorElem, x.dim, ((x, y, 1),), x._den * y._den)


def area_sum(dim: int, triples) -> TensorElem:
    """The sum of s * area(x, y) over the (x, y, s) in `triples`, each x and
    y over the alphabet 1..dim, in one accumulator: no product is built as
    an element of its own."""
    triples = list(triples)
    _reject_empty("area operand", *(z for x, y, _ in triples for z in (x, y)))
    return _areas(TensorElem, dim, *_scaled(dim, triples))


def _areas(kind, dim, triples, den, level=None):
    """The sum of m * area(x, y) over the (x, y, m) in `triples`, summed as
    in _shuffles through area_words; for a pair-keyed kind, of area(x_s,
    y_t) (x) (s t - t s) over the non-commuting right words s of x and t of
    y with |s| + |t| <= level, x_s being the left words x pairs with s."""
    k = dim.bit_length()
    acc: dict = {}
    get = acc.get
    for x, y, mul in triples:
        if kind is TensorElem:
            area_words(acc, x._terms.items(), ((v, c * mul) for v, c in y._terms.items()), k)
        else:
            lefts, rights = {}, {}
            for side, z, scale in ((lefts, x, 1), (rights, y, mul)):
                for (p, s), c in z._terms.items():
                    side.setdefault(s, []).append((p, c * scale))
            for s, xs in lefts.items():
                s_len = length(s, k)
                for t, ys in rights.items():
                    t_len = length(t, k)
                    st, ts = (s << k * t_len) | t, (t << k * s_len) | s
                    if st == ts or (level is not None and s_len + t_len > level):
                        continue
                    for w, c in area_words({}, xs, ys, k).items():
                        if c:
                            key = (w, st)
                            acc[key] = get(key, 0) + c
                            key = (w, ts)
                            acc[key] = get(key, 0) - c
        check_term_budget(len(acc))
    return kind._over(dim, acc, den)


def lie_bracket(x: TensorElem, y: TensorElem) -> TensorElem:
    return concat(x, y) - concat(y, x)


def pairing(x: TensorElem, y: TensorElem) -> Fraction:
    """Dual pairing with words as an orthonormal pair of bases."""
    x._same_alphabet(y)
    small, big = (x._terms, y._terms) if len(x) <= len(y) else (y._terms, x._terms)
    total = 0
    for w, c in small.items():
        other = big.get(w)
        if other is not None:
            total += c * other
    return Fraction(total, x._den * y._den)


def dynkin_r(x: TensorElem) -> TensorElem:
    """Right bracketing w -> [l1,[l2,...[l_{n-1},ln]]], linearly extended."""
    return _linear(x, r_codes)


def rho(x: TensorElem) -> TensorElem:
    """Adjoint of dynkin_r under the word pairing."""
    return _linear(x, rho_codes)


def grading_d(x):
    """Each term times its degree: the word length of a TensorElem, the
    right-word length of a DoubleTensor."""
    grade, k = x._grade, x.dim.bit_length()
    return x._like(
        {key: c * g for key, c in x._terms.items() if (g := grade(key, k))}, x._den
    )


def grading_d_inv(x):
    """Divide each term by its degree; undefined on terms of degree zero."""
    grade, k = x._grade, x.dim.bit_length()
    # the lcm of the grades, 0 if any grade is 0
    common = lcm(*(grade(key, k) for key in x._terms))
    if not common:
        raise EmptyWordOperand("grading inverse is undefined in degree zero")
    return x._like(
        {key: c * (common // grade(key, k)) for key, c in x._terms.items()},
        x._den * common,
    )


def antipode(x: TensorElem) -> TensorElem:
    """w -> (-1)^|w| times w reversed; an involution."""
    k = x.dim.bit_length()
    terms = {}
    for w, c in x._terms.items():
        word = decode(w, k)
        terms[encode(reversed(word), k)] = -c if len(word) % 2 else c
    return TensorElem._raw(x.dim, terms, x._den)


def pi1(x: TensorElem) -> TensorElem:
    return _linear(x, pi1_numerators, key_den=log_den)


def pi1_transpose(x: TensorElem) -> TensorElem:
    return _linear(x, pi1_transpose_numerators, key_den=log_den)


class CoproductTerms(_Terms):
    """Finite map (word, word) -> rational produced by unshuffling."""

    __slots__ = ()

    def pair_with(self, a: TensorElem, b: TensorElem) -> Fraction:
        """<a (x) b, self>, the scalar dual to shuffling a with b."""
        return pairing(a, _contract(self, b, 1))


def unshuffle(x: TensorElem) -> CoproductTerms:
    """Coproduct dual to the shuffle product."""
    return _linear(x, unshuffle_codes, CoproductTerms)


def is_grouplike(g: TensorElem, level: int) -> bool:
    """Check the grouplike law unshuffle(g) = g (x) g up to `level`: g is
    truncated there, and g (x) g keeps the pairs of total degree <= level."""
    g = g.truncate(level)
    if g.empty_coeff() != 1:
        return False
    pairs = _pairs(g, list(g._terms.items()), level)
    square = {(u, v): cu * cv for u, cu, kept in pairs for v, cv in kept}
    return unshuffle(g) == CoproductTerms._over(g.dim, square, g._den * g._den)


def _concat_horner(x, level, weights) -> TensorElem:
    """The sum over m of s_m y^m for concatenation, truncated at `level`,
    where y is x without its empty-word term and its grades above `level`.

    weights(top) gives the ints s_0, ..., s_top and their common
    denominator, for the highest power top = level // (the lowest grade of
    y) that the truncation keeps: the free algebra has no zero divisors,
    so y^m is nonzero exactly up to there.  Horner's rule runs from the
    top, H_top = s_top and H_m = s_m + H_(m+1) y, and the series is H_0.
    H_m is held per grade up to grade level - m * low (y^m multiplies it
    later), as int numerators over one denominator, which is brought to
    lowest terms after each step so that the ints stay as small as the
    values allow.  Grade n of H_(m+1) y sums grade n-j of H_(m+1) times
    grade j of y over j, so each word of the pair is (u << k*j) | v, with
    no length found per pair.  Every grade and every H_m is checked
    against the term budget as it is built.  Backs exp_conc and log_conc.
    """
    k = x.dim.bit_length()
    grades = [[] for _ in range(level + 1)]
    for u, c in x._terms.items():
        n = length(u, k)
        if 0 < n <= level:
            grades[n].append((u, c))
    den = x._den
    steps = [(j, k * j, grade) for j, grade in enumerate(grades) if grade]
    low = steps[0][0] if steps else 0
    top = level // low if low else 0
    nums, common = weights(top)
    rest, below = [{0: nums[top]}], 1  # H_top, over below
    for m in range(top - 1, -1, -1):
        below *= den
        scale = nums[m] * below
        held = [{0: scale} if scale else {}]
        for n in range(1, level - m * low + 1):
            acc: dict = {}
            get = acc.get
            for j, shift, right in steps:
                if j > n:
                    break
                if n - j >= len(rest):
                    continue
                for u, cu in rest[n - j].items():
                    u <<= shift
                    for v, cv in right:
                        w = u | v
                        acc[w] = get(w, 0) + cu * cv
            check_term_budget(len(acc))
            held.append(acc)
        check_term_budget(sum(map(len, held)))
        shared = gcd(below, *(c for grade in held for c in grade.values()))
        if shared != 1:
            below //= shared
            held = [{w: c // shared for w, c in grade.items()} for grade in held]
        rest = held
    out = {w: c for grade in rest for w, c in grade.items()}
    return TensorElem._over(x.dim, out, common * below)


def _exp_weights(top):
    """top!/m! for m = 0..top, over top!."""
    whole = factorial(top)
    return [whole // factorial(m) for m in range(top + 1)], whole


def _log_weights(top):
    """0, then (-1)^(m-1) c/m for m = 1..top, over c = lcm(1, ..., top)."""
    whole = lcm(*range(1, top + 1))
    return [0] + [whole // m if m % 2 else -(whole // m) for m in range(1, top + 1)], whole


def exp_conc(x: TensorElem, level: int = 5) -> TensorElem:
    """Concatenation exponential, truncated at `level`."""
    if 0 in x._terms:
        raise EmptyWordOperand("exp needs a vanishing empty-word coefficient")
    return _concat_horner(x, level, _exp_weights)


def log_conc(g: TensorElem, level: int = 5) -> TensorElem:
    """Concatenation logarithm, truncated at `level`."""
    if g._terms.get(0) != g._den:
        raise ValueError("log needs empty-word coefficient exactly 1")
    return _concat_horner(g, level, _log_weights)


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
