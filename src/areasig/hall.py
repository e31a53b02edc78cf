"""Lyndon and Hall word bases of the free Lie algebra with dual elements.

A HallBasis carries, per level, the ordered Hall words together with three
derived families: the bracketings p(h), the dual elements s(h) of the
Poincare-Birkhoff-Witt basis of decreasing Hall products, and the
first-kind coordinates zeta(h) = pi1_transpose(s(h)).

The duals come from Schutzenberger's closed form (Reutenauer, Free Lie
Algebras, 1993, Thm 5.3), which holds for any Hall set and so for both
orders here:
- s(a) = a for a letter a;
- s(au) = a s(u) (concatenation) when au is a Hall word;
- s(w) = s(h1)^{sh i1} sh ... sh s(hk)^{sh ik} / (i1! ... ik!) for the
  non-increasing Hall factorization w = h1^i1 ... hk^ik of any other word.

Each Hall word carries its area tree, in the format of areasig.trees, and
its bracketing p(h) is that tree evaluated with the Lie bracket by
trees.lie_eval, whose process-wide memo is the bracketings' one cache.
Instances are immutable after construction and can be shared for
concurrent reads; the other derived families are memoised per instance
through areasig.memo.memo_per_owner, so their tables are freed with the
basis.
"""

from __future__ import annotations

import functools
import itertools
import math

from .memo import memo_per_owner
from .tensor import (
    TensorElem,
    _word,
    concat,
    format_word,
    letter_elem,
    lie_bracket,
    pairing,
    pi1_transpose,
    shuffle,
    words_of_length,
)
from .trees import AREA, is_leaf, lie_eval


def tree_brackets(tree) -> str:
    """The [x,y] text of an area tree, read as a Lie bracketing."""
    if is_leaf(tree):
        return str(tree)
    return "[%s,%s]" % (tree_brackets(tree[1]), tree_brackets(tree[2]))


def _less_lyndon(a, b):
    return a.word < b.word


def _less_standard_hall(a, b):
    # Longer factorizations come first; ties recurse into the factors,
    # letters ordered naturally.  This comparison reproduces the classical
    # left-normed Hall family (121 -> [[1,2],1] and so on).
    if len(a) != len(b):
        return len(b) < len(a)
    if a.is_letter:
        return a.word < b.word
    if a.left == b.left:
        return _less_standard_hall(a.right, b.right)
    return _less_standard_hall(a.left, b.left)


_ORDERS = {"lyndon": _less_lyndon, "standard_hall": _less_standard_hall}


class HallWord:
    """One basis index: its word, its standard factorization links, and the
    area tree bracketing those links out (the letter itself for a letter)."""

    __slots__ = ("word", "left", "right", "dim", "tree")

    def __init__(self, dim, letter=None, left=None, right=None):
        self.dim = dim
        self.left = left
        self.right = right
        if left is None:
            self.word, self.tree = (letter,), letter
        else:
            self.word = left.word + right.word
            self.tree = (AREA, left.tree, right.tree)

    @property
    def is_letter(self):
        return self.left is None

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, HallWord) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "<HallWord %s = %s>" % (
            "".join(map(str, self.word)),
            tree_brackets(self.tree),
        )


def hall_bracketing(h: HallWord) -> TensorElem:
    """The Lie element obtained by bracketing out the factorization of h."""
    return lie_eval(h.tree, h.dim)


class HallBasis:
    def __init__(self, dim: int, max_level: int, kind: str = "lyndon"):
        if kind not in _ORDERS:
            raise ValueError("kind must be one of %s" % sorted(_ORDERS))
        if dim < 1 or max_level < 1:
            raise ValueError("need dim >= 1 and max_level >= 1")
        self.dim = dim
        self.max_level = max_level
        self.kind = kind
        self._less = _ORDERS[kind]
        self.levels: list[list[HallWord]] = [
            [HallWord(dim, letter) for letter in range(1, dim + 1)]
        ]
        for level in range(2, max_level + 1):
            found = [
                HallWord(dim, left=x, right=y)
                for left_size in range(1, level)
                for x in self.levels[left_size - 1]
                for y in self.levels[level - left_size - 1]
                if self._less(x, y) and (x.is_letter or not self._less(x.right, y))
            ]
            found.sort(key=self._sort_key)
            self.levels.append(found)
        self._by_word = {h.word: h for row in self.levels for h in row}

    def _cmp(self, a, b):
        if self._less(a, b):
            return -1
        if self._less(b, a):
            return 1
        return 0

    def _sort_key(self, h):
        return functools.cmp_to_key(self._cmp)(h)

    # -- lookup ----------------------------------------------------------

    def level(self, n: int) -> list[HallWord]:
        if not 1 <= n <= self.max_level:
            raise ValueError("level %d outside 1..%d" % (n, self.max_level))
        return list(self.levels[n - 1])

    def all_hall_words(self, max_level=None):
        top = self.max_level if max_level is None else max_level
        for n in range(1, top + 1):
            yield from self.level(n)

    def find(self, word) -> HallWord | None:
        return self._by_word.get(tuple(word))

    def __contains__(self, word):
        return tuple(word) in self._by_word

    def less(self, a: HallWord, b: HallWord) -> bool:
        return self._less(a, b)

    # -- derived families --------------------------------------------------

    def bracketing(self, h: HallWord) -> TensorElem:
        return hall_bracketing(h)

    @memo_per_owner
    def _bracket_terms(self, n: int) -> dict:
        """Structure constants at level n: each Hall word h of level n maps
        to the (h1, h2, c) with h1 < h2, |h1| + |h2| = n and
        c = <S_h, [P_h1, P_h2]> nonzero, in level order of h1, then h2."""
        level = self.level(n)
        table = {h: [] for h in level}
        # <S_h, [P_h1, P_h2]> vanishes unless h and h1 h2 are anagrams
        by_content = {}
        for h in level:
            by_content.setdefault(tuple(sorted(h.word)), []).append(h)
        for n1 in range(1, n):
            for h1 in self.levels[n1 - 1]:
                for h2 in self.levels[n - n1 - 1]:
                    content = tuple(sorted(h1.word + h2.word))
                    if content not in by_content or not self.less(h1, h2):
                        continue
                    bracket = lie_bracket(self.bracketing(h1), self.bracketing(h2))
                    for h in by_content[content]:
                        c = pairing(self.dual_pbw(h), bracket)
                        if c:
                            table[h].append((h1, h2, c))
        return {h: tuple(terms) for h, terms in table.items()}

    def _decreasing_products(self, n: int):
        """All non-increasing Hall sequences of total length n."""
        hall = list(self.all_hall_words(min(n, self.max_level)))
        hall.sort(key=self._sort_key)
        hall.reverse()  # largest first, so sequences read non-increasingly
        sequences = []

        def grow(start, remaining, acc):
            if remaining == 0:
                sequences.append(tuple(acc))
                return
            for idx in range(start, len(hall)):
                h = hall[idx]
                if len(h) <= remaining:
                    acc.append(h)
                    grow(idx, remaining - len(h), acc)
                    acc.pop()

        grow(0, n, [])
        return sequences

    @memo_per_owner
    def _factorizations(self, n: int) -> dict:
        """Word of length n -> its non-increasing Hall factorization."""
        return {
            sum((h.word for h in seq), ()): seq
            for seq in self._decreasing_products(n)
        }

    @memo_per_owner
    def _dual(self, word) -> TensorElem:
        # Reutenauer, Free Lie Algebras (1993), Thm 5.3, memoised per word.
        if len(word) < 2:
            return TensorElem(self.dim, {word: 1})
        if word in self._by_word:
            return concat(letter_elem(word[0], self.dim), self._dual(word[1:]))
        seq = self._factorizations(len(word))[word]
        dual = functools.reduce(shuffle, [self._dual(h.word) for h in seq])
        repeats = math.prod(
            math.factorial(len(list(run))) for _, run in itertools.groupby(seq)
        )
        return dual / repeats if repeats != 1 else dual

    def dual_pbw(self, h: HallWord) -> TensorElem:
        """s(h): the word-side element dual to the bracketing of h."""
        return self._dual(h.word)

    def dual_pbw_for_word(self, word) -> TensorElem:
        """Dual element for an arbitrary word of the full product basis.

        The empty word gives the unit, dual to the empty product.  Raises
        ValueError for a word with a letter outside 1..dim or longer than
        max_level.
        """
        word = _word(word, self.dim)
        if len(word) > self.max_level:
            raise ValueError(
                "word %s is longer than max_level %d"
                % (format_word(word, self.dim), self.max_level)
            )
        return self._dual(word)

    @memo_per_owner
    def zeta(self, h: HallWord) -> TensorElem:
        return pi1_transpose(self.dual_pbw(h))

    # -- reporting ---------------------------------------------------------

    def table_rows(self):
        """Rows (h, bracket text, P_h, S_h, zeta_h) for the table emitter."""
        for level in self.levels:
            for h in level:
                yield {
                    "hall_word": "".join(map(str, h.word)),
                    "bracketing": tree_brackets(h.tree),
                    "p": self.bracketing(h),
                    "s": self.dual_pbw(h),
                    "zeta": self.zeta(h),
                }


def hall_set(d: int, max_level: int, kind: str = "lyndon") -> HallBasis:
    return HallBasis(d, max_level, kind)


def is_lyndon(word) -> bool:
    """A nonempty word strictly smaller than every proper suffix."""
    word = tuple(word)
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(d: int, n: int):
    """All Lyndon words of length n over 1..d, lexicographic order."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return [w for w in words_of_length(d, n) if is_lyndon(w)]


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(d: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on d letters."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    total = 0
    for k in range(1, n + 1):
        if n % k == 0:
            total += _mobius(k) * d ** (n // k)
    return total // n
