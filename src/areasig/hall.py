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
  non-increasing Hall factorization w = h1^i1 ... hk^ik of any other word,
  found by rewriting: from the letters of w, merge the rightmost adjacent
  pair h_i < h_(i+1) into the Hall word h_i h_(i+1) until none is left
  (the standard sequences of Reutenauer, Ch. 4).

Each order is one sort key per Hall word, computed once per basis from its
factors' keys: the word itself for the Lyndon order, and (-length, key of
the left factor, key of the right factor) for the standard Hall order.
Words print through tensor.format_word, bracketed as [1,12] for d >= 10.

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
import math
from collections import Counter

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


def _standard_hall_key(h):
    # Longer words come first, letters ordered naturally.  This order
    # reproduces the classical left-normed Hall family (121 -> [[1,2],1]).
    if h.is_letter:
        return (-1, h.word[0])
    return (-len(h), h.left.key, h.right.key)


_ORDERS = {"lyndon": lambda h: h.word, "standard_hall": _standard_hall_key}


class HallWord:
    """One basis index: its word, its standard factorization links, and the
    area tree bracketing those links out (the letter itself for a letter).
    Its basis sets `key`, its sort key in the basis order."""

    __slots__ = ("word", "left", "right", "dim", "tree", "key")

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
            format_word(self.word, self.dim),
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
        order = _ORDERS[kind]

        def hall_word(**links):
            h = HallWord(dim, **links)
            h.key = order(h)
            return h

        self.levels = [[hall_word(letter=a) for a in range(1, dim + 1)]]
        for level in range(2, max_level + 1):
            found = [
                hall_word(left=x, right=y)
                for left_size in range(1, level)
                for x in self.levels[left_size - 1]
                for y in self.levels[level - left_size - 1]
                if self.less(x, y) and (x.is_letter or not self.less(x.right, y))
            ]
            found.sort(key=lambda h: h.key)
            self.levels.append(found)
        self._by_word = {h.word: h for row in self.levels for h in row}

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
        """a < b in this basis's order, for Hall words of this basis."""
        return a.key < b.key

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

    def _factorization(self, word) -> list[HallWord]:
        """The non-increasing Hall factorization of a word, by rewriting
        its letters as the module docstring says."""
        seq = [self._by_word[(letter,)] for letter in word]
        i = len(seq) - 2
        while i >= 0:
            if self.less(seq[i], seq[i + 1]):
                seq[i : i + 2] = [self._by_word[seq[i].word + seq[i + 1].word]]
                i = min(i, len(seq) - 2)
            else:
                i -= 1
        return seq

    @memo_per_owner
    def _dual(self, word) -> TensorElem:
        # Reutenauer, Free Lie Algebras (1993), Thm 5.3, memoised per word.
        if len(word) < 2:
            return TensorElem(self.dim, {word: 1})
        if word in self._by_word:
            return concat(letter_elem(word[0], self.dim), self._dual(word[1:]))
        seq = self._factorization(word)
        dual = functools.reduce(shuffle, [self._dual(h.word) for h in seq])
        repeats = math.prod(map(math.factorial, Counter(seq).values()))
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
                    "hall_word": format_word(h.word, h.dim),
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
