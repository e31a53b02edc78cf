"""Lyndon and Hall word bases of the free Lie algebra with dual elements.

A HallBasis carries, per level, the ordered Hall trees together with three
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

Instances are immutable after construction and can be shared for
concurrent reads; the derived families are memoised per instance through
areasig.memo.memo_per_owner, so their tables are freed with the basis.
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

# Hall trees are nested tuples: a letter int, or a pair (left, right).


def tree_word(tree):
    if isinstance(tree, int):
        return (tree,)
    return tree_word(tree[0]) + tree_word(tree[1])


def tree_brackets(tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    return "[%s,%s]" % (tree_brackets(tree[0]), tree_brackets(tree[1]))


def _less_lyndon(a, b):
    return tree_word(a) < tree_word(b)


def _less_standard_hall(a, b):
    # Longer factorizations come first; ties recurse into the factors,
    # letters ordered naturally.  This comparison reproduces the classical
    # left-normed Hall family (121 -> [[1,2],1] and so on).
    wa, wb = tree_word(a), tree_word(b)
    if len(wa) != len(wb):
        return len(wb) < len(wa)
    if isinstance(a, int):
        return a < b
    if a[0] == b[0]:
        return _less_standard_hall(a[1], b[1])
    return _less_standard_hall(a[0], b[0])


_ORDERS = {"lyndon": _less_lyndon, "standard_hall": _less_standard_hall}


class HallWord:
    """One basis index: its word plus the standard factorization links."""

    __slots__ = ("word", "left", "right", "dim", "_tree")

    def __init__(self, tree, dim, left=None, right=None):
        self.word = tree_word(tree)
        self.dim = dim
        self.left = left
        self.right = right
        self._tree = tree

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
            tree_brackets(self._tree),
        )


def hall_bracketing(h: HallWord) -> TensorElem:
    """The Lie element obtained by bracketing out the factorization of h."""
    if h.is_letter:
        return letter_elem(h.word[0], h.dim)
    return lie_bracket(hall_bracketing(h.left), hall_bracketing(h.right))


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
        trees = [[letter for letter in range(1, dim + 1)]]
        for level in range(2, max_level + 1):
            found = []
            for left_size in range(1, level):
                for x in trees[left_size - 1]:
                    for y in trees[level - left_size - 1]:
                        if self._less(x, y) and (
                            isinstance(x, int) or not self._less(x[1], y)
                        ):
                            found.append((x, y))
            found.sort(key=self._sort_key)
            trees.append(found)
        by_tree = {}
        self.levels: list[list[HallWord]] = []
        for level_trees in trees:
            row = []
            for tree in level_trees:
                if isinstance(tree, int):
                    hw = HallWord(tree, dim)
                else:
                    hw = HallWord(tree, dim, by_tree[tree[0]], by_tree[tree[1]])
                by_tree[tree] = hw
                row.append(hw)
            self.levels.append(row)
        self._by_word = {h.word: h for row in self.levels for h in row}

    def _tree_cmp(self, a, b):
        if self._less(a, b):
            return -1
        if self._less(b, a):
            return 1
        return 0

    def _sort_key(self, tree):
        return functools.cmp_to_key(self._tree_cmp)(tree)

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
        return self._less(a._tree, b._tree)

    # -- derived families --------------------------------------------------

    @memo_per_owner
    def bracketing(self, h: HallWord) -> TensorElem:
        return hall_bracketing(h)

    @memo_per_owner
    def _bracket_terms(self, n: int) -> dict:
        """Structure constants at level n: each Hall word h of level n maps
        to the (h1, h2, c) with h1 < h2, |h1| + |h2| = n and
        c = <S_h, [P_h1, P_h2]> nonzero, in level order of h1, then h2."""
        level = self.level(n)
        table = {h: [] for h in level}
        for n1 in range(1, n):
            for h1 in self.levels[n1 - 1]:
                for h2 in self.levels[n - n1 - 1]:
                    if not self.less(h1, h2):
                        continue
                    bracket = lie_bracket(self.bracketing(h1), self.bracketing(h2))
                    for h in level:
                        c = pairing(self.dual_pbw(h), bracket)
                        if c:
                            table[h].append((h1, h2, c))
        return {h: tuple(terms) for h, terms in table.items()}

    def _decreasing_products(self, n: int):
        """All non-increasing Hall sequences of total length n."""
        hall = list(self.all_hall_words(min(n, self.max_level)))
        hall.sort(key=lambda h: self._sort_key(h._tree))
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
                    "bracketing": tree_brackets(h._tree),
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
