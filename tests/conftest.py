"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library code paths
they check: shuffles by brute-force position enumeration, unshuffles by
choosing position subsets, the Eulerian idempotent pi1 by scattering
positions onto blocks and its transpose by cutting into blocks, brackets
by a tiny standalone expansion on dicts, ranks, span membership and inverses
by one plain Fraction Gauss-Jordan, the two Hall orders by the recursive
comparator they were first defined by, the non-increasing Hall sequences by
enumerating them all, Hall duals by inverting the matrix of decreasing Hall
products, path signatures by a chain of sparse Fraction
concatenation products, discrete areas, the trapezoid rule and the tree
walk by plain Fraction sums and products, and the bilinear, linear and
contraction lifts and the exp/log series by plain pair loops on dicts of
Fractions, and the grouplike law by comparing the two sides at every pair
of words.  The tree-indexed expansions are summed one labeled tree at a
time, each tree evaluated and paired on its own.  The volume and the
degree-four identity are built as whole elements, one area at a time, and
compared with ==; the n-volume as the signed sum over all n! orderings.

Helpers that only tests call live here too: every word up to a length,
the pairing of a word-side element with a path's signature, an area-span
membership decomposition put back together, and the expansion of a word as
shuffles of rho images evaluated.
"""

from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from itertools import chain, combinations, permutations, product
from math import factorial, gcd

import random

from areasig import (
    DoubleTensor,
    ScalarSeries,
    TensorElem,
    area,
    area_eval,
    coeff_b,
    coeff_c,
    coeff_e,
    concat,
    enumerate_mixed,
    enumerate_trees,
    exp_conc,
    half_shuffle,
    letter_elem,
    lie_eval,
    mixed_eval,
    pairing,
    rho,
    shuffle,
    signature_pwl,
    tensor_pair,
    unit,
    word_elem,
    words_as_rho_shuffles,
)
from areasig.tensor import linear_combination, words_of_length


def shuffle_oracle(u, v):
    """All ways to interleave u and v, counted with multiplicity."""
    u, v = tuple(u), tuple(v)
    n = len(u) + len(v)
    out = {}
    for positions in combinations(range(n), len(u)):
        chosen = set(positions)
        ui, vi = iter(u), iter(v)
        word = tuple(next(ui) if i in chosen else next(vi) for i in range(n))
        out[word] = out.get(word, 0) + 1
    return out


def unshuffle_oracle(w):
    """Every split of w's positions into two complementary subsequences."""
    w = tuple(w)
    n = len(w)
    out = {}
    for k in range(n + 1):
        for chosen in combinations(range(n), k):
            left = tuple(w[i] for i in chosen)
            right = tuple(w[i] for i in range(n) if i not in chosen)
            out[(left, right)] = out.get((left, right), 0) + 1
    return out


@lru_cache(maxsize=None)
def _pi1_scatter(n):
    """pi1 at n distinct letters 0..n-1: for each k, every surjective
    scatter of the positions onto k blocks, read off block by block, with
    weight (-1)^(k-1)/k."""
    out = {}
    for k in range(1, n + 1):
        weight = Fraction((-1) ** (k - 1), k)
        for assignment in product(range(k), repeat=n):
            if len(set(assignment)) != k:
                continue
            blocks = [[] for _ in range(k)]
            for pos, block in enumerate(assignment):
                blocks[block].append(pos)
            order = tuple(pos for block in blocks for pos in block)
            out[order] = out.get(order, 0) + weight
    return out


def pi1_word_oracle(w):
    """pi1(w) by brute force: the scatter of positions, read in w's letters."""
    w = tuple(w)
    out = {}
    for order, c in _pi1_scatter(len(w)).items():
        word = tuple(w[pos] for pos in order)
        out[word] = out.get(word, 0) + c
    return {word: c for word, c in out.items() if c}


def pi1_transpose_oracle(w):
    """pi1 transposed by brute force: for every cut of w into k blocks, the
    shuffle of the blocks (by shuffle_oracle), weight (-1)^(k-1)/k."""
    w = tuple(w)
    n = len(w)
    if not n:
        return {}
    out = {}
    for cut_mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if cut_mask >> i & 1]
        bounds = [0] + cuts + [n]
        blocks = [w[a:b] for a, b in zip(bounds, bounds[1:])]
        weight = Fraction((-1) ** (len(blocks) - 1), len(blocks))
        shuffled = {blocks[0]: 1}
        for block in blocks[1:]:
            nxt = {}
            for t, c in shuffled.items():
                for s, m in shuffle_oracle(t, block).items():
                    nxt[s] = nxt.get(s, 0) + c * m
            shuffled = nxt
        for t, c in shuffled.items():
            out[t] = out.get(t, 0) + weight * c
    return {word: c for word, c in out.items() if c}


def bracket_oracle(x: dict, y: dict) -> dict:
    """Concatenation commutator on raw word->coefficient dicts."""
    out = {}
    for u, cu in x.items():
        for v, cv in y.items():
            out[u + v] = out.get(u + v, 0) + cu * cv
            out[v + u] = out.get(v + u, 0) - cu * cv
    return {w: c for w, c in out.items() if c}


def right_bracketing_oracle(word) -> dict:
    """[l1,[l2,...[l_{n-1},ln]]] expanded with bracket_oracle."""
    word = tuple(word)
    if not word:
        return {}
    out = {word[-1:]: 1}
    for letter in reversed(word[:-1]):
        out = bracket_oracle({(letter,): 1}, out)
    return out


def gauss_jordan(rows, width):
    """Reduced row echelon form by plain Fraction Gauss-Jordan, pivoting on
    the first `width` columns only; returns (rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(width):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        head = rows[top][col]
        rows[top] = [v / head for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def rank_oracle(vectors):
    """Rank by plain Fraction Gaussian elimination (no fraction-free tricks)."""
    columns = sorted({c for vec in vectors for c in vec})
    rows = [[vec.get(c, 0) for c in columns] for vec in vectors]
    return len(gauss_jordan(rows, len(columns))[1])


def solve_oracle(vectors, target):
    """Coefficients writing `target` as a combination of `vectors`, or None.

    Vectors and target are sparse dicts key -> coefficient; for a dependent
    family the free coefficients are zero.
    """
    columns = sorted(set(target).union(*vectors))
    # one equation per key: sum_j c_j vectors[j][key] = target[key]
    rows = [
        [vec.get(key, 0) for vec in vectors] + [target.get(key, 0)]
        for key in columns
    ]
    rows, pivots = gauss_jordan(rows, len(vectors))
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * len(vectors)
    for row, col in zip(rows, pivots):
        solution[col] = row[-1]
    return solution


def random_elem(rng: random.Random, d, max_deg, min_deg=0, terms=4, max_den=5):
    data = {}
    for _ in range(rng.randint(1, terms)):
        n = rng.randint(min_deg, max_deg)
        word = tuple(rng.randint(1, d) for _ in range(n))
        data[word] = Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
    return TensorElem(d, data)


def random_double(rng: random.Random, d, max_left, max_right, min_left=0,
                  min_right=0, terms=4, max_den=12):
    """Seeded DoubleTensor with word lengths in the given ranges."""
    data = {}
    for _ in range(rng.randint(1, terms)):
        left = tuple(rng.randint(1, d) for _ in range(rng.randint(min_left, max_left)))
        right = tuple(rng.randint(1, d) for _ in range(rng.randint(min_right, max_right)))
        data[(left, right)] = Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
    return DoubleTensor(d, data)


def assert_canonical(x):
    """x's store is in lowest terms: nonzero int numerators over a positive
    denominator sharing no factor with all of them, and 1 for zero."""
    numerators = list(x._terms.values())
    assert all(type(c) is int and c for c in numerators)
    assert x._den >= 1 and gcd(x._den, *numerators) == 1
    assert numerators or x._den == 1


# -- the lifts over Fraction coefficients --------------------------------------
# The bodies the tensor module's lifts had while its store held Fractions,
# on dicts key -> Fraction (fractions_of turns an element into one).


def fractions_of(x) -> dict:
    return dict(x.terms())


def _nonzero(acc):
    return {key: c for key, c in acc.items() if c}


def bilinear_oracle(x: dict, y: dict, key_op, level=None, grade=len) -> dict:
    """Sum of cu cv key_op(u, v) over the term pairs with grade(u) + grade(v)
    at most `level`."""
    acc = {}
    for u, cu in x.items():
        for v, cv in y.items():
            if level is not None and grade(u) + grade(v) > level:
                continue
            for w, k in key_op(u, v).items():
                acc[w] = acc.get(w, 0) + cu * cv * k
    return _nonzero(acc)


def concat_oracle(x: dict, y: dict, level=None) -> dict:
    return bilinear_oracle(x, y, lambda u, v: {u + v: 1}, level)


def linear_oracle(x: dict, key_op) -> dict:
    acc = {}
    for u, cu in x.items():
        for w, k in key_op(u).items():
            acc[w] = acc.get(w, 0) + cu * k
    return _nonzero(acc)


def contract_oracle(f: dict, x: dict, side) -> dict:
    """Side `side` of f's pair keys paired against x."""
    acc = {}
    for key, c in f.items():
        cx = x.get(key[side])
        if cx is not None:
            acc[key[1 - side]] = acc.get(key[1 - side], 0) + c * cx
    return _nonzero(acc)


def pairing_oracle(x: dict, y: dict) -> Fraction:
    return sum((c * y[w] for w, c in x.items() if w in y), Fraction(0))


def series_oracle(x: dict, one: dict, product, level, log=False) -> dict:
    """exp(x), or log(one + x), truncated: the powers product(power, x,
    level) weighted by 1/n! or (-1)^(n-1)/n."""
    result = {} if log else dict(one)
    power = dict(one)
    for n in range(1, level + 1):
        power = product(power, x, level)
        weight = Fraction((-1) ** (n - 1), n) if log else Fraction(1, factorial(n))
        for w, c in power.items():
            result[w] = result.get(w, 0) + c * weight
    return _nonzero(result)


def random_lie_elem(rng: random.Random, basis, max_level):
    """Random combination of Hall bracketings up to max_level."""
    total = TensorElem(basis.dim, {})
    for h in basis.all_hall_words(max_level):
        if rng.random() < 0.5:
            total = total + basis.bracketing(h) * Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
    return total


def pbw_product(basis, seq):
    """Concatenation product of the bracketings along a Hall sequence."""
    elem = unit(basis.dim)
    for h in seq:
        elem = concat(elem, basis.bracketing(h))
    return elem


def invert_matrix_oracle(matrix):
    """Exact inverse of a square Fraction/int matrix by Gauss-Jordan."""
    n = len(matrix)
    aug = [
        list(row) + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    rows, pivots = gauss_jordan(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def hall_less_oracle(kind, a, b):
    """The Hall orders as recursive comparators: Lyndon words compare
    lexicographically; in the standard Hall order longer words come first,
    letters compare naturally, and other ties recurse into the left
    factors, or into the right ones when the left factors agree."""
    if kind == "lyndon":
        return a.word < b.word
    if len(a) != len(b):
        return len(b) < len(a)
    if a.is_letter:
        return a.word < b.word
    if a.left == b.left:
        return hall_less_oracle(kind, a.right, b.right)
    return hall_less_oracle(kind, a.left, b.left)


def hall_sort_key_oracle(kind):
    """A sort key for Hall words built from hall_less_oracle."""
    def cmp(a, b):
        return -1 if hall_less_oracle(kind, a, b) else int(hall_less_oracle(kind, b, a))
    return cmp_to_key(cmp)


def decreasing_products_oracle(basis, n):
    """All non-increasing Hall sequences of total length n, by enumerating
    them in the order of hall_less_oracle, largest first."""
    hall = sorted(
        basis.all_hall_words(min(n, basis.max_level)),
        key=hall_sort_key_oracle(basis.kind),
        reverse=True,
    )
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


def dual_pbw_oracle(basis, n):
    """Word -> dual element at level n, by inverting the d^n x d^n matrix
    whose rows are the decreasing Hall products in word coordinates."""
    sequences = decreasing_products_oracle(basis, n)
    columns = list(product(range(1, basis.dim + 1), repeat=n))
    assert len(sequences) == len(columns)
    col_index = {w: i for i, w in enumerate(columns)}
    rows = []
    for seq in sequences:
        row = [0] * len(columns)
        for w, c in pbw_product(basis, seq).terms():
            row[col_index[w]] = c
        rows.append(row)
    transposed = [list(col) for col in zip(*rows)]
    inverse = invert_matrix_oracle(transposed)
    duals = {}
    for seq, inv_row in zip(sequences, inverse):
        terms = {columns[v]: c for v, c in enumerate(inv_row) if c}
        duals[sum((h.word for h in seq), ())] = TensorElem(basis.dim, terms)
    assert len(duals) == len(sequences)
    return duals


def signature_oracle(x, level):
    """Signature of the piecewise-linear path x: the exponentials of the
    increments multiplied by truncated concatenation, in Fractions."""
    sig = unit(x.dim)
    for start, end in zip(x.points, x.points[1:]):
        increment = TensorElem(
            x.dim,
            {(i + 1,): end[i] - start[i] for i in range(x.dim)},
        )
        sig = concat(sig, exp_conc(increment, level), level)
    return sig


def is_grouplike_oracle(g, level):
    """Whether <unshuffle(g), u (x) v> = <g, u><g, v> for every pair of words
    u, v of total length <= level, g truncated at level, its empty word 1."""
    g = g.truncate(level)
    if g.empty_coeff() != 1:
        return False
    split = {}
    for w, c in g.terms():
        for pair, m in unshuffle_oracle(w).items():
            split[pair] = split.get(pair, 0) + c * m
    letters = range(1, g.dim + 1)
    words = [w for n in range(level + 1) for w in product(letters, repeat=n)]
    return all(
        split.get((u, v), 0) == g.coeff(u) * g.coeff(v)
        for u in words for v in words if len(u) + len(v) <= level
    )


def discrete_area_oracle(a, b):
    """Antisymmetrized cross-correlation of two series, summed in Fractions."""
    out = [Fraction(0)]
    for i in range(len(a) - 1):
        out.append(out[-1] + a[i] * b[i + 1] - a[i + 1] * b[i])
    return ScalarSeries(out)


def discrete_integral_oracle(a, b):
    """Trapezoid rule of a against the increments of b, summed in Fractions."""
    out = [Fraction(0)]
    for i in range(len(a) - 1):
        out.append(out[-1] + (a[i] + a[i + 1]) * (b[i + 1] - b[i]) / 2)
    return ScalarSeries(out)


def discrete_area_tree_oracle(tree, x):
    """Walk a mixed tree in Fractions: a leaf is its coordinate read off the
    points, a shuffle node the pointwise product of its children's values
    and an area node discrete_area_oracle of them."""
    if isinstance(tree, int):
        return ScalarSeries([p[tree - 1] for p in x.points])
    kind, left, right = tree
    a = discrete_area_tree_oracle(left, x)
    b = discrete_area_tree_oracle(right, x)
    if kind == "s":
        return ScalarSeries([u * v for u, v in zip(a.values, b.values)])
    return discrete_area_oracle(a, b)


def foliage(tree):
    """The leaf labels of a tree, left to right."""
    if isinstance(tree, int):
        return (tree,)
    return foliage(tree[1]) + foliage(tree[2])


def all_words(dim, max_len):
    """Every word over 1..dim of length at most max_len, shortest first."""
    for n in range(max_len + 1):
        yield from words_of_length(dim, n)


def signature_pairing(phi, x):
    """<phi, signature of x>, at the level needed by phi."""
    return pairing(phi, signature_pwl(x, max(phi.degree(), 1)))


def membership_to_elem(d, decomposition):
    """The element an area_span_membership decomposition writes: its letters
    plus w(ij - ji) for each (w, i, j), times their coefficients."""
    pairs = decomposition["pairs"].items()
    return linear_combination(TensorElem(d, {}), chain(
        ((letter_elem(i, d), c) for i, c in decomposition["letters"].items()),
        ((TensorElem(d, {w + (i, j): 1, w + (j, i): -1}), c) for (w, i, j), c in pairs),
    ))


def eval_rho_shuffle_expansion(w, dim):
    """words_as_rho_shuffles(w) evaluated: the sum of its coefficients times
    the shuffles of the rho images of its blocks."""
    return linear_combination(TensorElem(dim, {}), (
        (reduce(shuffle, (rho(word_elem(block, dim)) for block in blocks)), coefficient)
        for blocks, coefficient in words_as_rho_shuffles(w)
    ))


# -- tree-indexed expansions, one labeled tree at a time ------------------------


def label_oracle(shape, letters):
    """The tree `shape` with its leaves, left to right, labeled by `letters`."""
    it = iter(letters)

    def walk(node):
        if isinstance(node, int):
            return next(it)
        return (node[0], walk(node[1]), walk(node[2]))

    return walk(shape)


def label_sum_oracle(shape, content, dim):
    """Sum of mixed_eval(T) (x) lie_eval(T), one outer product per labeling
    T of `shape` by a distinct anagram of `content`."""
    total = DoubleTensor(dim, {})
    for letters in sorted(set(permutations(content))):
        tree = label_oracle(shape, letters)
        total = total + tensor_pair(mixed_eval(tree, dim), lie_eval(tree, dim))
    return total


def _of_content(trees, word):
    return [tree for tree in trees if sorted(foliage(tree)) == sorted(word)]


def r_via_trees_oracle(d, n):
    """Sum over the area trees T with n leaves labeled from 1..d of
    area_eval(T) (x) lie_eval(T) / coeff_c(T)."""
    total = DoubleTensor(d, {})
    for tree in enumerate_trees(d, n):
        pair = tensor_pair(area_eval(tree, d), lie_eval(tree, d))
        total = total + pair * Fraction(1, coeff_c(tree))
    return total


def lambda_via_trees_oracle(d, n):
    """Sum over the mixed trees T with n leaves labeled from 1..d of
    coeff_e(T) mixed_eval(T) (x) lie_eval(T)."""
    total = DoubleTensor(d, {})
    for tree in enumerate_mixed(d, n):
        total = total + tensor_pair(mixed_eval(tree, d), lie_eval(tree, d)) * coeff_e(tree)
    return total


def zeta_via_trees_oracle(basis, h):
    """Sum over the mixed trees T labeled by anagrams of h of
    coeff_e(T) <S_h, lie_eval(T)> mixed_eval(T)."""
    d, s_h = basis.dim, basis.dual_pbw(h)
    total = TensorElem(d, {})
    for tree in _of_content(enumerate_mixed(d, len(h)), h.word):
        total = total + mixed_eval(tree, d) * (coeff_e(tree) * pairing(s_h, lie_eval(tree, d)))
    return total


def rho_p_trees_oracle(basis, h):
    """Sum over the area trees T labeled by anagrams of h of
    <S_h, lie_eval(T)> area_eval(T) / coeff_c(T)."""
    d, s_h = basis.dim, basis.dual_pbw(h)
    total = TensorElem(d, {})
    for tree in _of_content(enumerate_trees(d, len(h)), h.word):
        total = total + area_eval(tree, d) * (pairing(s_h, lie_eval(tree, d)) / coeff_c(tree))
    return total


def q_coefficient_oracle(basis, tree, h):
    """q(T, h): at a leaf, 1 if h is its letter and 0 otherwise; at a node,
    the sum over the bracket terms (h1, h2, c) of h, h1 as long as the left
    subtree, of c q(left, h1) q(right, h2)."""
    if isinstance(tree, int):
        return Fraction(int(h.word == (tree,)))
    _, left, right = tree
    n_left = len(foliage(left))
    return sum((
        c * q_coefficient_oracle(basis, left, h1) * q_coefficient_oracle(basis, right, h2)
        for h1, h2, c in basis._bracket_terms(len(h))[h]
        if len(h1) == n_left
    ), Fraction(0))


def rho_q_trees_oracle(basis, h):
    """Sum over the area trees T labeled by anagrams of h of
    q(T, h) area_eval(T) / coeff_b(T)."""
    d = basis.dim
    total = TensorElem(d, {})
    for tree in _of_content(enumerate_trees(d, len(h)), h.word):
        total = total + area_eval(tree, d) * (q_coefficient_oracle(basis, tree, h) / coeff_b(tree))
    return total


# -- the volume and the degree-four identity as whole elements -------------------


def vol_oracle(a, b, c):
    """The cyclic sum of left-nested areas, every area built as an element."""
    return area(area(a, b), c) + area(area(b, c), a) + area(area(c, a), b)


def vol_n_oracle(args):
    """The signed sum over all n! orderings of the left-nested half-shuffles
    ((x_s1 > x_s2) > ...) > x_sn, the sign that of the ordering."""
    args = list(args)
    total = TensorElem(args[0].dim, {})
    for sigma in permutations(range(len(args))):
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        total = total + reduce(half_shuffle, (args[i] for i in sigma)) * (-1) ** inversions
    return total


def tortkara_oracle(a, b, c, d=None, vol=vol_oracle):
    """The three-variable Tortkara identity, or with d both four-variable
    forms, each side an element of its own and the sides compared with ==;
    the volumes come from `vol`."""
    if d is None:
        return area(area(a, b), area(c, b)) == area(vol(a, b, c), b)
    ab_cd = area(area(a, b), area(c, d))
    abc_d = area(vol(a, b, c), d)
    adc_b = area(vol(a, d, c), b)
    if ab_cd + area(area(a, d), area(c, b)) != abc_d + adc_b:
        return False
    rhs2 = abc_d + adc_b + area(vol(b, a, d), c) + area(vol(b, c, d), a)
    return ab_cd * 2 == rhs2
