"""The word kernels: shuffles, r, rho, unshuffle and the Eulerian idempotent
on packed words, with integer coefficients and memoised.

A word is one packed int, its code.  With k = dim.bit_length() bits per
letter, the word (l1, ..., ln) is the sum of li << k(n-i), and the empty
word is 0.  Letters are nonzero k-bit digits, so the length of a code is
(code.bit_length() + k - 1) // k, and the numeric order of codes is the
word order by length, then lexicographic: sorting codes sorts words.
Appending the letter a to u is (u << k) | a, the head and last letter of u
are u >> k and u & mask, and u v is (u << k|v|) | v.  The kernels take k
as an argument, so one memo table serves every alphabet with the same k.
They return dicts code -> int (or code pair -> int) that every caller
shares and none mutates.

This module knows nothing of coefficient stores or scalars: tensor's
lifts and its tuple adapters (shuffle_words, r_word, ...) run on it.
"""

from __future__ import annotations

from math import lcm

from .memo import memo


def encode(word, k) -> int:
    """The code of a word of positive letters below 2**k."""
    code = 0
    for letter in word:
        code = (code << k) | letter
    return code


def decode(code, k) -> tuple[int, ...]:
    mask = (1 << k) - 1
    letters = []
    while code:
        letters.append(code & mask)
        code >>= k
    return tuple(reversed(letters))


def length(code, k) -> int:
    return (code.bit_length() + k - 1) // k


def appended(acc, step, dim):
    """(u a, c, z) for each code u -> c of acc and each (letter a, z) of
    step, u by u: the words u a are distinct.  c and z are opaque here (ints,
    or per-segment int series), so the caller does the arithmetic.  The step
    kernel of discrete.signature_pwl."""
    k = dim.bit_length()
    return (((u << k) | a, c, z) for u, c in acc.items() for a, z in step)


def nonzero(acc: dict) -> dict:
    """acc without its zero values (acc itself if it has none)."""
    if 0 in acc.values():
        return {key: c for key, c in acc.items() if c}
    return acc


# -- shuffles, r and rho ----------------------------------------------------


@memo
def shuffle_codes(u: int, v: int, k: int) -> dict:
    """All interleavings of the words with codes u <= v, as code -> int.
    Callers go through shuffled, which puts the pair in order with one int
    comparison, so the memo holds each unordered pair once."""
    if not u:
        return {v: 1}
    mask = (1 << k) - 1
    out: dict = {}
    get = out.get
    for first, second, last in ((u >> k, v, u & mask), (u, v >> k, v & mask)):
        for w, c in shuffled(first, second, k).items():
            w = (w << k) | last
            out[w] = get(w, 0) + c
    return out


def shuffled(u: int, v: int, k: int) -> dict:
    """The shuffle of the codes u and v in either order."""
    return shuffle_codes(u, v, k) if u <= v else shuffle_codes(v, u, k)


def area_words(acc, left, right, k):
    """acc (code -> int) plus the sum of cu * cv * area(u, v) over the
    (u, cu) in `left` and the (v, cv) in `right`, all nonempty codes, by
    the rule in tensor.area's docstring."""
    get, mask = acc.get, (1 << k) - 1
    right = [(v, cv, v & mask, v >> k) for v, cv in right]
    for u, cu in left:
        a, u_head = u & mask, u >> k
        for v, cv, b, v_head in right:
            if u == v:
                continue
            # cut each word before its last letter, or its last two if they agree
            c, cut = cu * cv, k if a != b else 2 * k
            tails = (1 << cut) - 1
            if v_head or cut == k:
                tail = v & tails
                for w, m in shuffled(u, v >> cut, k).items():
                    w = (w << cut) | tail
                    acc[w] = get(w, 0) + c * m
            if u_head or cut == k:
                tail = u & tails
                for w, m in shuffled(v, u >> cut, k).items():
                    w = (w << cut) | tail
                    acc[w] = get(w, 0) - c * m
    return acc


@memo
def r_codes(w: int, k: int) -> dict:
    """Right-nested bracketing at the code of w = l w': l r(w') - r(w') l."""
    if not w:
        return {}
    shift = k * (length(w, k) - 1)
    if not shift:
        return {w: 1}
    head = w >> shift
    out: dict = {}
    get = out.get
    for t, c in r_codes(w & ((1 << shift) - 1), k).items():
        front, back = (head << shift) | t, (t << k) | head
        out[front] = get(front, 0) + c
        out[back] = get(back, 0) - c
    return nonzero(out)


@memo
def rho_codes(w: int, k: int) -> dict:
    """Adjoint of r at the code of w = i m j: i rho(m j) - j rho(i m)."""
    if not w:
        return {}
    shift = k * (length(w, k) - 1)
    if not shift:
        return {w: 1}
    first, last = (w >> shift) << shift, (w & ((1 << k) - 1)) << shift
    out: dict = {}
    get = out.get
    for t, c in rho_codes(w & ((1 << shift) - 1), k).items():
        t |= first
        out[t] = get(t, 0) + c
    for t, c in rho_codes(w >> k, k).items():
        t |= last
        out[t] = get(t, 0) - c
    return nonzero(out)


# -- coproducts and the Eulerian idempotent -----------------------------------


@memo
def unshuffle_codes(w: int, k: int) -> dict:
    """All splittings of the positions of the word with code w into two
    complementary subsequences, as (u, v) -> int, by its last letter a:
    unshuffle(w a) = unshuffle(w) (a (x) e + e (x) a)."""
    if not w:
        return {(0, 0): 1}
    a = w & ((1 << k) - 1)
    out: dict = {}
    get = out.get
    for (u, v), c in unshuffle_codes(w >> k, k).items():
        for key in (((u << k) | a, v), (u, (v << k) | a)):
            out[key] = get(key, 0) + c
    return out


def concat_codes(u: int, v: int, k: int) -> dict:
    return {(u << (k * length(v, k))) | v: 1}


def deconcat_codes(w: int, k: int) -> dict:
    """Every splitting w = u v, empty factors included, as (u, v) -> 1."""
    return {
        (w >> cut, w & ((1 << cut) - 1)): 1
        for cut in range(0, k * length(w, k) + 1, k)
    }


@memo
def convolution_power(w: int, power: int, k: int, coproduct, product) -> dict:
    """(id - unit counit)^{*power} at the nonempty code w, for the
    convolution of `coproduct` and `product`: w itself at power 1, else
    the sum over the coproduct terms (u, v) of w with u and v nonempty of
    u times the (power-1)-st power at v."""
    if power == 1:
        return {w: 1}
    out: dict = {}
    get = out.get
    for (u, v), m in coproduct(w, k).items():
        if not (u and v) or length(v, k) < power - 1:
            continue
        for t, c in convolution_power(v, power - 1, k, coproduct, product).items():
            for s, n in product(u, t, k).items():
                out[s] = get(s, 0) + m * c * n
    return nonzero(out)


def log_den(w: int, k: int) -> int:
    """lcm(1, ..., |w|): the denominator of log(id) at the code w."""
    return lcm(*range(1, length(w, k) + 1))


def log_id(w: int, k: int, coproduct, product) -> dict:
    """log(id) at the code w in the convolution algebra of `coproduct` and
    `product`, times log_den(w, k): the sum over powers p of (-1)^(p-1)
    log_den(w, k)/p times the p-th convolution power, so every value is
    an int."""
    den = log_den(w, k)
    out: dict = {}
    get = out.get
    for power in range(1, length(w, k) + 1):
        weight = (-1) ** (power - 1) * (den // power)
        for t, c in convolution_power(w, power, k, coproduct, product).items():
            out[t] = get(t, 0) + weight * c
    return nonzero(out)


@memo
def pi1_numerators(u: int, k: int) -> dict:
    return log_id(u, k, unshuffle_codes, concat_codes)


@memo
def pi1_transpose_numerators(w: int, k: int) -> dict:
    return log_id(w, k, deconcat_codes, shuffled)
