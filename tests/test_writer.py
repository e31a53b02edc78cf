"""The text writers (to_json_obj, to_json, str, repr) of every term map kind
against the writer they replaced: each key decoded to a tuple word with
words.decode, each coefficient made a Fraction, each word written by
format_word.  The writers under test run on int numerators and the
memoised word text instead, and must give the same bytes."""

import json
import random
from fractions import Fraction

import pytest

from areasig import CoproductTerms, DoubleTensor, TensorElem, tensor
from areasig.tensor import format_word
from areasig.words import decode

DIMS = (1, 2, 3, 4, 7, 8, 9, 10, 12, 16)
KINDS = (TensorElem, DoubleTensor, CoproductTerms)


# -- the oracle: decode, Fraction, format_word per term ------------------------


def oracle_terms(x):
    k = x.dim.bit_length()
    for key in sorted(x._terms, key=x._order):
        if isinstance(x, TensorElem):
            public = decode(key, k)
        else:
            public = (decode(key[0], k), decode(key[1], k))
        yield public, Fraction(x._terms[key], x._den)


def oracle_json_obj(x):
    out = []
    for key, c in oracle_terms(x):
        if isinstance(x, TensorElem):
            fields = {"word": format_word(key, x.dim)}
        else:
            fields = {"left": format_word(key[0], x.dim), "right": format_word(key[1], x.dim)}
        out.append(dict(fields, num=str(c.numerator), den=str(c.denominator)))
    return out


def oracle_str(x):
    chunks = []
    for word, c in oracle_terms(x):
        body = format_word(word, x.dim)
        if abs(c) != 1:
            body = "%s*%s" % (abs(c), body)
        chunks += ["-" if c < 0 else "+", body]
    if not chunks:
        return "0"
    text = " ".join(chunks)
    return text[2:] if chunks[0] == "+" else "-" + text[2:]


def oracle_repr(x):
    if isinstance(x, TensorElem):
        return "<TensorElem d=%d %s>" % (x.dim, oracle_str(x))
    terms = [
        "%s*(%s)x(%s)" % (c, format_word(l, x.dim), format_word(r, x.dim))
        for (l, r), c in oracle_terms(x)
    ]
    return "<%s d=%d %s>" % (type(x).__name__, x.dim, " + ".join(terms) or "0")


def writes(x):
    """Every text form of x: JSON object, JSON text, repr, and str for words."""
    out = [x.to_json_obj(), x.to_json(), repr(x)]
    return out + [str(x)] if isinstance(x, TensorElem) else out


def oracle_writes(x):
    out = [oracle_json_obj(x), json.dumps(oracle_json_obj(x)), oracle_repr(x)]
    return out + [oracle_str(x)] if isinstance(x, TensorElem) else out


# -- elements -----------------------------------------------------------------


def random_word(rng, dim):
    return tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 4)))


def random_coefficient(rng):
    num = rng.choice([1, -1, rng.randint(-30, 30), rng.randint(-10**30, 10**30)])
    return Fraction(num, rng.choice([1, 1, 2, 6, rng.randint(1, 60)]))


def random_elem(kind, rng, dim):
    terms = {}
    for _ in range(rng.randint(1, 12)):
        key = random_word(rng, dim)
        if kind is not TensorElem:
            key = (key, random_word(rng, dim))
        terms[key] = random_coefficient(rng)
    return kind(dim, terms)


def edge_elems(kind, dim):
    """Zero; the empty word; signs; den > 1, shared with some numerators."""
    word = (1,) if dim == 1 else (dim, 1)
    keys = [(), (1,), word, (1, 1, 1)]
    if kind is not TensorElem:
        keys = [(u, v) for u, v in zip(keys, reversed(keys))]
    coefficients = [
        [],
        [1],
        [-1, 1, -1],
        [Fraction(1, 6), Fraction(-2, 6), Fraction(3, 6), Fraction(-5, 6)],  # den 6: gcd 2, 3, 1
        [Fraction(4, 9), Fraction(-1, 3), Fraction(-7, 1), Fraction(2, 3)],  # den 9: gcd 1, 3, 9, 3
        [-12, Fraction(-1, 2)],
    ]
    return [kind(dim, dict(zip(keys, cs))) for cs in coefficients]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_writers_match_the_fraction_writer_on_random_elements(kind, dim):
    rng = random.Random(dim * 31 + KINDS.index(kind))
    for _ in range(25):
        x = random_elem(kind, rng, dim)
        assert writes(x) == oracle_writes(x)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_writers_match_the_fraction_writer_on_edge_elements(kind, dim):
    elems = edge_elems(kind, dim)
    assert elems[0].is_zero() and elems[0]._den == 1
    assert elems[3]._den == 6 and elems[4]._den == 9
    for x in elems:
        assert writes(x) == oracle_writes(x)


def test_edge_elements_write_as_expected():
    x, y = edge_elems(TensorElem, 2)[3], edge_elems(TensorElem, 12)[4]
    assert str(x) == "1/6*e - 1/3*1 + 1/2*21 - 5/6*111"
    assert str(y) == "4/9*e - 1/3*[1] - 7*[12,1] + 2/3*[1,1,1]"
    assert str(edge_elems(TensorElem, 3)[2]) == "-e + 1 - 31"
    assert repr(edge_elems(DoubleTensor, 2)[0]) == "<DoubleTensor d=2 0>"
    assert repr(edge_elems(CoproductTerms, 2)[5]) == (
        "<CoproductTerms d=2 -12*(e)x(111) + -1/2*(1)x(21)>")


def test_a_second_write_decodes_no_word_and_makes_no_fraction(monkeypatch):
    rng = random.Random(5)
    elems = [random_elem(kind, rng, dim) for kind in KINDS for dim in (5, 11)]
    calls = []
    real_format = tensor.format_word
    monkeypatch.setattr(tensor, "decode", lambda *a: calls.append("decode") or decode(*a))
    monkeypatch.setattr(tensor, "format_word", lambda *a: calls.append("format") or real_format(*a))
    monkeypatch.setattr(tensor, "Fraction", lambda *a: calls.append("Fraction"))
    first = [writes(x) for x in elems]
    assert "Fraction" not in calls  # not even on a first write
    calls.clear()
    assert [writes(x) for x in elems] == first
    assert calls == []
    monkeypatch.undo()
    assert first == [oracle_writes(x) for x in elems]
