"""Small expression language used by the command line front end.

Grammar:
    expr     := term (('+' | '-') term)*
    term     := [rational '*'] atom
    atom     := 'w(' letters ')' | letter-digit | fn '(' expr (',' expr)* ')'
    letters  := digits (one letter each) | '[' int (',' int)* ']'
    fn       := sh | hs | cc | area | lie | r | rho | D | Dinv | pi1T
                | arealb | vol
    rational := int ['/' int]

Expressions parse to nested tuples, so equality is structural and
parse(format(e)) == e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import _Reader, _text, is_digit
from .span import arealb, vol
from .tensor import (
    TensorElem,
    area,
    concat,
    dynkin_r,
    format_word,
    grading_d,
    grading_d_inv,
    half_shuffle,
    lie_bracket,
    linear_combination,
    pi1_transpose,
    rho,
    shuffle,
    word_elem,
)


# name: (min arity, max arity or None for unbounded, operation on the list
# of evaluated arguments).  Each operation looks its function up in this
# module's globals when it runs, not when the table is built.
FUNCTIONS = {
    "sh": (2, None, lambda a: reduce(shuffle, a)),
    "hs": (2, 2, lambda a: half_shuffle(*a)),
    "cc": (2, None, lambda a: reduce(concat, a)),
    "area": (2, 2, lambda a: area(*a)),
    "lie": (2, 2, lambda a: lie_bracket(*a)),
    "r": (1, 1, lambda a: dynkin_r(*a)),
    "rho": (1, 1, lambda a: rho(*a)),
    "D": (1, 1, lambda a: grading_d(*a)),
    "Dinv": (1, 1, lambda a: grading_d_inv(*a)),
    "pi1T": (1, 1, lambda a: pi1_transpose(*a)),
    "arealb": (1, 1, lambda a: arealb(*a)),
    "vol": (3, 3, lambda a: vol(*a)),
}


def _expr(r):
    parts = [(1, _term(r))]
    while (ch := r.peek()) in ("+", "-"):
        r.pos += 1
        parts.append((1 if ch == "+" else -1, _term(r)))
    if len(parts) == 1:
        return parts[0][1]
    return ("sum", tuple(parts))


def _term(r):
    # int ['/' int] is a rational only when '*' follows it (a bare digit is
    # a letter atom), so read it once and give it back otherwise
    r.peek()
    start = r.pos
    sign = -1 if r.text.startswith("-", start) else 1
    r.pos += sign < 0
    if (numerator := r.number()) is not None:
        over = r.text.startswith("/", r.pos)
        r.pos += over
        denominator = r.number() if over else 1
        end = r.pos
        if r.take("*"):
            if denominator is None:
                r.error("expected a denominator", end)
            if denominator == 0:
                r.error("zero denominator", end)
            return ("scaled", Fraction(sign * numerator, denominator), _atom(r))
    r.pos = start
    return _atom(r)


def _atom(r):
    ch = r.peek()
    start = r.pos
    if ch == "w":
        r.pos += 1
        r.expect("(")
        word = r.letters()
        r.expect(")")
        return ("word", word)
    if is_digit(ch):
        if int(ch) == 0:
            r.error("letters count from 1")
        r.pos += 1
        return ("word", (int(ch),))
    if ch.isalpha():
        name = r.run(str.isalnum)
        if name not in FUNCTIONS:
            r.error("unknown function %r" % name, start)
        r.expect("(")
        args = [_expr(r)]
        while r.take(","):
            args.append(_expr(r))
        r.expect(")")
        low, high, _op = FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            r.error(
                "function %s takes %s arguments, got %d"
                % (name, low if high == low else "%d+" % low, len(args)),
                start,
            )
        return ("call", name, tuple(args))
    r.error("expected an expression")


def parse_expression(text: str):
    return _Reader(text).read_all(_expr, "expression")


def format_expression(node) -> str:
    kind = node[0]
    if kind == "word" and node[1]:  # no text parses to the empty word
        word = node[1]
        if len(word) == 1 and word[0] <= 9:
            return str(word[0])
        # bracketed once a letter has two digits: (1, 12) is not 112
        return "w(%s)" % format_word(word, max(word))
    if kind == "scaled":
        # a Fraction prints as n or n/d
        inner = format_expression(node[2])
        return "%s*%s" % (_text(node[1], "the scale of %s", inner), inner)
    if kind == "sum":
        out = format_expression(node[1][0][1])
        for sign, term in node[1][1:]:
            out += " %s %s" % ("+" if sign > 0 else "-", format_expression(term))
        return out
    if kind == "call":
        return "%s(%s)" % (
            node[1],
            ",".join(format_expression(arg) for arg in node[2]),
        )
    raise ValueError("bad expression node %r" % (node,))


def evaluate(node, dim: int) -> TensorElem:
    kind = node[0]
    if kind == "word":
        return word_elem(node[1], dim)
    if kind == "scaled":
        return evaluate(node[2], dim) * node[1]
    if kind == "sum":
        terms = ((evaluate(term, dim), sign) for sign, term in node[1])
        return linear_combination(TensorElem(dim, {}), terms)
    if kind == "call" and node[1] in FUNCTIONS:
        return FUNCTIONS[node[1]][2]([evaluate(arg, dim) for arg in node[2]])
    raise ValueError("bad expression node %r" % (node,))


def evaluate_text(text: str, dim: int) -> TensorElem:
    return evaluate(parse_expression(text), dim)
