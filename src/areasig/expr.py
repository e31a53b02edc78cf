"""Small expression language used by the command line front end.

Grammar:
    expr     := term (('+' | '-') term)*
    term     := [rational '*'] atom
    atom     := 'w(' digits ')' | letter-digit | fn '(' expr (',' expr)* ')'
    fn       := sh | hs | cc | area | lie | r | rho | D | Dinv | pi1T
                | arealb | vol
    rational := int ['/' int]

Expressions parse to nested tuples, so equality is structural and
parse(format(e)) == e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import ExpressionSyntaxError
from .span import arealb, vol
from .tensor import (
    TensorElem,
    area,
    concat,
    dynkin_r,
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExpressionSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse(self):
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return node

    def parse_expr(self):
        parts = [(1, self.parse_term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.text[self.pos] == "+" else -1
            self.pos += 1
            parts.append((sign, self.parse_term()))
        if len(parts) == 1:
            return parts[0][1]
        return ("sum", tuple(parts))

    def parse_term(self):
        self.skip_ws()
        if self._rational_ahead():
            value = self.parse_rational()
            self.expect("*")
            return ("scaled", value, self.parse_atom())
        return self.parse_atom()

    def _rational_ahead(self):
        # a rational prefix is only one when followed (after int or int/int)
        # by '*'; a bare digit is a letter atom
        start = self.pos
        ch = self.peek()
        if ch == "-" or ch.isdigit():
            probe = self.pos
            if self.text[probe] == "-":
                probe += 1
            digits = 0
            while probe < len(self.text) and self.text[probe].isdigit():
                probe += 1
                digits += 1
            if digits == 0:
                return False
            if probe < len(self.text) and self.text[probe] == "/":
                probe += 1
                while probe < len(self.text) and self.text[probe].isdigit():
                    probe += 1
            while probe < len(self.text) and self.text[probe].isspace():
                probe += 1
            self.pos = start
            return probe < len(self.text) and self.text[probe] == "*"
        return False

    def parse_rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        numerator = int(self.text[start : self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                self.error("expected a denominator")
            denominator = int(self.text[dstart : self.pos])
            if denominator == 0:
                self.error("zero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def parse_atom(self):
        ch = self.peek()
        if not ch:
            self.error("expected an expression")
        if ch == "w":
            self.pos += 1
            self.expect("(")
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected letters")
            word = tuple(int(c) for c in self.text[start : self.pos])
            if any(letter == 0 for letter in word):
                self.error("letters count from 1")
            self.expect(")")
            return ("word", word)
        if ch.isdigit():
            self.pos += 1
            letter = int(ch)
            if letter == 0:
                self.pos -= 1
                self.error("letters count from 1")
            return ("word", (letter,))
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum()
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in FUNCTIONS:
                self.pos = start
                self.error("unknown function %r" % name)
            self.expect("(")
            args = [self.parse_expr()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.parse_expr())
            self.expect(")")
            low, high, _op = FUNCTIONS[name]
            if len(args) < low or (high is not None and len(args) > high):
                self.pos = start
                self.error(
                    "function %s takes %s arguments, got %d"
                    % (name, low if high == low else "%d+" % low, len(args))
                )
            return ("call", name, tuple(args))
        self.error("expected an expression")


def parse_expression(text: str):
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser.pos) from None


def format_expression(node) -> str:
    kind = node[0]
    if kind == "word":
        word = node[1]
        if len(word) == 1:
            return str(word[0])
        return "w(%s)" % "".join(str(i) for i in word)
    if kind == "scaled":
        # a Fraction prints as n or n/d
        return "%s*%s" % (node[1], format_expression(node[2]))
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
