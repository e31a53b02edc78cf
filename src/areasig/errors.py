"""Exceptions, and the text readers and writer shared across the package."""

import re
import sys
from math import gcd


class AlphabetMismatch(ValueError):
    """Two operands live over different alphabet sizes."""


class EmptyWordOperand(ValueError):
    """An operand carries an empty-word component where none is allowed."""


class TermBudgetExceeded(RuntimeError):
    """A result would store more terms than the configured ceiling allows."""

    def __init__(self, needed, ceiling):
        # an estimate past 2**256 is shown by its size in bits: int-to-text
        # conversion refuses ints of more than a few thousand digits
        shown = "%d" % needed if needed.bit_length() <= 256 else (
            "at least 2**%d" % (needed.bit_length() - 1))
        super().__init__(
            "computation needs %s terms, exceeding the term budget of %d "
            "(raise it with set_term_budget or the AREASIG_TERM_BUDGET "
            "environment variable)" % (shown, ceiling)
        )
        self.needed = needed
        self.ceiling = ceiling

    def __reduce__(self):
        # pickle rebuilds from the constructor arguments, not from args
        return type(self), (self.needed, self.ceiling)


class ExpressionSyntaxError(ValueError):
    """Parse failure in the expression front end, with a character offset."""

    def __init__(self, message, position):
        super().__init__("%s at offset %d" % (message, position))
        self.message = message
        self.position = position

    def __reduce__(self):
        return type(self), (self.message, self.position)


# Every number read from text, in ASCII only: an optional sign, then p,
# p/q, or a decimal with an optional exponent, blanks around it allowed.
_TOKEN = re.compile(
    r"\s*([-+]?)(?=\.?[0-9])([0-9]*)"
    r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)\s*",
    re.ASCII,
)

# the largest exponent read, in magnitude, as int() reads no more digits
# (sys.int_info.default_max_str_digits): 10**exponent past it could stall
_MAX_EXPONENT = 4300


def _parse_token(token: str):
    """(numerator, denominator) in lowest terms of a finite rational token
    in the _TOKEN grammar, its exponent at most _MAX_EXPONENT in magnitude,
    else None."""
    match = _TOKEN.fullmatch(token)
    if match is None:
        return None
    sign, whole, below, decimals, exponent = match.groups()
    try:  # int() may refuse a token longer than sys.get_int_max_str_digits()
        if below is not None:
            num, den = int(whole), int(below)
            if not den:
                return None
        else:
            decimals = decimals or ""
            num, den = int(whole + decimals), 10 ** len(decimals)
            if exponent:
                shift = int(exponent)
                if abs(shift) > _MAX_EXPONENT:
                    return None
                num, den = (num * 10**shift, den) if shift > 0 else (num, den * 10**-shift)
    except ValueError:
        return None
    common = gcd(num, den)
    return (-num if sign == "-" else num) // common, den // common


def _parse_int(text: str):
    """The int of a token in the p form of the _TOKEN grammar (an optional
    sign and ASCII digits), else None."""
    match = _TOKEN.fullmatch(text)
    if match is None or match.group(3, 4, 5) != (None, None, None):
        return None
    ratio = _parse_token(text)
    return None if ratio is None else ratio[0]


def _text(value, name, args):
    """str(value) for an int or Fraction; past the digits that Python writes
    (sys.get_int_max_str_digits(), 4300 by default, the CSV exponent bound)
    a ValueError names the value as `name % args`, not the bare error."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            "%s has more than %d digits, the limit for writing an integer as text"
            % (name % args, sys.get_int_max_str_digits())
        ) from None


def is_digit(ch):
    """Whether ch is one ASCII digit (str.isdigit also holds for superscripts,
    which int() refuses)."""
    return "0" <= ch <= "9"


class _Reader:
    """Cursor over expression, tree or word text; every grammar reads
    through it."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        """The next non-blank character ('' at the end), skipping blanks."""
        self.run(str.isspace)
        return self.text[self.pos : self.pos + 1]

    def take(self, ch):
        """Consume `ch` if it is the next non-blank character."""
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error("expected %r" % ch)

    def run(self, pred):
        """Consume and return the characters from here on that satisfy pred."""
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def number(self):
        """The int of the ASCII digits from here, None if none; too many is an error."""
        start = self.pos
        value = _parse_int(self.run(is_digit))
        if value is None and self.pos > start:
            self.error("number of more than %d digits" % sys.get_int_max_str_digits(), start)
        return value

    def letters(self):
        """A word's letters: one per ASCII digit, or the bracketed list
        '[' int (',' int)* ']' that format_word writes; they count from 1."""
        bracketed = self.take("[")
        word = []
        while True:
            self.peek()
            start = self.pos
            word += [self.number()] if bracketed else map(int, self.run(is_digit))
            if self.pos == start:
                self.error("expected letters")
            if 0 in word:
                self.error("letters count from 1")
            if not (bracketed and self.take(",")):
                break
        if bracketed:
            self.expect("]")
        return tuple(word)

    def error(self, message, pos=None):
        raise ExpressionSyntaxError(message, self.pos if pos is None else pos)

    def read_all(self, read, what):
        """read(self) over the whole text: input left over is an error, and
        nesting past the recursion limit is '<what> nested too deeply'."""
        try:
            node = read(self)
        except RecursionError:
            raise ExpressionSyntaxError("%s nested too deeply" % what, self.pos) from None
        if self.peek():
            self.error("trailing input")
        return node
