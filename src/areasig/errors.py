"""Exceptions shared across the package."""


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


class ExpressionSyntaxError(ValueError):
    """Parse failure in the expression front end, with a character offset."""

    def __init__(self, message, position):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


def is_digit(ch):
    """Whether ch is one ASCII digit (str.isdigit also holds for superscripts,
    which int() refuses)."""
    return "0" <= ch <= "9"


class _Reader:
    """Cursor over expression or tree text; both grammars read through it."""

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
