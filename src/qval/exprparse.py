"""Exact expression parser for field elements.

Grammar (usual precedence, unary minus binding tightest):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | atom
    atom   := INTEGER | "sqrt" "(" expr ")" | "(" expr ")"

One recursive-descent class, _Parser, first splits the whole text into
(text, position) tokens, so a bad character or an overlong literal is
reported before anything is evaluated; then it evaluates by descent, with
one operator loop serving both expr and term.  Everything evaluates
exactly to a Fraction, or to a QuadElem once a sqrt appears; "3/4" is
just integer division and lands on Fraction(3, 4).  All sqrt arguments
inside one expression must agree (one quadratic field at a time), and
each must be a squarefree integer other than 0 and 1.  Integer literals
have at most MAX_DIGITS digits, and parentheses and sqrt nest at most
MAX_NESTING deep, so hostile input fails with a ParseError instead of
Python's int-string limit or its recursion limit.
"""

import operator
import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .quadratic import QuadElem

_TOKEN = re.compile(r"\s*(?:(\d+)|(sqrt|[+\-*/()])|(\S))")
_EXPONENT = re.compile(r"[eE]([+-]?[\d_]+)")
# the binary operators of expr (level 0) and of term (level 1)
_LEVELS = ({"+": operator.add, "-": operator.sub}, {"*": operator.mul, "/": operator.truediv})

MAX_DIGITS = 4000  # below Python's default int-string limit of 4300
_DIGITS_BOUND = 10**MAX_DIGITS
MAX_NESTING = 100  # a few interpreter frames per level, far below the recursion limit


class _Parser:
    """Tokens of the whole text, each (text, position) and ending in ("", len(text)),
    read by recursive descent; tracks the nesting depth and the single sqrt argument."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        for match in _TOKEN.finditer(text):
            group = match.lastindex  # exactly one alternative matched
            token, pos = match[group], match.start(group)
            if group == 3:
                raise ParseError(f"unexpected character {token!r}", pos)
            if group == 1 and len(token) > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", pos)
            self.tokens.append((token, pos))
        self.tokens.append(("", len(text)))
        self.index = 0
        self.depth = 0
        self.d: int | None = None

    def next(self) -> tuple[str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value: str) -> None:
        text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'}", pos)

    def run(self):
        value = self.expr()
        text, pos = self.tokens[self.index]
        if text:
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def expr(self, level: int = 0):
        """A sum of terms at level 0; a term, a product of unaries, at level 1."""
        operators = _LEVELS[level]
        value = self.unary() if level else self.expr(1)
        while self.tokens[self.index][0] in operators:
            op, pos = self.next()
            right = self.unary() if level else self.expr(1)
            try:
                value = operators[op](value, right)
            except ZeroDivisionError:
                raise ParseError("division by zero", pos) from None
        return value

    def unary(self):
        negate = False
        while self.tokens[self.index][0] == "-":
            self.index += 1
            negate = not negate
        value = self.atom()
        return -value if negate else value

    def atom(self):
        text, pos = self.next()
        if text.isdecimal():  # exactly the characters \d matches
            return Fraction(int(text))
        if text == "sqrt":
            self.expect("(")
            return self.make_root(self.nested(pos), pos)
        if text == "(":
            return self.nested(pos)
        raise ParseError(f"expected a value, found {text or 'end of input'}", pos)

    def nested(self, pos: int):
        """The expression after an opening parenthesis, and the closing one."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        value = self.expr()
        self.expect(")")
        self.depth -= 1
        return value

    def make_root(self, inner, pos: int):
        if isinstance(inner, QuadElem) or inner.denominator != 1:
            raise ParseError("sqrt argument must be an integer", pos)
        d = int(inner)
        try:
            root = QuadElem.root(d)
        except DomainError as exc:
            raise ParseError(str(exc), pos) from None
        if self.d is None:
            self.d = d
        elif self.d != d:
            raise ParseError(
                f"mixed sqrt arguments: sqrt({self.d}) and sqrt({d}) in one expression", pos
            )
        return root


def parse_element(text: str) -> Fraction | QuadElem:
    """Evaluate an expression to an exact field element."""
    value = _Parser(text).run()
    if isinstance(value, QuadElem):
        return value
    return Fraction(value)


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """``Fraction(text)`` ('3', '-2/7', '1.5', '2e-3') with at most MAX_DIGITS digits
    above and below the line, exponents expanded; else ParseError "bad <what> ..."."""
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent.group(1))) > MAX_DIGITS:
            raise ValueError
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or max(abs(value.numerator), value.denominator) >= _DIGITS_BOUND:
        raise ParseError(f"bad {what} {text!r}")
    return value


def format_element(x) -> str:
    """Canonical text that parses back to an equal element."""
    if isinstance(x, QuadElem):
        return str(x)
    return str(Fraction(x))
