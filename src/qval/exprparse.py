"""Exact expression parser for field elements.

Grammar (usual precedence, unary minus binding tightest):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | atom
    atom   := INTEGER | "sqrt" "(" expr ")" | "(" expr ")"

Everything evaluates exactly to a Fraction, or to a QuadElem once a sqrt
appears; "3/4" is just integer division and lands on Fraction(3, 4).  All
sqrt arguments inside one expression must agree (one quadratic field at a
time), and each must be a squarefree integer other than 0 and 1.  Integer
literals have at most MAX_DIGITS digits, and parentheses and sqrt nest at
most MAX_NESTING deep, so hostile input fails with a ParseError instead of
Python's int-string limit or its recursion limit.
"""

import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .quadratic import QuadElem

_TOKEN = re.compile(r"\s*(?:(\d+)|(sqrt)|([+\-*/()])|(\S))")
_EXPONENT = re.compile(r"[eE]([+-]?[\d_]+)")

MAX_DIGITS = 4000  # below Python's default int-string limit of 4300
_DIGITS_BOUND = 10**MAX_DIGITS
MAX_NESTING = 100  # a few interpreter frames per level, far below the recursion limit


class _Tokenizer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        append = self.tokens.append
        for match in _TOKEN.finditer(text):
            group = match.lastindex  # exactly one alternative matched
            token = match[group]
            pos = match.start(group)
            if group == 1:
                if len(token) > MAX_DIGITS:
                    raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", pos)
                append(("int", token, pos))
            elif group == 2:
                append(("sqrt", token, pos))
            elif group == 3:
                append(("op", token, pos))
            else:
                raise ParseError(f"unexpected character {token!r}", pos)
        append(("end", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        if text != value:
            shown = text if kind != "end" else "end of input"
            raise ParseError(f"expected {value!r}, found {shown}", pos)
        return self.next()


class _Evaluator:
    """Recursive-descent evaluation; tracks the single allowed sqrt argument."""

    def __init__(self, text: str):
        self.tokens = _Tokenizer(text)
        self.d: int | None = None
        self.depth = 0

    def run(self):
        value = self.expr()
        kind, text, pos = self.tokens.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while self.tokens.peek()[1] in ("+", "-"):
            _, op, pos = self.tokens.next()
            right = self.term()
            value = self.apply(op, value, right, pos)
        return value

    def term(self):
        value = self.unary()
        while self.tokens.peek()[1] in ("*", "/"):
            _, op, pos = self.tokens.next()
            right = self.unary()
            value = self.apply(op, value, right, pos)
        return value

    def unary(self):
        negate = False
        while self.tokens.peek()[1] == "-":
            self.tokens.next()
            negate = not negate
        value = self.atom()
        return -value if negate else value

    def atom(self):
        kind, text, pos = self.tokens.next()
        if kind == "int":
            return Fraction(int(text))
        if kind == "sqrt":
            self.tokens.expect("(")
            inner = self.nested(pos)
            return self.make_root(inner, pos)
        if text == "(":
            return self.nested(pos)
        shown = text if kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown}", pos)

    def nested(self, pos: int):
        """The expression after an opening parenthesis, and the closing one."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        value = self.expr()
        self.tokens.expect(")")
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

    def apply(self, op: str, left, right, pos: int):
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left / right
        except ZeroDivisionError:
            raise ParseError("division by zero", pos) from None


def parse_element(text: str) -> Fraction | QuadElem:
    """Evaluate an expression to an exact field element."""
    evaluator = _Evaluator(text)
    value = evaluator.run()
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
