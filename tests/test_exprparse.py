from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.errors import ParseError
from qval.exprparse import MAX_DIGITS, MAX_NESTING, format_element, parse_element, parse_rational
from qval.quadratic import QuadElem


def test_examples():
    assert parse_element("3/4 + 5*sqrt(2)") == QuadElem(Fraction(3, 4), Fraction(5), 2)
    assert parse_element("1/(1+sqrt(2))") == QuadElem(Fraction(-1), Fraction(1), 2)
    with pytest.raises(ParseError, match="mixed"):
        parse_element("sqrt(2)+sqrt(3)")


def test_plain_rationals():
    assert parse_element("6") == Fraction(6)
    assert parse_element("3/4") == Fraction(3, 4)
    assert parse_element("-22/7") == Fraction(-22, 7)
    assert isinstance(parse_element("2/1"), Fraction)


def test_precedence_and_unary_minus():
    assert parse_element("2+3*4") == 14
    assert parse_element("(2+3)*4") == 20
    assert parse_element("-2*3") == -6
    assert parse_element("2--3") == 5
    assert parse_element("1/2/2") == Fraction(1, 4)
    assert parse_element("1 - 2 - 3") == -4


def test_sqrt_arithmetic():
    assert parse_element("sqrt(2)*sqrt(2)") == 2
    assert parse_element("(1+sqrt(5))*(1-sqrt(5))") == -4
    assert parse_element("sqrt(-7)") == QuadElem.root(-7)
    assert parse_element("2*sqrt(2) - sqrt(2)") == QuadElem.root(2)
    assert parse_element("sqrt(2)/sqrt(2)") == 1


def test_sqrt_argument_validation():
    with pytest.raises(ParseError):
        parse_element("sqrt(4)")
    with pytest.raises(ParseError):
        parse_element("sqrt(1)")
    with pytest.raises(ParseError):
        parse_element("sqrt(0)")
    with pytest.raises(ParseError):
        parse_element("sqrt(1/2)")
    assert parse_element("sqrt(2+3)") == QuadElem.root(5)


def test_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_element("1 + ")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_element("1 + $")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_element("(1 + 2")
    assert info.value.position == 6
    with pytest.raises(ParseError, match="division by zero"):
        parse_element("1/(2-2)")
    with pytest.raises(ParseError, match="trailing"):
        parse_element("1 2")


def test_size_limits():
    assert parse_element("9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    with pytest.raises(ParseError, match="digits"):
        parse_element("1" * 5001)
    nested = "(" * MAX_NESTING + "4" + ")" * MAX_NESTING
    assert parse_element(nested) == 4
    with pytest.raises(ParseError, match="nest"):
        parse_element("(" + nested + ")")
    with pytest.raises(ParseError, match="nest"):
        parse_element("(" * 3000 + "1" + ")" * 3000)
    assert parse_element("-" * 3001 + "2") == -2


@pytest.mark.parametrize("text, message, position", [
    # a character no token class matches, after a sqrt(...) token
    ("sqrt(2) é", "unexpected character 'é'", 8),
    ("  sqrt(2)x", "unexpected character 'x'", 9),
    # an integer literal that starts past the first token
    pytest.param("2 + " + "7" * (MAX_DIGITS + 1),
                 f"integer literal longer than {MAX_DIGITS} digits", 4, id="long-literal"),
    # sqrt not followed by "("
    ("sqrt 2", "expected '(', found 2", 5),
    ("sqrt + 1", "expected '(', found +", 5),
    ("sqrt", "expected '(', found end of input", 4),
    # a second, different sqrt argument: the position is its "sqrt" token
    ("1 + sqrt(2) * sqrt(3)",
     "mixed sqrt arguments: sqrt(2) and sqrt(3) in one expression", 14),
    # a value or a closing parenthesis missing at the end of input
    ("1 + ", "expected a value, found end of input", 4),
    ("(1 + 2", "expected ')', found end of input", 6),
    # division by zero: the position is the "/" token
    ("1/(2-2)", "division by zero", 1),
    ("1 2", "unexpected trailing input '2'", 2),
    # sqrt argument errors: the position is the "sqrt" token
    ("sqrt(1/2)", "sqrt argument must be an integer", 0),
    ("1 + sqrt(1)", "d must be a squarefree integer other than 0 and 1, got 1", 4),
    # the opening parenthesis one past MAX_NESTING
    pytest.param("(" * (MAX_NESTING + 1) + "4" + ")" * (MAX_NESTING + 1),
                 f"parentheses nest deeper than {MAX_NESTING}", MAX_NESTING, id="too-deep"),
])
def test_token_errors_pin_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_element(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


def test_unicode_digits_stay_integer_literals():
    # \d in the token pattern matches any Unicode decimal digit, as int() reads it
    assert parse_element("١٢ + 3") == 15


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational(" -2/7 ") == Fraction(-2, 7)
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("25e-3") == Fraction(1, 40)
    assert parse_rational("1e3") == 1000
    assert parse_rational("9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    assert parse_rational(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
    for text in ("x", "", "1/x", "nan", "inf", "1" * 5001, "1e5000", "1e-5000",
                 f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}", "0." + "1" * MAX_DIGITS,
                 "1e1_000_000_000", "1e" + "9" * 5000, "1/0"):
        with pytest.raises(ParseError, match="^bad bound "):
            parse_rational(text, "bound")


coeffs = st.fractions(min_value=-99, max_value=99, max_denominator=30)


@settings(max_examples=120)
@given(a=coeffs, b=coeffs, d=st.sampled_from((-1, 2, 5, -7, 30)))
def test_round_trip_quadratic(a, b, d):
    x = QuadElem(a, b, d)
    assert parse_element(format_element(x)) == x


@settings(max_examples=60)
@given(q=coeffs)
def test_round_trip_rational(q):
    assert parse_element(format_element(Fraction(q))) == q
