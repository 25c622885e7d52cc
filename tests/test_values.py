from fractions import Fraction

import pytest

from qval.values import INFINITY, Value


def test_total_order():
    assert Value(Fraction(1, 2)) < Value(1)
    assert Value(-3) < Value(Fraction(-1, 2))
    assert Value(5) < INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY <= INFINITY
    assert min(Value(2), INFINITY) == Value(2)


def test_comparisons_accept_plain_numbers():
    assert Value(3) >= 3
    assert Value(Fraction(1, 2)) > 0
    assert INFINITY > 10**9
    assert Value(2) == 2


def test_hash_agrees_with_equality():
    assert hash(Value(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({Value(2), 2}) == 1
    assert 1 in {Value(1)}
    assert len({INFINITY, Value(1), Value(0)}) == 3


def test_addition_absorbs_infinity():
    assert Value(2) + Value(Fraction(1, 2)) == Value(Fraction(5, 2))
    assert INFINITY + Value(-7) == INFINITY
    assert Value(3) + INFINITY == INFINITY
    assert Value(1) + 2 == Value(3)


def test_subtract_finite():
    assert Value(3) - Fraction(1, 2) == Value(Fraction(5, 2))
    assert INFINITY - 100 == INFINITY
    with pytest.raises(ValueError):
        Value(1) - INFINITY


def test_floor_and_parts():
    assert Value(Fraction(7, 2)).floor() == 3
    assert Value(Fraction(-1, 2)).floor() == -1
    with pytest.raises(ValueError):
        INFINITY.floor()
    assert INFINITY.is_infinite
    assert str(INFINITY) == "inf"
    assert str(Value(Fraction(3, 2))) == "3/2"
