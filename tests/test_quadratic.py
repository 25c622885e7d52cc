from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.errors import DomainError
from qval.quadratic import QuadElem, as_quad, is_squarefree

DS = (-1, 2, 5, -7)


def q(a, b, d):
    return QuadElem(Fraction(a), Fraction(b), d)


coeffs = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def elements(d):
    return st.builds(lambda a, b: QuadElem(a, b, d), coeffs, coeffs)


def test_squarefree():
    assert is_squarefree(2)
    assert is_squarefree(-7)
    assert is_squarefree(30)
    assert not is_squarefree(4)
    assert not is_squarefree(12)
    assert not is_squarefree(-18)
    assert not is_squarefree(0)
    assert is_squarefree(1000000016000000063)  # 1000000007 * 1000000009
    assert not is_squarefree(-2 * 1000000007**2)


def test_discriminant_cache_is_bounded():
    bound = is_squarefree.cache_info().maxsize
    assert bound is not None
    for d in range(-bound - 10, bound + 10):  # 2·bound + 20 distinct d
        try:
            QuadElem(1, 1, d)
        except DomainError:
            pass
    assert is_squarefree.cache_info().currsize <= bound


def test_invalid_discriminants_rejected():
    for bad in (0, 1, 4, 9, 12, -4):
        with pytest.raises(DomainError):
            QuadElem(Fraction(1), Fraction(1), bad)


def test_addition_examples():
    assert q(1, 2, 5) + q(3, -2, 5) == q(4, 0, 5)
    x = q(Fraction(7, 3), Fraction(-2, 5), 2)
    assert x + 0 == x
    assert q("1/2", "1/3", 5) + q("1/2", "2/3", 5) == q(1, 1, 5)


def test_mismatched_d_is_an_error():
    with pytest.raises(DomainError):
        q(1, 1, 2) + q(1, 1, 5)
    with pytest.raises(DomainError):
        q(0, 1, 2) * q(0, 1, 3)


def test_multiplication_examples():
    root5 = QuadElem.root(5)
    assert root5 * root5 == 5
    x = q(3, 4, 5)
    assert x * 1 == x
    assert q(1, 1, 2) * q(1, -1, 2) == -1


def test_inverse_examples():
    assert as_quad(2, 2).inverse() == Fraction(1, 2)
    assert q(1, 1, 2).inverse() == q(-1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        q(0, 0, 2).inverse()


def test_norm_examples():
    assert q(3, 0, 5).norm() == 9
    assert QuadElem.root(2).norm() == -2
    assert QuadElem.root(-7).norm() == 7


def test_rational_interop():
    x = q("1/2", 0, 2)
    assert x == Fraction(1, 2)
    assert x.is_rational
    assert hash(x) == hash(Fraction(1, 2))
    assert 1 / q(1, 1, 2) == q(-1, 1, 2)
    assert 3 - q(1, 1, 2) == q(2, -1, 2)


def test_powers():
    x = q(1, 1, 2)
    assert x**0 == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


@settings(max_examples=60)
@given(x=elements(2), y=elements(2), z=elements(2))
def test_field_axioms_exact(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if x:
        assert x * x.inverse() == 1


@settings(max_examples=60)
@given(x=elements(-7), y=elements(-7))
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("d", DS)
def test_norm_zero_iff_zero(d):
    # needs d squarefree and not 0 or 1, else sqrt(d) would be rational
    for a in range(-6, 7):
        for b in range(-6, 7):
            x = q(Fraction(a, 3), Fraction(b, 2), d)
            assert (x.norm() == 0) == (not x)


@settings(max_examples=40)
@given(x=elements(5))
def test_inverse_involution(x):
    if x:
        assert x.inverse().inverse() == x


def test_conjugate():
    x = q("3/4", "5/6", -1)
    assert x.conjugate() == q("3/4", "-5/6", -1)
    assert x * x.conjugate() == x.norm()
