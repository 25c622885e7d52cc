"""The all-pairs engine behind the axiom harness."""

from fractions import Fraction

import pytest

import qval.batch as batch
from qval.errors import DomainError
from qval.quasi import MinOf, NAdic, Scaled, check_axioms, min_extension
from qval.triples import field_triple
from qval.valuations import PAdicValuation, extensions_of

CONSTRUCTORS = [
    PAdicValuation(2),
    PAdicValuation(7),
    NAdic(12),
    MinOf((PAdicValuation(2), PAdicValuation(3))),
    extensions_of(5, 2)[0],
    extensions_of(2, 2)[0],
    extensions_of(2, 5)[0],
    extensions_of(7, 2)[0],
    extensions_of(7, 2)[1],
    extensions_of(2, -7)[0],
    min_extension(7, 2),
    min_extension(11, 5),
    Scaled(min_extension(7, 2), Fraction(3, 2)),
]


def test_engine_declines_oversized_inputs():
    w = PAdicValuation(2)
    huge = [Fraction(2**70 + 1, 3), Fraction(1), Fraction(7, 5)]
    # past int64 the engine answers on Python-int arrays
    checked, violations = batch.pairwise_axiom_check(w, huge)
    assert violations == []
    report = check_axioms(w, huge)
    assert report.passed and report.instances == 1 + checked


def test_engine_declines_unknown_constructors():
    class Opaque:
        d = None
        value_denominator = 1

        def value(self, x):
            return PAdicValuation(2).value(x)

    with pytest.raises(DomainError):
        batch.pairwise_axiom_check(Opaque(), [Fraction(1)])


def test_triple_representation():
    x = Fraction(-3, 4)
    assert field_triple(x, None) == (-3, 0, 4)
    from qval.quadratic import QuadElem

    y = QuadElem(Fraction(1, 2), Fraction(-2, 3), 2)
    a, b, q = field_triple(y, 2)
    assert Fraction(a, q) == Fraction(1, 2)
    assert Fraction(b, q) == Fraction(-2, 3)


def test_values_beyond_the_sentinel_compare_exactly():
    w = Scaled(PAdicValuation(2), 2**45)  # w(4) = 2^46, above the ∞ sentinel
    assert check_axioms(w, [0, 1, 2, 3, 4, -4, Fraction(1, 8)]).passed
