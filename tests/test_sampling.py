import random
from fractions import Fraction

import pytest

from qval.errors import DomainError
from qval.lemmas import constructor_pool
from qval.quadratic import QuadElem
from qval.sampling import _integer_grid_element, quad_elements


# The samplers as they were written with Fractions and the public constructor:
# the int-built ones must return equal elements from the same draws.

def _fraction_built_quad_elements(rng, d, count, num_bound=30, den_bound=12,
                                  include_zero=True):
    deck = []
    if include_zero:
        deck.append(QuadElem(Fraction(0), Fraction(0), d))
    deck.extend((QuadElem(Fraction(1), Fraction(0), d), QuadElem(Fraction(-1), Fraction(0), d),
                 QuadElem.root(d)))
    while len(deck) < count:
        a = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        b = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        deck.append(QuadElem(a, b, d))
    return deck[:count]


def _fraction_built_grid_element(w, rng, bound=9):
    if w.d is None:
        return Fraction(rng.randint(1, bound)) * rng.choice((1, -1))
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a or b:
            return QuadElem(a, b, w.d)


def _same(x, y):
    assert type(x) is type(y) and x == y
    if isinstance(x, QuadElem):
        assert (x.A, x.B, x.Q, x.d) == (y.A, y.B, y.Q, y.d)


def test_quad_elements_match_the_fraction_built_sampler():
    for seed in range(6):
        for d in (-1, 2, 5, -7, 33):
            for count, num_bound, den_bound, include_zero in (
                    (40, 30, 12, True), (25, 3, 1, False), (2, 30, 12, True), (0, 30, 12, True),
                    (60, 1, 60, True), (30, 0, 5, False)):
                new, old = random.Random(seed), random.Random(seed)
                got = quad_elements(new, d, count, num_bound, den_bound, include_zero)
                want = _fraction_built_quad_elements(old, d, count, num_bound, den_bound,
                                                     include_zero)
                assert len(got) == len(want) == count
                for x, y in zip(got, want):
                    _same(x, y)
                assert new.getstate() == old.getstate()


def test_quad_elements_still_validate_d():
    for d in (0, 1, 4, -12):
        with pytest.raises(DomainError):
            quad_elements(random.Random(0), d, 10)


def test_grid_elements_match_the_fraction_built_sampler():
    for seed in range(4):
        new, old = random.Random(seed), random.Random(seed)
        for w in constructor_pool():
            for bound in (9, 1, 4):
                for _ in range(20):
                    _same(_integer_grid_element(w, new, bound),
                          _fraction_built_grid_element(w, old, bound))
        assert new.getstate() == old.getstate()
