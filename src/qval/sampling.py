"""Seeded, reproducible element generators.

Balls are infinite predicate sets, so set-level statements are verified on
generated members.  Members of a ball around y are produced as y + g·t
where g comes from ``value_witness`` (so w(g) clears the bound) and t runs
over nonzero integer-coordinate elements, whose value is ≥ 0 under every
constructor here; superadditivity then keeps w(g·t) above the bound.
All generators take an explicit ``random.Random`` so runs are reproducible
from a recorded seed.
"""

import math
import random
from fractions import Fraction

from .quadratic import QuadElem, _elem
from .quasi import coerce_to_field, graded_element, value_witness


def rationals(rng: random.Random, count: int, num_bound: int = 30, den_bound: int = 12,
              include_zero: bool = True) -> list[Fraction]:
    """Random reduced fractions with bounded numerator and denominator."""
    deck: list[Fraction] = []
    if include_zero:
        deck.append(Fraction(0))
    deck.extend((Fraction(1), Fraction(-1)))
    while len(deck) < count:
        num = rng.randint(-num_bound, num_bound)
        den = rng.randint(1, den_bound)
        deck.append(Fraction(num, den))
    return deck[:count]


def quad_elements(rng: random.Random, d: int, count: int, num_bound: int = 30,
                  den_bound: int = 12, include_zero: bool = True) -> list[QuadElem]:
    """Random elements of Q(√d), seeded with 0, ±1 and √d."""
    deck = [QuadElem(0, 0, d)] if include_zero else []
    deck.extend((QuadElem(1, 0, d), QuadElem(-1, 0, d), QuadElem.root(d)))
    while len(deck) < count:
        a, a_den = rng.randint(-num_bound, num_bound), rng.randint(1, den_bound)
        b, b_den = rng.randint(-num_bound, num_bound), rng.randint(1, den_bound)
        # a/a_den + (b/b_den)·√d as one integer triple; d was validated above
        deck.append(_elem(a * b_den, b * a_den, a_den * b_den, d))
    return deck[:count]


def elements_for(w, rng: random.Random, count: int, num_bound: int = 30,
                 den_bound: int = 12, include_zero: bool = True):
    """Sample from w's field: rationals on Q, quadratic elements on Q(√d)."""
    if w.d is None:
        return rationals(rng, count, num_bound, den_bound, include_zero)
    return quad_elements(rng, w.d, count, num_bound, den_bound, include_zero)


def _integer_grid_element(w, rng: random.Random, bound: int = 9):
    """A nonzero element with integer coordinates, hence w(t) ≥ 0."""
    if w.d is None:
        return Fraction(rng.randint(1, bound) * rng.choice((1, -1)))
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a or b:
            return _elem(a, b, 1, w.d)


def _witness_above(w, bound: Fraction, strict: bool):
    """A g in w's field with w(g) > bound (strict) or ≥ bound (closed); no
    randomness, so it depends on (w, bound, strict) alone."""
    target = Fraction(math.floor(bound) + 1) if strict else Fraction(math.ceil(bound))
    return coerce_to_field(w, value_witness(w, target))


def shift_above(w, bound: Fraction, rng: random.Random, strict: bool):
    """A nonzero g·t with w(g·t) > bound (strict) or ≥ bound (closed)."""
    return _witness_above(w, bound, strict) * _integer_grid_element(w, rng)


def ball_members(ball, rng: random.Random, count: int) -> list:
    """Generated members of the ball (the center plus admissible shifts)."""
    members = [ball.center]
    if count > 1:
        w, center = ball.qv, ball.center
        g = _witness_above(w, ball.bound, ball.strict)  # one witness per ball
        members.extend(center + g * _integer_grid_element(w, rng) for _ in range(count - 1))
    return members


def element_at_exact_value(w, e: int):
    """An element with w known to equal e exactly (a power of the base)."""
    g, val = graded_element(w, e)
    return coerce_to_field(w, g), val


def shift_below(w, bound: Fraction, strict_ball: bool):
    """A g with w(g) ≤ bound (for strict balls) or < bound (for closed ones),
    used to construct points *outside* a ball; returns (g, w(g))."""
    bound = Fraction(bound)
    _, unit = graded_element(w, 1)  # graded values move in steps of this size
    if strict_ball:
        e = math.floor(bound / unit)  # unit·e ≤ bound
    else:
        e = math.ceil(bound / unit) - 1  # unit·e < bound
    return element_at_exact_value(w, e)
