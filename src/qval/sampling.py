"""Seeded, reproducible element generators.

Balls are infinite predicate sets, so set-level statements are verified on
generated members.  Members of a ball around y are produced as y + g·t
where g comes from ``value_witness`` (so w(g) clears the bound) and t runs
over nonzero integer-coordinate elements, whose value is ≥ 0 under every
constructor here; superadditivity then keeps w(g·t) above the bound.

Each draw yields reduced integer triples (A, B, Q) (see ``triples``):
``deck_triples`` for sample decks, ``grid_point`` for t, and
``member_triples`` for ball members, where g is a rational power p^e so
that y + g·t is formed in closed form on Python ints (``shifted``).  The
lemma checks carry these triples to the gauge rows and build a field
element only for a point they report or center a ball on.
``rationals``, ``quad_elements``, ``elements_for``, ``ball_members`` and
``shift_above`` build the elements of the same draws.  All generators take
an explicit ``random.Random`` so runs are reproducible from a recorded seed.

Integer draws go through ``_randint``, CPython's ``randint`` in one call on
``rng.getrandbits``, so the stream is ``randint``'s draw for draw; an rng
class that draws otherwise (overriding only ``random()``) keeps ``randint``.
"""

import math
import random
from fractions import Fraction

from .quadratic import QuadElem, validate_discriminant
from .quasi import graded_base, value_witness
from .triples import field_element, reduced

Triple = tuple[int, int, int]
# each drawn coordinate is a/b with |a| ≤ NUM_BOUND and 1 ≤ b ≤ DEN_BOUND
NUM_BOUND, DEN_BOUND = 30, 12
# each grid point t = a + b·√d has |a|, |b| ≤ GRID_BOUND
GRID_BOUND = 9
_RANDBELOW = random.Random._randbelow_with_getrandbits


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi); rng.choice(s) draws the index _randint(rng, 0, len(s) − 1)."""
    if type(rng)._randbelow is not _RANDBELOW:
        return rng.randint(lo, hi)
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _drawn_triple(d: int | None, rng: random.Random) -> Triple:
    """One drawn deck entry, unreduced: a/a_den, plus (b/b_den)·√d over Q(√d)."""
    a, a_den = _randint(rng, -NUM_BOUND, NUM_BOUND), _randint(rng, 1, DEN_BOUND)
    if d is None:
        return a, 0, a_den
    b, b_den = _randint(rng, -NUM_BOUND, NUM_BOUND), _randint(rng, 1, DEN_BOUND)
    return a * b_den, b * a_den, a_den * b_den


def deck_triples(d: int | None, rng: random.Random, count: int,
                 include_zero: bool = True) -> list[Triple]:
    """Random elements of Q (d is None) or Q(√d) as reduced triples: 0, ±1 and, over
    Q(√d), √d, then reduced fractions with bounded numerator and denominator in each
    coordinate."""
    deck = [(0, 0, 1)] if include_zero else []
    deck += [(1, 0, 1), (-1, 0, 1)] if d is None else [(1, 0, 1), (-1, 0, 1), (0, 1, 1)]
    if d is not None:
        validate_discriminant(d)
    while len(deck) < count:
        deck.append(reduced(*_drawn_triple(d, rng)))
    return deck[:count]


def rationals(rng: random.Random, count: int, include_zero: bool = True) -> list[Fraction]:
    """Random reduced fractions with bounded numerator and denominator."""
    deck = deck_triples(None, rng, count, include_zero)
    return [field_element(t, None) for t in deck]


def quad_elements(rng: random.Random, d: int, count: int,
                  include_zero: bool = True) -> list[QuadElem]:
    """Random elements of Q(√d), seeded with 0, ±1 and √d."""
    deck = deck_triples(d, rng, count, include_zero)
    return [field_element(t, d) for t in deck]


def elements_for(w, rng: random.Random, count: int, include_zero: bool = True):
    """Sample from w's field: rationals on Q, quadratic elements on Q(√d)."""
    deck = deck_triples(w.d, rng, count, include_zero)
    return [field_element(t, w.d) for t in deck]


def grid_point(w, rng: random.Random) -> tuple[int, int]:
    """The integer coordinates (a, b) of a nonzero t = a + b·√d (b = 0 on Q), hence w(t) ≥ 0."""
    if w.d is None:
        return _randint(rng, 1, GRID_BOUND) * (1, -1)[_randint(rng, 0, 1)], 0
    while True:
        a, b = _randint(rng, -GRID_BOUND, GRID_BOUND), _randint(rng, -GRID_BOUND, GRID_BOUND)
        if a or b:
            return a, b


def shifted(c: Triple, g: Fraction, ts) -> list[Triple]:
    """c + g·t as reduced triples, for a triple c, a rational g and each grid point t of ts."""
    (a, b, q), n, m = c, g.numerator, g.denominator
    qn, am, bm, qm = q * n, a * m, b * m, q * m
    return [reduced(am + qn * ta, bm + qn * tb, qm) for ta, tb in ts]


def _witness_above(w, bound: Fraction, strict: bool) -> Fraction:
    """A rational g with w(g) > bound (strict) or ≥ bound (closed); no
    randomness, so it depends on (w, bound, strict) alone."""
    target = Fraction(math.floor(bound) + 1) if strict else Fraction(math.ceil(bound))
    return value_witness(w, target)


def shift_above(w, bound: Fraction, rng: random.Random, strict: bool):
    """A nonzero g·t with w(g·t) > bound (strict) or ≥ bound (closed)."""
    g = _witness_above(w, bound, strict)
    return field_element(shifted((0, 0, 1), g, [grid_point(w, rng)])[0], w.d)


def member_triples(ball, rng: random.Random, count: int) -> list[Triple]:
    """count generated members of the ball as triples: the center, then center + g·t
    for count − 1 draws of t, with one witness g per ball."""
    w = ball.qv
    center = ball._center_triple
    members = [center]
    if count > 1:
        g = _witness_above(w, ball.bound, ball.strict)
        members += shifted(center, g, (grid_point(w, rng) for _ in range(count - 1)))
    return members[:count]


def ball_members(ball, rng: random.Random, count: int) -> list:
    """Generated members of the ball (the center plus admissible shifts)."""
    return [field_element(t, ball.qv.d) for t in member_triples(ball, rng, count)]


def element_at_exact_value(w, e: int):
    """(g^e, e·unit) for ``graded_base``'s (g, unit): an element and its exact value."""
    g, unit = graded_base(w)
    return field_element((g**e, 0, 1) if e >= 0 else (1, 0, g**-e), w.d), Fraction(e * unit)


def shift_below(w, bound: Fraction, strict_ball: bool):
    """A g with w(g) ≤ bound (for strict balls) or < bound (for closed ones),
    used to construct points *outside* a ball; returns (g, w(g))."""
    bound = Fraction(bound)
    _, unit = graded_base(w)  # graded values move in steps of this size
    if strict_ball:
        e = math.floor(bound / unit)  # unit·e ≤ bound
    else:
        e = math.ceil(bound / unit) - 1  # unit·e < bound
    return element_at_exact_value(w, e)
