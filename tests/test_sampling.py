import math
import random
from fractions import Fraction

import pytest

from qval.errors import DomainError
from qval.lemmas import constructor_pool
from qval.quadratic import QuadElem
from qval.quasi import value_witness
from qval.sampling import (_randint, ball_members, deck_triples, elements_for, grid_point,
                           member_triples, quad_elements)
from qval.topology import Ball
from qval.triples import field_element, field_triple


# _randint is CPython's randint on getrandbits; the samplers rely on its stream
# being randint's, draw for draw, on every Python version they run on.

WIDTHS = (1, 2, 19, 61, *(2**k + e for k in (2, 3, 5, 8, 13, 31, 32, 64, 100) for e in (-1, 0, 1)))


class _FloatOnly(random.Random):
    """Overrides only random(), so its randint draws through random(), not getrandbits."""

    def random(self):
        return super().random()


def test_randint_draws_the_randint_stream():
    draws = 0
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(1400):
            for width in WIDTHS:
                lo = -(width // 3)
                assert _randint(ours, lo, lo + width - 1) == theirs.randint(lo, lo + width - 1)
            for options in ((1, -1), (1, 2), (-2, 0, 3, 7)):
                assert options[_randint(ours, 0, len(options) - 1)] == theirs.choice(options)
                assert _randint(ours, 0, len(options) - 1) == theirs.randrange(len(options))
            draws += len(WIDTHS) + 6
        assert ours.getstate() == theirs.getstate(), seed
    assert draws >= 200_000


def test_randint_keeps_the_stream_of_a_float_only_subclass():
    differs = False
    for seed in range(5):
        ours, theirs, plain = _FloatOnly(seed), _FloatOnly(seed), random.Random(seed)
        for _ in range(200):
            for width in (2, 19, 61, 2**13 + 1):
                got = _randint(ours, 1, width)
                assert got == theirs.randint(1, width)
                differs |= got != plain.randint(1, width)
        assert ours.getstate() == theirs.getstate(), seed
        new, old = _FloatOnly(seed), _FloatOnly(seed)
        assert quad_elements(new, 5, 40) == _fraction_built_quad_elements(old, 5, 40)
        assert new.getstate() == old.getstate()
    assert differs


# The samplers as they were written with Fractions and the public constructor:
# the int-built ones must return equal elements from the same draws.

def _fraction_built_quad_elements(rng, d, count, include_zero=True):
    deck = []
    if include_zero:
        deck.append(QuadElem(Fraction(0), Fraction(0), d))
    deck.extend((QuadElem(Fraction(1), Fraction(0), d), QuadElem(Fraction(-1), Fraction(0), d),
                 QuadElem.root(d)))
    while len(deck) < count:
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
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
            for count, include_zero in ((40, True), (25, False), (2, True), (0, True)):
                new, old = random.Random(seed), random.Random(seed)
                got = quad_elements(new, d, count, include_zero)
                want = _fraction_built_quad_elements(old, d, count, include_zero)
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
            for _ in range(20):
                _same(field_element((*grid_point(w, new), 1), w.d),
                      _fraction_built_grid_element(w, old))
        assert new.getstate() == old.getstate()


# Lemma points are drawn as triples; each must be the triple of the element the
# element-built samplers drew from the same rng calls, leaving the same rng state.

def _fraction_built_deck(w, rng, count, include_zero):
    if w.d is not None:
        return _fraction_built_quad_elements(rng, w.d, count, include_zero=include_zero)
    deck = [Fraction(0)] if include_zero else []
    deck.extend((Fraction(1), Fraction(-1)))
    while len(deck) < count:
        num = rng.randint(-30, 30)
        deck.append(Fraction(num, rng.randint(1, 12)))
    return deck[:count]


def _element_built_members(ball, rng, count):
    """center + g·t in field arithmetic, g the witness of the ball's bound."""
    w, bound = ball.qv, ball.bound
    target = math.floor(bound) + 1 if ball.strict else math.ceil(bound)
    g = field_element(field_triple(value_witness(w, target), w.d), w.d)
    members = [ball.center]
    if count > 1:
        members.extend(ball.center + g * _fraction_built_grid_element(w, rng)
                       for _ in range(count - 1))
    return members[:count]


def test_deck_triples_replay_the_element_decks():
    for w in constructor_pool():
        for seed in range(20):
            rngs = [random.Random(seed) for _ in range(3)]
            for include_zero in (True, False):
                for count in range(9):
                    triples = deck_triples(w.d, rngs[0], count, include_zero=include_zero)
                    built = elements_for(w, rngs[1], count, include_zero=include_zero)
                    want = _fraction_built_deck(w, rngs[2], count, include_zero)
                    assert triples == [field_triple(x, w.d) for x in want], (w, seed, count)
                    assert built == want
            assert len({rng.getstate() for rng in rngs}) == 1


def test_member_triples_replay_the_element_built_members():
    for w in constructor_pool():
        for seed in range(20):
            center = elements_for(w, random.Random(seed), 9)[-1]
            rngs = [random.Random(seed) for _ in range(3)]
            for strict in (True, False):
                for twice in range(-8, 17):  # bounds -4..8 in halves
                    ball = Ball(w, center, Fraction(twice, 2), strict=strict)
                    count = twice % 5
                    triples = member_triples(ball, rngs[0], count)
                    built = ball_members(ball, rngs[1], count)
                    want = _element_built_members(ball, rngs[2], count)
                    assert triples == [field_triple(z, w.d) for z in want], (w, ball)
                    assert [field_triple(z, w.d) for z in built] == triples
            assert len({rng.getstate() for rng in rngs}) == 1


def test_member_triples_return_exactly_count_members():
    for w in constructor_pool():
        center = elements_for(w, random.Random(5), 9)[-1]
        ball = Ball(w, center, Fraction(1), strict=True)
        for count in (0, 1, 2):
            rng = random.Random(count)
            members = member_triples(ball, rng, count)
            assert len(members) == count, (w, count)
            assert members[:1] == [field_triple(center, w.d)][:count]
            if count < 2:  # no shift is drawn
                assert rng.getstate() == random.Random(count).getstate()
            else:
                assert ball.contains(field_element(members[1], w.d)), w
