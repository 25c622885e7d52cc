"""Runnable property checks for the ball-topology facts.

Each check verifies one statement on many concrete instances: a
constructor drawn from a pool covering every implemented shape (p-adic
valuations, all three extension kinds over several fields, minima of split
pairs, n-adic functions), elements and bounds drawn from a seeded
generator, and ball-level claims verified on generated members.  Results
come back as ``PropertyReport`` objects; an empty failure list means every
sampled instance satisfied the statement.

Ball members, and the points of 2.10 and 2.17, stay integer triples from
the draw to the gauge row (see ``sampling``); a check builds the field
element of a point only when it reports that point or centers a ball on it.
A ball check draws an instance's members, then meets them in one gauge matrix.

The string ids used by the CLI (`2.2`, `2.10`, ...) are stable names for
the individual statements; see ``LEMMA_IDS``.  ``run_lemma`` owns the run:
it seeds the rng, labels the report with the id, and each instance's w is
drawn as that instance begins (``_drawn``).  A check takes (rng, report,
instances, samples) and states only what it draws and what it asserts.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice

import numpy as np

from .errors import DomainError, PropertyViolation
from .quasi import MinOf, NAdic, Scaled, min_extension
from .report import PropertyReport
from .sampling import (_randint, _witness_above, ball_members, deck_triples, elements_for,
                       grid_point, member_triples, shift_above, shift_below, shifted)
from .topology import (
    Ball,
    Side,
    balls_contain,
    dichotomy,
    integer_refinement,
    membership_scaling_rows,
    recenter,
    ring_value_equivalence,
    separation_witness,
    shared_members,
    threshold_disagreement,
)
from .triples import extended_prime_of, field_element, field_triple, reduced
from .valuations import PAdicValuation, SplitKind, extensions_of, primes_by_kind

FIELD_PARAMETERS = (-1, 2, 5, -7)


def constructor_pool(extending_only: bool = False) -> list:
    """Quasi-valuations covering every implemented constructor shape, built once."""
    return list(_frozen_pool(extending_only))


@lru_cache(maxsize=2)
def _frozen_pool(extending_only: bool) -> tuple:
    pool: list = [PAdicValuation(p) for p in (2, 3, 5, 7)]
    for d in FIELD_PARAMETERS:
        for kind in SplitKind:
            p = primes_by_kind(d, kind, count=1)[0]
            pool.extend(extensions_of(p, d))
        split_p = primes_by_kind(d, SplitKind.SPLIT, count=1)[0]
        pool.append(min_extension(split_p, d))
    pool.extend((NAdic(6), NAdic(12)))
    if not extending_only:
        pool.append(MinOf((PAdicValuation(2), PAdicValuation(3))))
    return tuple(w for w in pool if not extending_only or extended_prime_of(w) is not None)


def _random_bound(rng: random.Random) -> Fraction:
    return Fraction(_randint(rng, -4, 8), _randint(rng, 1, 2))


def _pick(pool, rng: random.Random):
    return pool[_randint(rng, 0, len(pool) - 1)]


def _drawn(pool, rng: random.Random, instances: int):
    """Each instance's w, picked from pool as that instance begins."""
    for _ in range(instances):
        yield _pick(pool, rng)


def _one_element(w, rng: random.Random):
    """The last entry of a deck of 8 nonzero elements: one draw past its fixed entries."""
    return field_element(deck_triples(w.d, rng, 8, include_zero=False)[-1], w.d)


def check_recentering(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """A point in two overlapping strict balls has a strict ball around it
    inside the intersection (the larger bound recentered)."""
    for w in _drawn(constructor_pool(), rng, instances):
        y = _one_element(w, rng)
        bounds = sorted((_random_bound(rng), _random_bound(rng)))
        first = Ball(w, y - shift_above(w, bounds[0], rng, strict=True), bounds[0])
        second = Ball(w, y - shift_above(w, bounds[1], rng, strict=True), bounds[1])
        try:
            ball = recenter(first, second, y)
        except DomainError as exc:  # y was built inside both balls
            report.record()
            report.fail({"w": w, "y": y, "m1": bounds[0], "m2": bounds[1]},
                        "y lies in both balls", str(exc))
            continue
        members = member_triples(ball, rng, samples)
        in_first, in_second = balls_contain((first, second), members)
        report.record(len(members))
        for k in np.flatnonzero(~(in_first & in_second)):
            report.fail(
                {"w": w, "y": y, "z": field_element(members[k], w.d), "m1": bounds[0],
                 "m2": bounds[1]},
                "recentered ball lies inside both balls",
                f"in first: {in_first[k]}, in second: {in_second[k]}",
            )


def check_overlap_bound(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """If some z lies in the strict m-balls of both x and y, then the
    centers themselves satisfy w(y−x) > m."""
    for w in _drawn(constructor_pool(), rng, instances):
        x = _one_element(w, rng)
        m = _random_bound(rng)
        g = _witness_above(w, m, strict=True)  # so z − x and z − y are shifts above m
        minus_g, center = -g, field_triple(x, w.d)
        zs, ys = [], []
        for _ in range(samples):
            zs += shifted(center, g, [grid_point(w, rng)])
            ys += shifted(zs[-1], minus_g, [grid_point(w, rng)])
        report.record(samples)
        for k in np.flatnonzero(~Ball(w, x, m, strict=True).contains_all(ys)):
            y, z = field_element(ys[k], w.d), field_element(zs[k], w.d)
            report.fail(
                {"w": w, "x": x, "y": y, "z": z, "m": m},
                f"w(y - x) > {m}",
                str(w.value(y - x)),
            )


def check_hausdorff_witnesses(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """Distinct points get disjoint strict balls at bound m = w(y−x)."""
    for w in _drawn(constructor_pool(), rng, instances):
        x = _one_element(w, rng)
        y = _one_element(w, rng)
        if x == y:
            y = y + 1
        m, ball_x, ball_y = separation_witness(w, x, y)
        report.record()  # each point lies in its own ball: w(0) = ∞ > m
        half = max(1, samples // 2)
        in_x, in_y = member_triples(ball_x, rng, half), member_triples(ball_y, rng, half)
        report.record(len(in_x) + len(in_y))
        for z in shared_members(ball_x, ball_y, in_x, in_y):
            report.fail({"w": w, "x": x, "y": y, "z": field_element(z, w.d), "m": m},
                        "balls are disjoint", "z lies in both")


def check_clopen_separation(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """Strict balls are closed as well as open: around any point outside
    U_m(x), the whole ball U_m(y) misses U_m(x)."""
    for w in _drawn(constructor_pool(), rng, instances):
        x = _one_element(w, rng)
        m = _random_bound(rng)
        ball_x = Ball(w, x, m, strict=True)
        shift, gauge = shift_below(w, m, strict_ball=True)
        y = x + shift
        report.record()
        if ball_x.contains(y):
            report.fail(
                {"w": w, "x": x, "y": y, "m": m},
                f"y built with w(y-x) = {gauge} <= m stays outside",
                "y inside",
            )
            continue
        members = member_triples(Ball(w, y, m, strict=True), rng, samples)
        report.record(len(members))
        for k in np.flatnonzero(ball_x.contains_all(members)):
            report.fail(
                {"w": w, "x": x, "y": y, "z": field_element(members[k], w.d), "m": m},
                "U_m(y) misses U_m(x) for outside y",
                "z lies in both",
            )


def check_closed_ball_dichotomy(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """Translating a closed ball to any point keeps it entirely inside or
    entirely outside; exactly one side applies to each point."""
    for w in _drawn(constructor_pool(), rng, instances):
        x = _one_element(w, rng)
        m = _random_bound(rng)
        ball = Ball(w, x, m, strict=False)
        inside_y = x + shift_above(w, m, rng, strict=False)
        below, _ = shift_below(w, m, strict_ball=False)
        outside_y = x + below
        points, drawn = [], []
        for y, expected in ((inside_y, Side.INSIDE), (outside_y, Side.OUTSIDE), (x, Side.INSIDE)):
            side, translated = dichotomy(ball, y)
            members = member_triples(translated, rng, samples // 2) if side is expected else []
            report.record(1 + len(members))
            drawn.append((y, expected, side, len(points), members))
            points += members
        inside = ball.contains_all(points)
        for y, expected, side, start, members in drawn:
            if side is not expected:
                report.fail(
                    {"w": w, "x": x, "y": y, "m": m},
                    f"constructed point classifies as {expected.value}",
                    side.value,
                )
                continue
            for k in np.flatnonzero(inside[start:start + len(members)] != (side is Side.INSIDE)):
                report.fail(
                    {"w": w, "x": x, "y": y, "z": field_element(members[k], w.d), "m": m},
                    f"translated ball stays {side.value}",
                    f"member on the {('outside' if side is Side.INSIDE else 'inside')}",
                )


def check_integer_refinement(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """A strict ball is a union of closed balls at the integer bound
    floor(m) + 1 around its own members."""
    for w in _drawn(constructor_pool(), rng, instances):
        x = _one_element(w, rng)
        m = _random_bound(rng)
        ball = Ball(w, x, m, strict=True)
        refinement = integer_refinement(ball)
        report.record()
        if not (isinstance(refinement.alpha, int) and refinement.alpha > m):
            report.fail(
                {"w": w, "m": m},
                "alpha is an integer strictly above the bound",
                str(refinement.alpha),
            )
            continue
        points, drawn = [], []
        for y in ball_members(ball, rng, max(2, samples // 10)):
            try:
                piece, refusal = refinement.closed_piece(y), None
            except DomainError as exc:  # y was drawn from the ball
                piece, refusal = None, str(exc)
            members = member_triples(piece, rng, 10) if piece else []
            report.record(len(members) if piece else 1)
            drawn.append((y, refusal, len(points), members))
            points += members
        escaped = ~ball.contains_all(points)
        for y, refusal, start, members in drawn:
            if refusal is not None:
                report.fail({"w": w, "x": x, "y": y, "m": m},
                            "sampled member lies in the strict ball", refusal)
                continue
            for k in np.flatnonzero(escaped[start:start + len(members)]):
                report.fail(
                    {"w": w, "x": x, "y": y, "z": field_element(members[k], w.d), "m": m,
                     "alpha": refinement.alpha},
                    "closed piece stays inside the strict ball",
                    "member escaped",
                )


def check_threshold_chain(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """The four readings of w(x) ≥ v(a) agree for every sampled (x, a)."""
    for w in _drawn(constructor_pool(extending_only=True), rng, instances):
        xs = deck_triples(w.d, rng, samples)
        thresholds = []  # a = num/den as a triple over Q
        while len(thresholds) < samples:
            num, den = _randint(rng, -30, 30), _randint(rng, 1, 12)
            if num:
                thresholds.append(reduced(num, 0, den))
        report.record(samples)
        for x, a, conditions in zip(xs, thresholds, membership_scaling_rows(w, xs, thresholds)):
            if len(set(conditions)) != 1:
                x, a = field_element(x, w.d), field_element(a, None)
                report.fail({"w": w, "x": x, "a": a}, "four-way agreement",
                            threshold_disagreement(w, x, a, conditions))


def check_shared_ring_equivalence(rng: random.Random, report: PropertyReport, instances: int, samples: int):
    """Constructible same-ring pairs clear identical thresholds, and
    rescaled variants are rejected for not extending the base valuation."""
    pairs = []
    for d in FIELD_PARAMETERS:
        p = primes_by_kind(d, SplitKind.SPLIT, count=1)[0]
        u1, u2 = extensions_of(p, d)
        pairs.append((MinOf((u1, u2)), MinOf((u2, u1))))
        pairs.append((u1, u1))
    pairs.append((PAdicValuation(3), PAdicValuation(3)))
    pairs.append((min_extension(3, 2), min_extension(3, 2)))

    for w1, w2 in islice(cycle(pairs), instances):
        xs = elements_for(w1, rng, samples)
        sub = ring_value_equivalence(w1, w2, xs)
        report.record(sub.instances)
        report.failures.extend(sub.failures)

        factor = rng.choice((Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)))
        rejected = ring_value_equivalence(w1, Scaled(w1, factor), xs)
        report.record()
        if rejected.passed:
            report.fail(
                {"w1": w1},
                "rescaled variant rejected at the extends-the-base-valuation check",
                "equivalence ran and passed",
            )


LEMMA_IDS = {
    "2.2": check_recentering,
    "2.10": check_overlap_bound,
    "2.11": check_hausdorff_witnesses,
    "2.12": check_clopen_separation,
    "2.14": check_closed_ball_dichotomy,
    "2.15": check_integer_refinement,
    "2.17": check_threshold_chain,
    "2.18": check_shared_ring_equivalence,
}


def run_lemma(lemma_id: str, seed: int = 0, instances: int = 20, samples: int = 100) -> PropertyReport:
    """The report of one check: labelled lemma_id, drawn from random.Random(seed)."""
    try:
        check = LEMMA_IDS[lemma_id]
    except KeyError:
        raise PropertyViolation(
            f"unknown check id {lemma_id!r}; known: {', '.join(sorted(LEMMA_IDS))}"
        ) from None
    report = PropertyReport(lemma=lemma_id, seed=seed)
    check(random.Random(seed), report, instances, samples)
    return report
