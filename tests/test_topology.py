import random
from fractions import Fraction

import pytest

import qval.batch
import qval.sampling
import qval.topology
import qval.triples
from qval.errors import DomainError, PropertyViolation
from qval.lemmas import constructor_pool
from qval.quadratic import QuadElem
from qval.quasi import MinOf, NAdic, Scaled, min_extension
from qval.report import PropertyReport
from qval.sampling import ball_members, elements_for, member_triples, rationals, shift_above
from qval.topology import (
    Ball,
    QVRing,
    Side,
    balls_contain,
    dichotomy,
    integer_refinement,
    membership_scaling_chain,
    membership_scaling_rows,
    recenter,
    ring_value_equivalence,
    separation_witness,
)
from qval.triples import field_element, field_triple
from qval.valuations import PAdicValuation, extensions_of, hensel_sqrt

V2 = PAdicValuation(2)
V3 = PAdicValuation(3)


def _on(d, xs):
    """The triples the row methods take, of elements of Q (d is None) or Q(√d)."""
    return [field_triple(x, d) for x in xs]


def test_contains_examples():
    assert Ball(V2, 0, 0, strict=True).contains(2)  # v2(2) = 1 > 0
    assert not Ball(V2, 0, 1, strict=True).contains(2)  # 1 is not > 1
    assert Ball(V2, 0, 1, strict=False).contains(2)  # 1 >= 1
    assert 2 in Ball(V2, 0, 0)


def test_a_ball_converts_its_center_once(monkeypatch):
    converted = []

    def recording(x, d):
        converted.append(x)
        return field_triple(x, d)

    for module in (qval.triples, qval.batch, qval.topology, qval.sampling):
        monkeypatch.setattr(module, "field_triple", recording)
    center = QuadElem(Fraction(1, 3), 2, 2)
    ball = Ball(extensions_of(7, 2)[0], center, Fraction(1, 2), strict=False)
    points = member_triples(ball, random.Random(0), 10)
    assert ball.contains_all(points).all()
    y = QuadElem(1, 1, 2)
    assert ball.contains(y) == ball.contains_all([(1, 1, 1)])[0] == (ball.gauge(y) >= ball.bound)
    assert [x for x in converted if x == center] == [center]


def test_center_always_inside():
    for strict in (True, False):
        ball = Ball(V2, Fraction(7, 3), Fraction(100), strict=strict)
        assert ball.contains(Fraction(7, 3))


def test_strict_inside_closed():
    rng = random.Random(0)
    ball_open = Ball(V2, 5, 2, strict=True)
    ball_closed = Ball(V2, 5, 2, strict=False)
    for z in ball_members(ball_open, rng, 50):
        assert ball_closed.contains(z)


def test_recenter_example():
    first = Ball(V2, 0, 0)
    second = Ball(V2, 8, 1)
    y = Fraction(4)
    assert first.contains(y) and second.contains(y)
    inner = recenter(first, second, y)
    assert inner.center == 4 and inner.bound == 1
    for k in range(1, 30):
        z = 4 + 8 * k
        assert inner.contains(z)
        assert first.contains(z) and second.contains(z)


def test_recenter_reorders_bounds():
    first = Ball(V2, 8, 1)
    second = Ball(V2, 0, 0)
    inner = recenter(first, second, 4)
    assert inner.bound == 1  # the larger bound wins regardless of order


def test_recenter_same_ball_at_center():
    ball = Ball(V2, 4, 1)
    inner = recenter(ball, ball, 4)
    assert inner.center == 4 and inner.bound == 1


def test_recenter_preconditions():
    with pytest.raises(DomainError):
        recenter(Ball(V2, 0, 0, strict=False), Ball(V2, 0, 0), 4)
    with pytest.raises(DomainError):
        recenter(Ball(V2, 0, 5), Ball(V2, 0, 0), 4)  # 4 outside the first
    with pytest.raises(DomainError):
        recenter(Ball(V2, 0, 0), Ball(V3, 0, 0), 4)


def test_separation_example():
    m, bx, by = separation_witness(V2, 0, 4)
    assert m == 2
    rng = random.Random(1)
    for z in ball_members(bx, rng, 60):
        assert not by.contains(z)
    for z in ball_members(by, rng, 60):
        assert not bx.contains(z)


def test_separation_symmetry():
    m_xy, _, _ = separation_witness(V2, Fraction(1, 3), Fraction(5, 6))
    m_yx, _, _ = separation_witness(V2, Fraction(5, 6), Fraction(1, 3))
    assert m_xy == m_yx
    with pytest.raises(DomainError):
        separation_witness(V2, 3, 3)


def test_separation_zero_bound():
    m, _, _ = separation_witness(V2, 0, 1)
    assert m == 0


def test_dichotomy_examples():
    ball = Ball(V3, 0, 1, strict=False)
    side, piece = dichotomy(ball, 3)
    assert side is Side.INSIDE
    for k in range(20):
        z = 3 + 3 * k
        if piece.contains(z):
            assert ball.contains(z)

    side, piece = dichotomy(ball, 1)
    assert side is Side.OUTSIDE
    for k in range(20):
        z = 1 + 3 * k  # v3(z) = 0 < 1: outside
        assert piece.contains(z)
        assert not ball.contains(z)

    side, _ = dichotomy(ball, 0)
    assert side is Side.INSIDE  # the center itself

    with pytest.raises(DomainError):
        dichotomy(Ball(V3, 0, 1, strict=True), 3)


def test_dichotomy_exhaustive_on_samples():
    rng = random.Random(2)
    for w in constructor_pool():
        ball = Ball(w, elements_for(w, rng, 5)[-1], Fraction(rng.randint(-2, 3)), strict=False)
        for y in elements_for(w, rng, 30):
            side, piece = dichotomy(ball, y)
            assert side is (Side.INSIDE if ball.contains(y) else Side.OUTSIDE)
            for z in ball_members(piece, rng, 10):
                assert ball.contains(z) == (side is Side.INSIDE)


def test_integer_refinement_bounds():
    assert integer_refinement(Ball(V2, 0, Fraction(1, 2))).alpha == 1
    assert integer_refinement(Ball(V2, 0, 2)).alpha == 3
    assert integer_refinement(Ball(V2, 0, Fraction(-5, 2))).alpha == -2
    with pytest.raises(DomainError):
        integer_refinement(Ball(V2, 0, 2, strict=False))


def test_integer_refinement_ramified_half_integer():
    w = extensions_of(2, 2)[0]
    ball = Ball(w, 0, Fraction(1, 2), strict=True)
    refinement = integer_refinement(ball)
    assert refinement.alpha == 1
    rng = random.Random(3)
    for y in ball_members(ball, rng, 15):
        piece = refinement.closed_piece(y)
        for z in ball_members(piece, rng, 15):
            assert ball.contains(z)
    with pytest.raises(DomainError):
        refinement.closed_piece(1)  # w(1) = 0, not > 1/2


def test_translation_compatibility():
    rng = random.Random(4)
    for w in (V2, min_extension(7, 2), NAdic(12)):
        m = Fraction(1)
        centered = Ball(w, 0, m)
        for x in elements_for(w, rng, 20):
            ball = Ball(w, x, m)
            for y in elements_for(w, rng, 20):
                assert ball.contains(y) == centered.contains(y - x)


def test_nesting_monotone_in_bound():
    rng = random.Random(5)
    w = min_extension(7, 2)
    x = elements_for(w, rng, 3)[-1]
    small = Ball(w, x, 1)
    large = Ball(w, x, 3)
    for z in ball_members(large, rng, 60):
        assert small.contains(z)


def test_total_disconnectedness_restated():
    rng = random.Random(6)
    for w in constructor_pool():
        xs = elements_for(w, rng, 12, include_zero=False)
        x, y = xs[-1], xs[-2]
        if x == y:
            continue
        m = w.value(x - y).finite_part
        piece = Ball(w, x, m, strict=True)
        assert piece.contains(x)
        assert not piece.contains(y)  # w(y-x) = m fails the strict bound
        for z in elements_for(w, rng, 20):
            assert piece.contains(z) != (not piece.contains(z))


def test_hausdorff_on_many_random_pairs():
    rng = random.Random(7)
    pool = constructor_pool()
    pairs = 0
    while pairs < 1000:
        w = pool[rng.randrange(len(pool))]
        xs = elements_for(w, rng, 4)
        x, y = xs[-1], xs[-2]
        if x == y:
            continue
        pairs += 1
        m, bx, by = separation_witness(w, x, y)
        z = x + shift_above(w, m, rng, strict=True)
        assert bx.contains(z)
        assert not by.contains(z)


def test_membership_scaling_chain_examples():
    assert membership_scaling_chain(V2, 8, 4) is True
    assert membership_scaling_chain(V2, 2, 4) is False
    with pytest.raises(DomainError, match="the threshold element a must be nonzero"):
        membership_scaling_chain(V2, 3, 0)
    with pytest.raises(DomainError, match="declared base prime"):
        membership_scaling_chain(MinOf((V2, V3)), 6, 2)  # mixed base rejected


class _OddDropped(PAdicValuation):
    """v_2 with every odd value lowered by one: not a quasi-valuation."""

    def triple_value(self, a, b, q):
        v = super().triple_value(a, b, q)
        return v - (v % 2 == 1)


def test_membership_scaling_chain_reports_disagreement():
    # w(2) = 0 < v(2) = 1, but w(2/2) = w(1) = 0 puts 2/2 in the ring
    message = "threshold conditions disagree for w=vp:2, x=2, a=2: (False, False, True, True)"
    with pytest.raises(PropertyViolation) as caught:
        membership_scaling_chain(_OddDropped(2), 2, 2)
    assert str(caught.value) == message
    assert membership_scaling_rows(_OddDropped(2), _on(None, [2, 8]), _on(None, [2, 2])) == [
        (False, False, True, True), (True, True, True, True)]


def test_membership_scaling_rows_agree_with_the_chain():
    rng = random.Random(19)
    for w in constructor_pool(extending_only=True):
        xs = elements_for(w, rng, 30) + [x * 7**40 for x in elements_for(w, rng, 5)]
        thresholds = [a for a in rationals(rng, 60, include_zero=False) if a][:len(xs) - 1]
        thresholds.append(Fraction(1, 3**50))  # v(a) past the int64 gate
        rows = membership_scaling_rows(w, _on(w.d, xs), _on(None, thresholds))
        assert len(rows) == len(xs)
        for x, a, row in zip(xs, thresholds, rows):
            assert all(type(reading) is bool for reading in row)
            assert row == (membership_scaling_chain(w, x, a),) * 4, (w, x, a)


def test_membership_scaling_rows_refuse_what_the_chain_refuses():
    assert membership_scaling_rows(V2, [], []) == []
    with pytest.raises(DomainError, match="the threshold element a must be nonzero"):
        membership_scaling_rows(V2, _on(None, [1, 2]), _on(None, [3, 0]))
    with pytest.raises(DomainError, match="declared base prime"):
        membership_scaling_rows(MinOf((V2, V3)), _on(None, [6]), _on(None, [2]))
    with pytest.raises(DomainError):
        membership_scaling_rows(V2, _on(None, [1, 2]), _on(None, [3]))


def test_membership_scaling_chain_on_split_min():
    rng = random.Random(8)
    w = min_extension(7, 2)
    thresholds = [a for a in elements_for(V2, rng, 40, include_zero=False) if a != 0]
    for x, a in zip(elements_for(w, rng, 40), thresholds):
        membership_scaling_chain(w, x, a)  # raises on any disagreement


def test_ring_value_equivalence_identity_and_reorder():
    rng = random.Random(9)
    u1, u2 = extensions_of(7, 2)
    samples = elements_for(u1, rng, 40)
    assert ring_value_equivalence(MinOf((u1, u2)), MinOf((u2, u1)), samples).passed
    assert ring_value_equivalence(u1, u1, samples).passed


def test_ring_value_equivalence_rejects_scaled():
    rng = random.Random(10)
    w = min_extension(7, 2)
    samples = elements_for(w, rng, 30)
    report = ring_value_equivalence(w, Scaled(w, 2), samples)
    assert not report.passed
    assert "extend" in report.failures[0].expected


def test_ring_value_equivalence_rejects_mixed_base():
    rng = random.Random(11)
    samples = elements_for(V2, rng, 20)
    report = ring_value_equivalence(MinOf((V2, V3)), V2, samples)
    assert not report.passed


def test_ring_value_equivalence_reports_ring_disagreement():
    rng = random.Random(12)
    samples = elements_for(V2, rng, 30, include_zero=False)
    report = ring_value_equivalence(V2, PAdicValuation(2), samples)
    assert report.passed
    # different primes are rejected before the ring is even consulted
    report = ring_value_equivalence(V2, V3, samples)
    assert not report.passed


def _reference_ring_value_equivalence(w1, w2, samples, seed=None):
    """ring_value_equivalence as one scalar value() and one Ball.contains per
    sample, threshold and center: the per-alpha loop the matrices replace."""
    alpha_grid = range(-5, 6)
    report = PropertyReport(lemma="ring-value-equivalence", seed=seed)
    p1, p2 = w1.extended_prime, w2.extended_prime
    report.record()
    if p1 is None or p2 is None or p1 != p2:
        report.fail(
            {"w1": w1, "w2": w2},
            "both quasi-valuations extend one common p-adic valuation",
            f"base primes {p1} and {p2}",
        )
        return report
    samples = [field_element(field_triple(x, w1.d), w1.d) for x in samples]
    agreed = True
    for x in samples:
        report.record()
        in1, in2 = QVRing(w1).contains(x), QVRing(w2).contains(x)
        if in1 != in2:
            agreed = False
            report.fail(
                {"x": x},
                "ring membership must agree for the pair to share a ring",
                f"w1-ring: {in1}, w2-ring: {in2}",
            )
    if not agreed:
        return report
    for x in samples:
        v1, v2 = w1.value(x), w2.value(x)
        for alpha in alpha_grid:
            report.record()
            if (v1 >= alpha) != (v2 >= alpha):
                report.fail(
                    {"x": x, "alpha": alpha},
                    f"w1(x) >= {alpha} iff w2(x) >= {alpha}",
                    f"w1(x) = {v1}, w2(x) = {v2}",
                )
    for center in samples[:: max(1, len(samples) // 8)]:
        for alpha in alpha_grid:
            ball1 = Ball(w1, center, Fraction(alpha), strict=False)
            ball2 = Ball(w2, center, Fraction(alpha), strict=False)
            for y in samples:
                report.record()
                if ball1.contains(y) != ball2.contains(y):
                    report.fail(
                        {"center": center, "alpha": alpha, "y": y},
                        "closed balls under w1 and w2 contain the same points",
                        f"w1-ball: {ball1.contains(y)}, w2-ball: {ball2.contains(y)}",
                    )
    return report


def _reports_agree(w1, w2, samples):
    report = ring_value_equivalence(w1, w2, samples, seed=5)
    assert report.to_dict() == _reference_ring_value_equivalence(w1, w2, samples, seed=5).to_dict()
    return report


def test_ring_value_equivalence_matches_the_scalar_loop_on_passing_pairs():
    rng = random.Random(13)
    u1, u2 = extensions_of(7, 2)
    ram = extensions_of(2, -1)[0]  # value denominator 2: thresholds α·2
    for w1, w2 in ((MinOf((u1, u2)), MinOf((u2, u1))), (u1, u1), (V3, V3),
                   (min_extension(3, 2), min_extension(3, 2)), (ram, ram)):
        for count in (2, 9, 40):
            assert _reports_agree(w1, w2, elements_for(w1, rng, count)).passed
    # past the int64 gate the gauges are Python ints, still compared exactly
    huge = [x * 7**30 for x in elements_for(u1, rng, 10)] + [Fraction(1, 7**40)]
    assert _reports_agree(u1, u1, huge).passed


def test_ring_value_equivalence_matches_the_scalar_loop_on_ring_disagreement():
    rng = random.Random(14)
    u1, u2 = extensions_of(7, 2)
    # (√2 − s)/7 for the branch root s lies in that branch's ring only
    outliers = [QuadElem(Fraction(-hensel_sqrt(7, 2, 2, b), 7), Fraction(1, 7), 2) for b in (1, 2)]
    samples = elements_for(u1, rng, 20) + outliers
    for w1, w2 in ((u1, u2), (u1, MinOf((u1, u2))), (MinOf((u2, u1)), u2)):
        report = _reports_agree(w1, w2, samples)
        assert report.failures and all("ring" in f.expected for f in report.failures)


def test_ring_value_equivalence_matches_the_scalar_loop_on_threshold_failures():
    rng = random.Random(15)
    u1, u2 = extensions_of(7, 2)
    w2 = MinOf((u1, u2))
    # inside both rings, but √2 − s is deeper under the branch of s than under the min
    samples = [x for x in elements_for(u1, rng, 200) if w2.value(x) >= 0][:30]
    samples += [QuadElem(-hensel_sqrt(7, 2, 3, b), 1, 2) for b in (1, 2)]
    report = _reports_agree(u1, w2, samples)
    assert {f.expected.split()[0] for f in report.failures} == {"w1(x)", "closed"}


def test_ring_value_equivalence_on_empty_and_single_samples():
    for samples in ([], [Fraction(3, 7)], [0]):
        report = _reports_agree(V3, V3, samples)
        assert report.passed
        assert report.instances == 1 + len(samples) * (1 + 11 + 11)


def test_ring_value_equivalence_makes_one_gauge_matrix_per_quasi_valuation(monkeypatch):
    # row 0 gives the ring and the thresholds, the later rows the closed balls
    calls = []

    def recording(w, centers, points):
        calls.append((w, len(centers), len(points)))
        return qval.batch.gauge_matrix(w, centers, points)

    monkeypatch.setattr(qval.topology, "gauge_matrix", recording)
    u1, u2 = extensions_of(7, 2)
    samples = elements_for(u1, random.Random(19), 40)
    for w1, w2, passed in ((MinOf((u1, u2)), MinOf((u2, u1)), True), (u1, u2, False)):
        calls.clear()
        assert ring_value_equivalence(w1, w2, samples).passed is passed
        assert calls == [(w1, 1 + 8, 40), (w2, 1 + 8, 40)]
    calls.clear()
    assert not ring_value_equivalence(u1, Scaled(u1, 2), samples).passed
    assert calls == []  # refused at the preconditions


def test_contains_all_agrees_with_contains():
    rng = random.Random(16)
    for w in constructor_pool():
        points = elements_for(w, rng, 25)
        center = points[rng.randrange(len(points))]
        for bound in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)):
            for strict in (True, False):
                ball = Ball(w, center, bound, strict=strict)
                members = ball_members(ball, rng, 5)
                assert ball.contains_all(_on(w.d, points + members)).tolist() == [
                    ball.contains(y) for y in points + members], (w, bound, strict)
    assert Ball(V2, 0, 0).contains_all([]).tolist() == []


def test_ring_contains_all_agrees_with_contains():
    rng = random.Random(17)
    for w in constructor_pool():
        points = elements_for(w, rng, 30)
        points += [x * 7**30 for x in points[-5:]] + [x / 5**40 for x in points[-5:]]
        ring, triples = QVRing(w), _on(w.d, points)
        assert ring.contains_all(triples).tolist() == [ring.contains(x) for x in points], w
        assert ring.contains_all(triples).tolist() == Ball(w, 0, 0, strict=False).contains_all(
            triples).tolist(), w
    assert QVRing(V2).contains_all([]).tolist() == []


def test_contains_all_past_the_sentinel():
    w = Scaled(V2, 2**45)  # w(4) = 2^46 is a finite gauge above the ∞ sentinel
    for strict in (True, False):
        ball = Ball(w, 0, 2**46, strict=strict)
        points = [0, 4, 8, 2]
        assert ball.contains_all(_on(None, points)).tolist() == [ball.contains(y) for y in points]
        assert ball.contains_all(_on(None, points)).tolist() == [True, not strict, True, False]


def test_balls_contain_agrees_with_contains():
    rng = random.Random(18)
    for w in constructor_pool():
        points = elements_for(w, rng, 20)
        balls = [Ball(w, points[rng.randrange(len(points))], bound, strict=strict)
                 for bound in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3))
                 for strict in (True, False)]
        points += [z for ball in balls for z in ball_members(ball, rng, 3)]
        inside = balls_contain(balls, _on(w.d, points))
        assert inside.dtype == bool and inside.shape == (len(balls), len(points))
        assert inside.tolist() == [[ball.contains(y) for y in points] for ball in balls], w


def test_balls_contain_on_empty_input_and_mixed_constructors():
    balls = (Ball(V2, 0, 0), Ball(V2, 1, Fraction(1, 2), strict=False))
    assert balls_contain(balls, []).shape == (2, 0)
    assert balls_contain((), _on(None, [0, 1, 2])).shape == (0, 3)
    with pytest.raises(DomainError):
        balls_contain((Ball(V2, 0, 0), Ball(V3, 0, 0)), _on(None, [1]))
