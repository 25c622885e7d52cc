"""Ultrametric balls and the topology a quasi-valuation induces.

A ball is a lazy membership predicate: U_m(x) = {y : w(y−x) > m} when
strict, Ũ_m(x) = {y : w(y−x) ≥ m} when closed.  The operations here are
the constructive content of the basic facts about this topology — shrink
two overlapping strict balls to one around a common point, produce the
Hausdorff separation bound for two distinct points, classify a point
against a closed ball (whose translate then lies entirely inside or
entirely outside), refine a strict ball to closed balls with integer
bounds, and compare two quasi-valuations that share a ring, O_w =
{x : w(x) ≥ 0}, itself the closed ball Ũ_0(0) (``QVRing``).

Membership compares the gauge w(y − c), an integer scaled by the value
denominator, against the bound as an integer (``batch.clears``).  Where
many points meet one bound, the points come as the integer triples the
samplers draw (``triples.field_triple`` converts an element; a ball
converts its center once, when it is made), and each gauge is evaluated
once per (center, point), as an integer matrix (``batch.gauge_matrix``):
``balls_contain`` (``Ball.contains_all`` for one ball, ``shared_members``
for two separating balls) for a lemma instance's members,
``membership_scaling_rows`` for the four readings of lemma 2.17's
threshold chain (w(x) and w(x·a⁻¹) in one row), and
``ring_value_equivalence`` for every sample, threshold and sampled center
at once, per quasi-valuation.  ``Ball.contains`` is the one-point case,
on Python ints; ``Ball.gauge`` builds the ``Value`` for display.
"""

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .batch import clears, difference, gauge_matrix
from .errors import DomainError, PropertyViolation
from .report import PropertyReport
from .triples import field_element, field_triple, reduced
from .valuations import PAdicValuation
from .values import INFINITY, Value


@dataclass(frozen=True)
class Ball:
    """An ultrametric ball with lazy membership.

    ``strict`` selects membership w(y−center) > bound; otherwise ≥ bound.
    The center always belongs to its own ball, since w(0) = ∞ beats any
    bound; and the strict ball is contained in the closed ball of the
    same center and bound.  The center is converted into w's field once:
    ``center`` is the element, and its triple is what membership reads.
    """

    qv: object
    center: object
    bound: Fraction
    strict: bool = True
    _center_triple: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.qv.d
        triple = field_triple(self.center, d)
        object.__setattr__(self, "_center_triple", triple)
        object.__setattr__(self, "center", field_element(triple, d))
        object.__setattr__(self, "bound", Fraction(self.bound))

    def gauge(self, y) -> Value:
        """w(y − center), the quantity membership compares against, read as ``value``
        reads it: ∞ at y = center, else on the reduced difference triple."""
        w = self.qv
        a, b, q = reduced(*difference(self._center_triple, field_triple(y, w.d)))
        if a == 0 and b == 0:
            return INFINITY
        return Value(Fraction(w.triple_value(a, b, q), w.value_denominator))

    def contains(self, y) -> bool:
        """``contains_all`` for one point, on ints: w of the reduced y − c, as ``value`` reads it."""
        w = self.qv
        a, b, q = reduced(*difference(self._center_triple, field_triple(y, w.d)))
        return (a == 0 and b == 0) or bool(clears(w, w.triple_value(a, b, q), False,
                                                 self.bound, self.strict))

    def contains_all(self, points):
        """``contains`` for every point triple, as a bool array: one-ball ``balls_contain``."""
        return balls_contain((self,), points)[0]

    def __contains__(self, y) -> bool:
        return self.contains(y)

    def __str__(self) -> str:
        kind = "U" if self.strict else "closedU"
        return f"{kind}_{self.bound}({self.center}; {self.qv})"


class QVRing(Ball):
    """O_w = {x : w(x) ≥ 0}, the closed ball Ũ_0(0): a predicate, as the ring is infinite."""

    def __init__(self, qv):
        super().__init__(qv, 0, 0, strict=False)

    def __str__(self) -> str:
        return f"ring[{self.qv}]"


def balls_contain(balls, points):
    """``contains`` as a bool matrix (len(balls), len(points)) for balls of one w and point
    triples, from one gauge matrix over the centers, each row cleared at its ball's bound."""
    if not balls:
        return np.zeros((0, len(points)), bool)
    w = balls[0].qv
    if any(ball.qv != w for ball in balls):
        raise DomainError("balls live under different quasi-valuations")
    gauges, infinite = gauge_matrix(w, [ball._center_triple for ball in balls], points)
    return np.stack([clears(w, row, at_center, ball.bound, ball.strict)
                     for ball, row, at_center in zip(balls, gauges, infinite)])


def shared_members(ball_x, ball_y, in_x, in_y) -> list:
    """The triples of in_x that lie in ball_y, then those of in_y that lie in ball_x:
    both balls met in one gauge matrix."""
    inside = balls_contain((ball_y, ball_x), in_x + in_y)
    return ([in_x[k] for k in np.flatnonzero(inside[0, :len(in_x)])]
            + [in_y[k] for k in np.flatnonzero(inside[1, len(in_x):])])


def recenter(first: Ball, second: Ball, y) -> Ball:
    """One strict ball around y inside the intersection of two strict balls.

    Requires y to lie in both; the ball with the larger bound recentered
    at y is contained in each.  Bounds in either order are accepted.
    """
    if not (first.strict and second.strict):
        raise DomainError("recentering applies to strict balls")
    if first.qv != second.qv:
        raise DomainError("balls live under different quasi-valuations")
    for ball in (first, second):
        if not ball.contains(y):
            raise DomainError(f"{y} is outside {ball}")
    return Ball(first.qv, y, max(first.bound, second.bound), strict=True)


def separation_witness(w, x, y) -> tuple[Fraction, Ball, Ball]:
    """The bound m = w(y−x) and the two disjoint strict balls it separates.

    Any point of both balls would force w(y−x) > m = w(y−x); so the balls
    witness that two distinct points have disjoint neighborhoods.
    """
    m = Ball(w, x, 0).gauge(y)
    if m.is_infinite:
        raise DomainError("separation needs two distinct points")
    m = m.finite_part
    return m, Ball(w, x, m, strict=True), Ball(w, y, m, strict=True)


class Side(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


def dichotomy(ball: Ball, y) -> tuple[Side, Ball]:
    """Classify y against a closed ball; the closed ball around y with the
    same bound lies entirely on y's side.

    Inside:  w(y−x) ≥ m forces w(z−x) ≥ min(w(z−y), w(y−x)) ≥ m.
    Outside: w(y−x) < m forces w(z−x) = w(y−x) < m exactly, since the two
    gauges differ.
    """
    if ball.strict:
        raise DomainError("the dichotomy applies to closed balls")
    side = Side.INSIDE if ball.contains(y) else Side.OUTSIDE
    translated = Ball(ball.qv, y, ball.bound, strict=False)
    return side, translated


@dataclass(frozen=True)
class BallRefinement:
    """A strict ball expressed as a union of closed balls at an integer bound.

    ``alpha`` is the least integer above the strict bound; for every member
    y of the ball, the closed ball of bound alpha around y stays inside.
    """

    source: Ball
    alpha: int

    def closed_piece(self, y) -> Ball:
        if not self.source.contains(y):
            raise DomainError(f"{y} is outside {self.source}")
        return Ball(self.source.qv, y, Fraction(self.alpha), strict=False)


def integer_refinement(ball: Ball) -> BallRefinement:
    """Refine a strict ball into closed balls with the integer bound
    floor(m) + 1 — the value-group grid suffices as a base."""
    if not ball.strict:
        raise DomainError("refinement applies to strict balls")
    return BallRefinement(ball, math.floor(ball.bound) + 1)


# ---------------------------------------------------------------------------
# the ring as the carrier of the topology


def _require_extended_prime(w) -> int:
    p = w.extended_prime
    if p is None:
        raise DomainError(
            f"{w} does not restrict to a single p-adic valuation on Q; "
            "this operation needs a declared base prime"
        )
    return p


def _over(x, a):
    """x·a⁻¹ as a reduced triple, for a triple x and a nonzero rational triple a."""
    (xa, xb, xq), (n, _, m) = x, a
    s = m if n > 0 else -m
    return reduced(xa * s, xb * s, xq * abs(n))


def membership_scaling_rows(w, xs, thresholds) -> list[tuple[bool, bool, bool, bool]]:
    """The readings (a)–(d) of ``membership_scaling_chain`` for each pair (x, a),
    given as triples of w's field and of Q, each from its own slice: w(x) against
    the ``PAdicValuation(p)`` row of v(a) for (a) and (b), w(x·a⁻¹) for (c), both
    from one row of w over xs then the x·a⁻¹, and ``QVRing.contains_all`` for (d)."""
    if len(xs) != len(thresholds):
        raise DomainError(f"{len(xs)} elements against {len(thresholds)} thresholds")
    if not all(a for a, _, _ in thresholds):
        raise DomainError("the threshold element a must be nonzero")
    p = _require_extended_prime(w)
    den = w.value_denominator
    origin = [(0, 0, 1)]
    (va,), _ = gauge_matrix(PAdicValuation(p), origin, thresholds)
    scaled = [_over(x, a) for x, a in zip(xs, thresholds)]
    (row,), (zero,) = gauge_matrix(w, origin, xs + scaled)
    n = len(xs)
    wx, wxa, x_zero, xa_zero = row[:n], row[n:], zero[:n], zero[n:]
    return list(zip(
        (x_zero | (wx >= va * den)).tolist(),
        (x_zero | (wx - va * den >= 0)).tolist(),
        (xa_zero | (wxa >= 0)).tolist(),
        QVRing(w).contains_all(scaled).tolist(),
    ))


def membership_scaling_chain(w, x, a) -> bool:
    """Four equivalent readings of "w(x) clears the threshold v(a)".

    For w extending v_p, x in the field and a a nonzero rational the
    following agree, and the common truth value is returned:
      (a) w(x) ≥ v(a);  (b) w(x) − v(a) ≥ 0;  (c) w(x·a⁻¹) ≥ 0;
      (d) x·a⁻¹ lies in the ring of w.
    Disagreement would mean a broken constructor and raises.  This is the
    one-pair case of ``membership_scaling_rows``.
    """
    (conditions,) = membership_scaling_rows(w, [field_triple(x, w.d)], [field_triple(a, None)])
    if len(set(conditions)) != 1:
        raise PropertyViolation(threshold_disagreement(w, x, a, conditions))
    return conditions[0]


def threshold_disagreement(w, x, a, conditions) -> str:
    """The message of a chain whose four readings disagree."""
    x = field_element(field_triple(x, w.d), w.d)
    return f"threshold conditions disagree for w={w}, x={x}, a={Fraction(a)}: {conditions}"


_ALPHAS = range(-5, 6)


def ring_value_equivalence(w1, w2, samples, seed: int | None = None) -> PropertyReport:
    """Two quasi-valuations with one ring clear the same integer thresholds.

    Preconditions (checked, and reported as failures when violated): both
    constructors restrict to the same v_p on Q, and their rings agree on
    every sample.  Then for each sample x and integer alpha of ``_ALPHAS``
    (−5 to 5) the report asserts w1(x) ≥ alpha iff w2(x) ≥ alpha, and that
    closed balls of bound alpha around sampled centers agree on sampled
    membership — which is why the ring alone already fixes the topology.
    Each w reads it all from one gauge matrix: w(x) around 0, then the
    sampled centers' rows.
    """
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

    samples = list(samples)
    t1 = [field_triple(x, w1.d) for x in samples]
    t2 = t1 if w2.d == w1.d else [field_triple(x, w2.d) for x in samples]
    step = max(1, len(samples) // 8)

    def readings(w, t):
        """The ring, and every gauge against every alpha on a new axis 1: the least passing
        gauge is alpha·value_denominator, a Python int, so no denominator overflows int64."""
        gauges, infinite = gauge_matrix(w, [(0, 0, 1)] + t[::step], t)
        least = np.array([alpha * w.value_denominator for alpha in _ALPHAS])[:, None]
        return infinite[0] | (gauges[0] >= 0), infinite[:, None] | (gauges[:, None] >= least)

    (ring1, at1), (ring2, at2) = readings(w1, t1), readings(w2, t2)
    report.record(len(samples))
    disagree = np.flatnonzero(ring1 != ring2)
    for i in disagree:
        report.fail(
            {"x": field_element(t1[i], w1.d)},
            "ring membership must agree for the pair to share a ring",
            f"w1-ring: {ring1[i]}, w2-ring: {ring2[i]}",
        )
    if disagree.size:
        return report

    report.record(at1[0].size)
    for i, k in np.argwhere(at1[0].T != at2[0].T):
        x = field_element(t1[i], w1.d)
        report.fail(
            {"x": x, "alpha": _ALPHAS[k]},
            f"w1(x) >= {_ALPHAS[k]} iff w2(x) >= {_ALPHAS[k]}",
            f"w1(x) = {w1.value(x)}, w2(x) = {w2.value(x)}",
        )

    # closed balls with integer bounds around sampled centers agree pointwise
    in1, in2 = at1[1:], at2[1:]
    report.record(in1.size)
    for c, k, j in np.argwhere(in1 != in2):
        report.fail(
            {"center": field_element(t1[c * step], w1.d), "alpha": _ALPHAS[k],
             "y": field_element(t1[j], w1.d)},
            "closed balls under w1 and w2 contain the same points",
            f"w1-ball: {in1[c, k, j]}, w2-ball: {in2[c, k, j]}",
        )
    return report
