"""Ultrametric balls and the topology a quasi-valuation induces.

A ball is a lazy membership predicate: U_m(x) = {y : w(y−x) > m} when
strict, Ũ_m(x) = {y : w(y−x) ≥ m} when closed.  The operations here are
the constructive content of the basic facts about this topology — shrink
two overlapping strict balls to one around a common point, produce the
Hausdorff separation bound for two distinct points, classify a point
against a closed ball (whose translate then lies entirely inside or
entirely outside), refine a strict ball to closed balls with integer
bounds, and compare two quasi-valuations that share a ring.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PropertyViolation
from .quasi import QVRing, coerce_to_field
from .report import PropertyReport
from .valuations import v_p
from .values import Value


@dataclass(frozen=True)
class Ball:
    """An ultrametric ball with lazy membership.

    ``strict`` selects membership w(y−center) > bound; otherwise ≥ bound.
    The center always belongs to its own ball, since w(0) = ∞ beats any
    bound; and the strict ball is contained in the closed ball of the
    same center and bound.
    """

    qv: object
    center: object
    bound: Fraction
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", coerce_to_field(self.qv, self.center))
        object.__setattr__(self, "bound", Fraction(self.bound))

    @classmethod
    def open_ball(cls, qv, center, bound) -> "Ball":
        return cls(qv, center, bound, strict=True)

    @classmethod
    def closed_ball(cls, qv, center, bound) -> "Ball":
        return cls(qv, center, bound, strict=False)

    def gauge(self, y) -> Value:
        """w(y − center), the quantity membership compares against."""
        y = coerce_to_field(self.qv, y)
        return self.qv.value(y - self.center)

    def contains(self, y) -> bool:
        g = self.gauge(y)
        return g > self.bound if self.strict else g >= self.bound

    def __contains__(self, y) -> bool:
        return self.contains(y)

    def __str__(self) -> str:
        kind = "U" if self.strict else "closedU"
        return f"{kind}_{self.bound}({self.center}; {self.qv})"


def recenter(first: Ball, second: Ball, y) -> Ball:
    """One strict ball around y inside the intersection of two strict balls.

    Requires y to lie in both; the ball with the larger bound recentered
    at y is contained in each.  Bounds in either order are accepted.
    """
    if not (first.strict and second.strict):
        raise DomainError("recentering applies to strict balls")
    if first.qv != second.qv:
        raise DomainError("balls live under different quasi-valuations")
    if not first.contains(y):
        raise DomainError(f"{y} is outside {first}")
    if not second.contains(y):
        raise DomainError(f"{y} is outside {second}")
    return Ball(first.qv, y, max(first.bound, second.bound), strict=True)


def separation_witness(w, x, y) -> tuple[Fraction, Ball, Ball]:
    """The bound m = w(y−x) and the two disjoint strict balls it separates.

    Any point of both balls would force w(y−x) > m = w(y−x); so the balls
    witness that two distinct points have disjoint neighborhoods.
    """
    x = coerce_to_field(w, x)
    y = coerce_to_field(w, y)
    if x == y:
        raise DomainError("separation needs two distinct points")
    m = w.value(y - x)
    if m.is_infinite:
        raise PropertyViolation(f"w({y} - {x}) = inf for distinct points under {w}")
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


def membership_scaling_chain(w, x, a) -> bool:
    """Four equivalent readings of "w(x) clears the threshold v(a)".

    For w extending v_p, x in the field and a a nonzero rational the
    following agree, and the common truth value is returned:
      (a) w(x) ≥ v(a);  (b) w(x) − v(a) ≥ 0;  (c) w(x·a⁻¹) ≥ 0;
      (d) x·a⁻¹ lies in the ring of w.
    Disagreement would mean a broken constructor and raises.
    """
    a = Fraction(a)
    if a == 0:
        raise DomainError("the threshold element a must be nonzero")
    p = _require_extended_prime(w)
    x = coerce_to_field(w, x)
    va = v_p(p, a).finite_part
    wx = w.value(x)
    scaled = x / a
    conditions = (
        wx >= va,
        wx - va >= 0,
        w.value(scaled) >= 0,
        QVRing(w).contains(scaled),
    )
    if len(set(conditions)) != 1:
        raise PropertyViolation(
            f"threshold conditions disagree for w={w}, x={x}, a={a}: {conditions}"
        )
    return conditions[0]


def ring_value_equivalence(w1, w2, samples, alpha_grid=range(-5, 6),
                           seed: int | None = None) -> PropertyReport:
    """Two quasi-valuations with one ring clear the same integer thresholds.

    Preconditions (checked, and reported as failures when violated): both
    constructors restrict to the same v_p on Q, and their rings agree on
    every sample.  Then for each sample x and integer alpha the report
    asserts w1(x) ≥ alpha iff w2(x) ≥ alpha, and that closed balls of bound
    alpha around sampled centers agree on sampled membership — which is why
    the ring alone already fixes the topology.
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

    samples = [coerce_to_field(w1, x) for x in samples]
    ring1, ring2 = QVRing(w1), QVRing(w2)
    agreed = True
    for x in samples:
        report.record()
        in1, in2 = ring1.contains(x), ring2.contains(x)
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

    # closed balls with integer bounds around sampled centers agree pointwise
    centers = samples[:: max(1, len(samples) // 8)]
    for center in centers:
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
