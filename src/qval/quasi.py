"""Quasi-valuation constructors, the axiom harness, and value witnesses.

A quasi-valuation w maps a field into Q ∪ {∞} with

  (B1)  w(0) = ∞,
  (B2)  w(xy) ≥ w(x) + w(y),
  (B3)  w(x+y) ≥ min(w(x), w(y)),

weakening the multiplicative equality of a valuation into superadditivity.
Three constructors are provided: the pointwise minimum of finitely many
valuations on the same field, the n-adic function on Q for composite n,
and positive rational rescaling.  These and the valuations themselves
(``PAdicValuation``, ``ExtendedValuation``) all subclass ``QuasiValuation``,
so any of them can be used wherever a quasi-valuation is expected.  Each
constructor evaluates integer triples in its ``triple_value``, sizing any
integer it forms there (``triples.formed``), and inherits ``value``; the
axiom harness runs it on arrays of every sample, sum and product (``batch``).
The ring O_w = {x : w(x) ≥ 0} is the closed ball Ũ_0(0), ``topology.QVRing``.
Every value witness and graded element is a power of one rational base per
w, ``graded_base``, read from ``extended_prime`` (``triples.extended_prime_of``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import batch
from .errors import DomainError, PropertyViolation
from .primes import factorize, is_prime
from .report import PropertyReport
from .triples import (QuasiValuation, clamp_inf, extended_prime_of, field_element, field_triple,
                      minimum, multiplicity, require_quasi_valuation, times)
from .valuations import (ExtendedValuation, PAdicValuation, SplitKind, content_value,
                         extensions_of)
from .values import Value

Valuation = PAdicValuation | ExtendedValuation


@dataclass(frozen=True)
class MinOf(QuasiValuation):
    """The pointwise minimum of valuations over one common field.

    When every member extends the same v_p the result is a quasi-valuation
    extending v_p (``extended_prime`` reports p).  Members over different
    base primes — e.g. min(v_2, v_3) on Q — are allowed but "mixed-base":
    they satisfy the axioms yet restrict to no single valuation on Q, and
    operations that need w|_Q = v_p reject them.

    The two branches of one split (p, d), in either order, are read as the
    p-content (``valuations.content_value``); other minima member by member.
    """

    members: tuple[Valuation, ...]

    def __init__(self, members):
        members = tuple(map(require_quasi_valuation, members))
        if not members:
            raise DomainError("MinOf needs at least one valuation")
        fields = {m.d for m in members}
        if len(fields) != 1:
            raise DomainError(f"MinOf members live in different fields: {sorted(map(str, fields))}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "value_denominator",
                           reduce(math.lcm, (m.value_denominator for m in members)))
        first = members[0]
        object.__setattr__(self, "_split_pair", len(members) == 2
                           and type(first) is ExtendedValuation and first.kind is SplitKind.SPLIT
                           and members[1] == first.conjugate_branch())

    @property
    def d(self) -> int | None:
        return self.members[0].d

    @property
    def extended_prime(self) -> int | None:
        primes = {extended_prime_of(m) for m in self.members}
        return primes.pop() if len(primes) == 1 else None

    def triple_value(self, a, b, q):
        if self._split_pair:
            return content_value(self.members[0].p, a, b, q)
        scale, zero = self.value_denominator, (a == 0) & (b == 0)
        parts = (times(m.triple_value(a, b, q), scale // m.value_denominator, zero)
                 for m in self.members)
        return clamp_inf(reduce(minimum, parts), zero)

    def __str__(self) -> str:
        return "min[" + "|".join(str(m) for m in self.members) + "]"


@dataclass(frozen=True)
class NAdic(QuasiValuation):
    """The n-adic quasi-valuation on Q for an integer n ≥ 2.

    For prime n this is v_n; for composite n it is a proper
    quasi-valuation (superadditivity can be strict).
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"n-adic base must be an integer >= 2, got {self.n!r}")

    d = None

    @property
    def extended_prime(self) -> int | None:
        return self.n if is_prime(self.n) else None

    def triple_value(self, a, b, q):
        parts = ((multiplicity(a, p) - multiplicity(q, p)) // c for p, c in factorize(self.n))
        return clamp_inf(reduce(minimum, parts), a == 0)

    def __str__(self) -> str:
        return f"nadic:{self.n}"


@dataclass(frozen=True)
class Scaled(QuasiValuation):
    """w'(x) = factor · w(x) for a positive rational factor.

    Rescaling preserves the axioms and the ring {w ≥ 0}, but for
    factor ≠ 1 the result no longer restricts to the base valuation.
    """

    inner: object
    factor: Fraction

    def __init__(self, inner, factor):
        factor = Fraction(factor)
        if factor <= 0:
            raise DomainError(f"scaling factor must be positive, got {factor}")
        object.__setattr__(self, "inner", require_quasi_valuation(inner))
        object.__setattr__(self, "factor", factor)

    @property
    def d(self) -> int | None:
        return self.inner.d

    @property
    def extended_prime(self) -> int | None:
        return extended_prime_of(self.inner) if self.factor == 1 else None

    @property
    def value_denominator(self) -> int:
        return self.inner.value_denominator * self.factor.denominator

    def triple_value(self, a, b, q):
        zero = (a == 0) & (b == 0)
        return clamp_inf(times(self.inner.triple_value(a, b, q), self.factor.numerator, zero), zero)

    def __str__(self) -> str:
        return f"scaled:{self.factor},{self.inner}"


def min_extension(p: int, d: int) -> MinOf:
    """min over all extensions of v_p to Q(√d) — the canonical
    quasi-valuation extending v_p whose ring contains Z[√d]."""
    return MinOf(extensions_of(p, d))


# ---------------------------------------------------------------------------
# the n-adic function and its independent decomposition oracle


def n_adic(n: int, x) -> Value:
    """w_n(x): the unique e with x = n^e·(a/b), n ∤ a, gcd(n,b) = gcd(a,b) = 1.

    Closed form: e = min over prime powers p^c ‖ n of floor(v_p(x) / c).
    ``n_adic_decomposition`` computes the same e straight from the defining
    decomposition; the test suite keeps the two in agreement.
    """
    return NAdic(n).value(x)


def n_adic_decomposition(n: int, x) -> int:
    """Oracle for ``n_adic``: search e over a window wide enough to contain
    every possible exponent and check the decomposition conditions directly."""
    NAdic(n)  # refuses a base that is not an integer >= 2
    c, _, den = field_triple(x, None)
    if c == 0:
        raise DomainError("decomposition is defined for nonzero x")
    top = max(abs(c), den)
    # any candidate exponent is bounded by a 2-adic digit count: each step of
    # e moves at least one factor of 2 (the least possible prime) in or out
    window = top.bit_length() + 1
    matches = []
    for e in range(-window, window + 1):
        if e >= 0:
            num, dnm = c, den * n**e
        else:
            num, dnm = c * n**(-e), den
        g = math.gcd(num, dnm)
        a, b = num // g, dnm // g
        if a % n != 0 and math.gcd(n, b) == 1:
            matches.append(e)
    if len(matches) != 1:
        raise PropertyViolation(
            f"decomposition of {Fraction(c, den)} base {n} matched exponents {matches}; "
            "expected exactly one"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# axiom harness


def check_axioms(w, samples, seed: int | None = None) -> PropertyReport:
    """Verify (B1)-(B3) plus the symmetry facts on every pair from samples.

    Checks, all with exact comparisons:
      * w(0) = ∞;
      * w(-x) = w(x) for every sample;
      * w(xy) ≥ w(x) + w(y) and w(x+y) ≥ min(w(x), w(y)) for every
        unordered pair (including x with itself);
      * w(x+y) = min(w(x), w(y)) whenever w(x) ≠ w(y).

    Returns a report carrying exact counterexamples on failure.
    """
    samples = list(samples)  # any iterable: a failure is read back by index
    checked, violations = batch.pairwise_axiom_check(w, samples)
    report = PropertyReport(lemma=f"quasi-valuation axioms [{w}]", seed=seed)

    zero_value = w.value(0)
    report.record()
    if not zero_value.is_infinite:
        report.fail({"x": "0"}, "w(0) = inf", str(zero_value))

    report.record(checked)
    for kind, i, j in violations:
        _record_pair_failure(report, w, samples, kind, i, j)
    return report


def _record_pair_failure(report: PropertyReport, w, samples, kind: str, i: int, j: int):
    """Report a violation found on the arrays, with its values re-evaluated."""
    x = field_element(field_triple(samples[i], w.d), w.d)
    if kind == "negation":
        report.fail({"x": x}, f"w(-x) = w(x) = {w.value(x)}", str(w.value(-x)))
        return
    y = field_element(field_triple(samples[j], w.d), w.d)
    vx, vy = w.value(x), w.value(y)
    if kind == "superadditive":
        report.fail({"x": x, "y": y}, f"w(xy) >= {vx + vy}", str(w.value(x * y)))
    elif kind == "ultrametric":
        report.fail({"x": x, "y": y}, f"w(x+y) >= {min(vx, vy)}", str(w.value(x + y)))
    else:
        report.fail(
            {"x": x, "y": y},
            f"w(x+y) = min(w(x), w(y)) = {min(vx, vy)} since w(x) != w(y)",
            str(w.value(x + y)),
        )


def instability_witness(w, c, samples):
    """The first sample x with w(c·x) ≠ w(c) + w(x), or None."""
    c = field_element(field_triple(c, w.d), w.d)
    wc = w.value(c)
    for x in samples:
        x = field_element(field_triple(x, w.d), w.d)
        if w.value(c * x) != wc + w.value(x):
            return x
    return None


# ---------------------------------------------------------------------------
# value-monoid witnesses


def value_bound(w, x) -> int:
    """An integer strictly above w(x); only nonzero x is bounded."""
    val = w.value(x)
    if val.is_infinite:
        raise DomainError("w(0) = inf admits no finite bound; x must be nonzero")
    return val.floor() + 1


def graded_base(w) -> tuple[int, int | Fraction]:
    """(g, unit) with w(g^e) = e·unit for every integer e: g is n for the n-adic function,
    else the product of the distinct primes w or a minimum's members extend, at unit 1;
    rescaling scales the unit.  A w or member restricting to no single v_p is refused."""
    if isinstance(w, Scaled):
        g, unit = graded_base(w.inner)
        return g, unit * w.factor
    if isinstance(w, NAdic):
        return w.n, 1
    primes = {extended_prime_of(m) for m in (w.members if isinstance(w, MinOf) else (w,))}
    if None in primes:
        owner = "has a member that restricts" if isinstance(w, MinOf) else "restricts"
        raise DomainError(f"{w} {owner} to no single p-adic valuation")
    return math.prod(primes), 1


def value_witness(w, m):
    """A nonzero element y with w(y) ≥ m, certifying the bound m is attainable:
    g^⌈m/unit⌉ for ``graded_base``'s (g, unit).

    Exists for every rational m under the constructors implemented here,
    which is exactly why none of them induces a discrete topology.
    """
    m = Fraction(m)
    g, unit = graded_base(w)
    return Fraction(g) ** -(-(m.numerator * unit.denominator) // (m.denominator * unit.numerator))
