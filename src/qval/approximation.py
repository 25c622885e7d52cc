"""Constructive simultaneous approximation at finitely many primes.

``rational_approx`` solves the base-field problem: given pairwise distinct
primes p_i, rational targets x_i and integer bounds a_i, it produces one
rational x with v_{p_i}(x − x_i) ≥ a_i for every i.  Denominators are
cleared first — with D the least common denominator of the targets, an
integer y with

    y ≡ D·x_i  (mod p_i^{max(0, a_i + v_{p_i}(D))})

is found by the Chinese Remainder construction, and x = y/D: dividing by D
shifts the i-th valuation down by exactly v_{p_i}(D), which the lifted
exponent accounts for.  Nonpositive lifted exponents impose no congruence.
Problems whose CRT modulus or D would exceed ``MAX_DIGITS`` decimal digits
are refused before anything is solved, so every solution can be printed.

``weak_approx`` lifts this to Q(√d): targets are expanded over the basis
{1, √d} of the intersection ring, each coordinate is approximated
independently at the integer bounds floor(m_i) + 1 (the least integer
strictly above each requested bound), and the assembled element is
re-evaluated against every quasi-valuation — the returned certificates are
checked, not assumed.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, ParseError, PropertyViolation
from .exprparse import MAX_DIGITS, parse_rational
from .primes import int_valuation
from .quadratic import QuadElem
from .quasi import min_extension
from .triples import extended_prime_of, field_element, field_triple, require_extended_prime
from .valuations import require_prime
from .values import Value

FieldTarget = QuadElem | Fraction


@dataclass(frozen=True)
class ApproxTarget:
    """Approximate x to within w_p-value m at the prime p."""

    p: int
    x: FieldTarget
    m: Fraction

    def __post_init__(self):
        require_prime(self.p)
        object.__setattr__(self, "m", Fraction(self.m))


@dataclass(frozen=True)
class Certificate:
    p: int
    achieved: Value
    required: Fraction

    @property
    def satisfied(self) -> bool:
        return self.achieved >= self.required

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "achieved": str(self.achieved),
            "required": str(self.required),
        }


@dataclass(frozen=True)
class ApproxSolution:
    x: QuadElem
    certificates: tuple[Certificate, ...]

    def to_dict(self) -> dict:
        return {
            "x": {"a": str(self.x.a), "b": str(self.x.b)},
            "certificates": [c.to_dict() for c in self.certificates],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _require_distinct_primes(primes) -> None:
    seen = set()
    for p in primes:
        require_prime(p)
        if p in seen:
            raise DomainError(f"primes must be pairwise distinct; {p} repeats")
        seen.add(p)


def crt(residues: list[int], moduli: list[int]) -> int:
    """The canonical solution of y ≡ r_i (mod m_i) for pairwise coprime m_i."""
    total = math.prod(moduli)
    y = 0
    for r, m in zip(residues, moduli):
        if m == 1:
            continue
        rest = total // m
        y += r * rest * pow(rest, -1, m)
    return y % total


def rational_approx(targets) -> Fraction:
    """One rational x with v_{p_i}(x − x_i) ≥ a_i for every target (p_i, x_i, a_i).

    Bounds must be integers; primes must be pairwise distinct.
    """
    targets = [(p, Fraction(x), a) for p, x, a in targets]
    if not targets:
        raise DomainError("at least one target is required")
    _require_distinct_primes(p for p, _, _ in targets)
    for _, _, a in targets:
        if not isinstance(a, int):
            raise DomainError(f"bounds must be integers, got {a!r}")
    if len(targets) == 1:
        return targets[0][1]

    den = math.lcm(*(x.denominator for _, x, _ in targets))
    lifts = [(p, x, a + int_valuation(p, den)) for p, x, a in targets]
    # log10 of the CRT modulus, without forming it
    modulus_digits = sum(lifted * math.log10(p) for p, _, lifted in lifts if lifted > 0)
    if modulus_digits > MAX_DIGITS or den >= 10**MAX_DIGITS:
        raise DomainError(f"the solution would need more than {MAX_DIGITS} digits; "
                          "lower the bounds or simplify the targets")
    residues: list[int] = []
    moduli: list[int] = []
    for p, x, lifted in lifts:
        if lifted <= 0:
            continue
        scaled = x * den  # integral: den clears every target denominator
        residues.append(scaled.numerator % p**lifted)
        moduli.append(p**lifted)
    if not moduli:
        return Fraction(0)
    return Fraction(crt(residues, moduli), den)


def intersection_basis(d: int, qvs) -> tuple[QuadElem, QuadElem]:
    """A basis {1, r} of Q(√d) inside the intersection of the given rings.

    r starts as √d; every implemented extension already gives it value ≥ 0
    (d is an integer), and if a constructor ever valued it negatively, r is
    rescaled by powers of the offending prime until all values clear 0 —
    rational scaling shifts the value by exactly the scaling exponent.
    """
    one = QuadElem(Fraction(1), Fraction(0), d)
    r = QuadElem.root(d)
    for qv in qvs:
        while qv.value(r) < 0:
            deficit = -qv.value(r).finite_part
            r = r * Fraction(require_extended_prime(qv)) ** math.ceil(deficit)
    for qv in qvs:
        if qv.value(one) < 0 or qv.value(r) < 0:
            raise PropertyViolation(f"basis element valued negatively under {qv}")
    return one, r


def weak_approx(d: int, targets, qvs=None) -> ApproxSolution:
    """Solve the simultaneous approximation problem over Q(√d).

    Each target (p_i, x_i, m_i) asks for w_i(x − x_i) ≥ m_i, where w_i is a
    quasi-valuation extending v_{p_i}; by default w_i is the minimum over
    all extensions of v_{p_i} to Q(√d).  The construction approximates each
    coordinate with ``rational_approx`` at bound floor(m_i) + 1 and then
    proves its own output: every certificate is re-evaluated exactly, and
    clears m_i with room to spare (the integer bound is strictly above m_i).
    """
    targets = [t if isinstance(t, ApproxTarget) else ApproxTarget(*t) for t in targets]
    _require_distinct_primes(t.p for t in targets)
    if qvs is None:
        qvs = [min_extension(t.p, d) for t in targets]
    qvs = list(qvs)
    if len(qvs) != len(targets):
        raise DomainError("one quasi-valuation per target is required")
    for t, qv in zip(targets, qvs):
        if extended_prime_of(qv) != t.p:
            raise DomainError(f"{qv} does not extend v_{t.p}")
        if qv.d != d:
            raise DomainError(f"{qv} is not defined on Q(sqrt({d}))")

    alphas = [math.floor(t.m) + 1 for t in targets]
    one, r = intersection_basis(d, qvs)
    scale = r.b  # r = scale·√d with scale a positive rational
    expanded = [field_element(field_triple(t.x, d), d) for t in targets]

    # each coordinate over {1, r} on its own; one target comes back as
    # itself, which achieves value ∞
    d1, d2 = (
        rational_approx([(t.p, c, a) for t, c, a in zip(targets, coords, alphas)])
        for coords in ([x.a for x in expanded], [x.b / scale for x in expanded])
    )
    x = d1 * one + d2 * r

    certificates = []
    for t, qv, target in zip(targets, qvs, expanded):
        achieved = qv.value(x - target)
        certificates.append(Certificate(t.p, achieved, t.m))
    for cert in certificates:
        if not cert.satisfied:
            raise PropertyViolation(
                f"constructed element misses its certificate at p={cert.p}: "
                f"achieved {cert.achieved}, required {cert.required}"
            )
    return ApproxSolution(x, tuple(certificates))


# ---------------------------------------------------------------------------
# problem files: {d, targets: [{p, x: {a, b}, m}]} with "num/den" strings


def _parse_fraction(text) -> Fraction:
    if isinstance(text, (str, int)):
        try:
            return parse_rational(str(text))
        except (ParseError, ValueError):  # ValueError: str() of an int past the limit
            pass
    raise DomainError(f"expected a rational as 'num/den' string, got {text!r}")


def _field(obj, key: str, kind: type = object):
    """obj[key] from a problem file object, checked against kind."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"problem file needs an object with key {key!r}, got {obj!r:.60}")
    if not isinstance(obj[key], kind):
        raise DomainError(f"problem file key {key!r} has the wrong type: {obj[key]!r:.60}")
    return obj[key]


def load_problem(source) -> tuple[int, list[ApproxTarget]]:
    """Read a problem instance from a JSON file path or a parsed dict."""
    if not isinstance(source, dict):
        try:
            source = json.loads(Path(source).read_text())
        except ValueError as exc:  # not UTF-8 JSON, or an integer past the int-string limit
            raise DomainError(str(exc)) from None
    d = _field(source, "d", int)
    targets = []
    for entry in _field(source, "targets", list):
        x = _field(entry, "x")
        x = QuadElem(_parse_fraction(_field(x, "a")), _parse_fraction(_field(x, "b")), d)
        targets.append(ApproxTarget(_field(entry, "p"), x, _parse_fraction(_field(entry, "m"))))
    return d, targets


def dump_problem(d: int, targets) -> dict:
    xs = [field_element(field_triple(t.x, d), d) for t in targets]
    return {
        "d": d,
        "targets": [
            {"p": t.p, "x": {"a": str(x.a), "b": str(x.b)}, "m": str(Fraction(t.m))}
            for t, x in zip(targets, xs)
        ],
    }


def solve_problem_file(source) -> ApproxSolution:
    d, targets = load_problem(source)
    return weak_approx(d, targets)
