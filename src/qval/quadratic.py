"""Exact arithmetic in Q and in quadratic extensions Q(√d).

Rationals are plain :class:`fractions.Fraction` values — the stdlib type
already guarantees the canonical form this package relies on (reduced,
positive denominator, zero stored as 0/1).  ``QuadElem`` adds the quadratic
layer: an element a + b·√d with exact rational coefficients and a squarefree
integer d ∉ {0, 1}, so that √d is genuinely irrational and [Q(√d):Q] = 2.

All operations are exact; nothing in this module rounds.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .primes import factorize

Rational = Fraction


# cached (and bounded) because every QuadElem construction validates its d
@lru_cache(maxsize=4096)
def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n = 0 counts as not squarefree).

    Raises DomainError for |n| at or above ``primes.DETERMINISTIC_PRIMALITY_BOUND``.
    """
    n = abs(n)
    if n < 2:
        return n == 1
    return all(e == 1 for _, e in factorize(n))


def validate_discriminant(d: int) -> int:
    """Check that d defines a proper quadratic extension Q(√d)."""
    if not isinstance(d, int) or d in (0, 1):
        raise DomainError(f"d must be a squarefree integer other than 0 and 1, got {d!r}")
    if not is_squarefree(d):
        raise DomainError(f"d must be squarefree, got {d}")
    return d


@dataclass(frozen=True)
class QuadElem:
    """An element a + b·√d of Q(√d), with exact coefficients."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        validate_discriminant(self.d)

    @classmethod
    def root(cls, d: int) -> "QuadElem":
        """The generator √d itself."""
        return cls(Fraction(0), Fraction(1), d)

    @classmethod
    def from_rational(cls, q, d: int) -> "QuadElem":
        return cls(Fraction(q), Fraction(0), d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise DomainError(
                    f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem.from_rational(other, self.d)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElem(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """The field norm down to Q: (a + b√d)(a − b√d) = a² − b²·d."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(d)) has no inverse")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QuadElem":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadElem.from_rational(1, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElem):
            if other.d != self.d:
                # equal only if both are the same rational
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)  # agree with the embedded rational
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        # canonical, re-parseable: "a + b*sqrt(d)" with signs folded in
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        b_part = f"{abs(self.b)}*{root}"
        if self.a == 0:
            return b_part if self.b > 0 else f"-{b_part}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {b_part}"

    def __repr__(self) -> str:
        return f"QuadElem({self.a!r}, {self.b!r}, d={self.d})"


FieldElement = QuadElem | Fraction


def as_quad(x, d: int) -> QuadElem:
    """Coerce a rational or a matching QuadElem into Q(√d)."""
    if isinstance(x, QuadElem):
        if x.d != d:
            if x.is_rational:
                return QuadElem.from_rational(x.a, d)
            raise DomainError(f"element of Q(sqrt({x.d})) is not in Q(sqrt({d}))")
        return x
    return QuadElem.from_rational(Fraction(x), d)


def as_rational(x) -> Fraction:
    """Coerce a rational or a rational QuadElem into Q."""
    if isinstance(x, QuadElem):
        if not x.is_rational:
            raise DomainError(f"{x} is not rational")
        return x.a
    return Fraction(x)
