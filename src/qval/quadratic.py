"""Exact arithmetic in Q and in quadratic extensions Q(√d).

Rationals are plain :class:`fractions.Fraction` values — the stdlib type
already guarantees the canonical form this package relies on (reduced,
positive denominator, zero stored as 0/1).  ``QuadElem`` adds the quadratic
layer: an element a + b·√d of Q(√d) for a squarefree integer d ∉ {0, 1}, so
that √d is genuinely irrational and [Q(√d):Q] = 2.

A ``QuadElem`` stores the integer triple the evaluation code works on,
x = (A + B·√d)/Q, reduced: Q ≥ 1 and gcd(A, B, Q) = 1.  The form is
canonical, so equality compares integers, and field arithmetic runs on
Python ints: each result is reduced by one gcd and built without Fractions
and without re-checking d, which its operands already carry validated.
Only the public constructor ``QuadElem(a, b, d)`` takes outside input; it
accepts anything ``Fraction()`` does, an integer (a numpy one too) read as
an int, and validates d.  An element enters a field's evaluation through
``triples.field_triple``.

All operations are exact; nothing in this module rounds.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

from .errors import DomainError
from .primes import factorize

Rational = Fraction


# cached (and bounded) because every public QuadElem construction validates its d
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


def _fraction(x) -> Fraction:
    """Fraction(x) on Python ints: an integer, which ``Fraction()`` would keep, enters as an int."""
    return Fraction(index(x) if hasattr(x, "__index__") else x)


class QuadElem:
    """An element a + b·√d of Q(√d), stored as its reduced integer triple.

    x = (A + B·√d)/Q with Q ≥ 1 and gcd(A, B, Q) = 1, so every element has
    exactly one triple and equality compares integers.  ``A``, ``B``, ``Q``
    and ``d`` are read-only attributes; ``a`` and ``b`` give the rational
    coefficients as Fractions.
    """

    __slots__ = ("A", "B", "Q", "d")

    def __init__(self, a, b, d: int):
        a, b = _fraction(a), _fraction(b)
        validate_discriminant(d)
        # both fractions are reduced, so the triple over their lcm is too
        q = lcm(a.denominator, b.denominator)
        _set_a(self, a.numerator * (q // a.denominator))
        _set_b(self, b.numerator * (q // b.denominator))
        _set_q(self, q)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuadElem, (self.a, self.b, self.d)

    @classmethod
    def root(cls, d: int) -> "QuadElem":
        """The generator √d itself."""
        return cls(0, 1, d)

    @classmethod
    def from_rational(cls, q, d: int) -> "QuadElem":
        return cls(q, 0, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.Q)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise DomainError(
                    f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, int):
            return _elem(other, 0, 1, self.d)
        if isinstance(other, Fraction):
            return _elem(other.numerator, 0, other.denominator, self.d)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.Q, other.Q
        return _elem(self.A * r + other.A * q, self.B * r + other.B * q, q * r, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return _elem(-self.A, -self.B, self.Q, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.Q, other.Q
        return _elem(self.A * r - other.A * q, self.B * r - other.B * q, q * r, self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.A, self.B, other.A, other.B
        return _elem(a * c + b * e * self.d, a * e + b * c, self.Q * other.Q, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return _elem(self.A, -self.B, self.Q, self.d)

    def norm(self) -> Fraction:
        """The field norm down to Q: (a + b√d)(a − b√d) = a² − b²·d."""
        return Fraction(self.A * self.A - self.B * self.B * self.d, self.Q * self.Q)

    def inverse(self) -> "QuadElem":
        # 1/x = Q·(A − B√d) / (A² − B²d), the denominator made positive
        a, b, q = self.A, self.B, self.Q
        n = a * a - b * b * self.d
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(d)) has no inverse")
        if n < 0:
            a, b, n = -a, -b, -n
        return _elem(q * a, -q * b, n, self.d)

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
        result = _elem(1, 0, 1, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return self.A != 0 or self.B != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElem):
            if other.d != self.d:
                # equal only if both are the same rational
                return self.B == 0 and other.B == 0 and self.A == other.A and self.Q == other.Q
            return self.A == other.A and self.B == other.B and self.Q == other.Q
        if isinstance(other, int):
            return self.B == 0 and self.Q == 1 and self.A == other
        if isinstance(other, Fraction):
            return self.B == 0 and self.A == other.numerator and self.Q == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self.B == 0:
            return hash(self.a)  # agree with the embedded rational
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        # canonical, re-parseable: "a + b*sqrt(d)" with signs folded in
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = f"sqrt({self.d})"
        b_part = f"{abs(b)}*{root}"
        if a == 0:
            return b_part if b > 0 else f"-{b_part}"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {b_part}"

    def __repr__(self) -> str:
        return f"QuadElem({self.a!r}, {self.b!r}, d={self.d})"


_new = object.__new__
_set_a, _set_b, _set_q, _set_d = (getattr(QuadElem, name).__set__ for name in QuadElem.__slots__)


def _elem(a: int, b: int, q: int, d: int) -> QuadElem:
    """(a + b·√d)/q in lowest terms, for q ≥ 1 and a d that an operand
    already validated: no Fraction and no discriminant check."""
    g = gcd(a, b, q)
    if g != 1:
        a, b, q = a // g, b // g, q // g
    x = _new(QuadElem)
    _set_a(x, a)
    _set_b(x, b)
    _set_q(x, q)
    _set_d(x, d)
    return x
