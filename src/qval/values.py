"""The value monoid Q ∪ {∞}.

Every value group or monoid produced by this package (integers for p-adic
valuations, half-integers for ramified extensions, their minima and
positive rescalings) embeds in the rationals, so a single exact carrier
suffices: a ``Value`` is either a finite ``Fraction`` or the absorbing top
element ``INFINITY``.
"""

import math
import operator
from fractions import Fraction


def _compared_by_key(op):
    """A ``Value`` comparison: op on the ``_cmp_key`` of both sides, an int
    or Fraction on the right taken as a finite value."""
    def compare(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self._cmp_key(), other._cmp_key())
    return compare


class Value:
    """An exact rational value or infinity, totally ordered.

    Addition treats infinity as absorbing; scaling by a positive rational
    fixes infinity.  Comparisons accept plain ints and Fractions so call
    sites can write ``w.value(x) >= 0``.
    """

    __slots__ = ("_q",)

    def __init__(self, q: Fraction | int | None):
        self._q = None if q is None else Fraction(q)

    @property
    def is_infinite(self) -> bool:
        return self._q is None

    @property
    def finite_part(self) -> Fraction:
        if self._q is None:
            raise ValueError("infinite value has no finite part")
        return self._q

    def floor(self) -> int:
        return math.floor(self.finite_part)

    def __add__(self, other) -> "Value":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._q is None or other._q is None:
            return INFINITY
        return Value(self._q + other._q)

    __radd__ = __add__

    def __sub__(self, other) -> "Value":
        """Subtract a *finite* rational; infinity stays infinite."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._q is None:
            raise ValueError("cannot subtract an infinite value")
        if self._q is None:
            return INFINITY
        return Value(self._q - other._q)

    def _cmp_key(self):
        # (0, q) < (1, 0): every finite value precedes infinity
        return (1, Fraction(0)) if self._q is None else (0, self._q)

    __eq__ = _compared_by_key(operator.eq)
    __lt__ = _compared_by_key(operator.lt)
    __le__ = _compared_by_key(operator.le)
    __gt__ = _compared_by_key(operator.gt)
    __ge__ = _compared_by_key(operator.ge)

    def __hash__(self) -> int:
        # a finite value hashes as the Fraction it equals, so as equal ints do
        return hash(self._q)

    def __str__(self) -> str:
        return "inf" if self._q is None else str(self._q)

    def __repr__(self) -> str:
        return f"Value({self})"


INFINITY = Value(None)


def _coerce(x) -> "Value":
    if isinstance(x, Value):
        return x
    if isinstance(x, (int, Fraction)):
        return Value(x)
    return NotImplemented
