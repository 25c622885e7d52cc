"""Integer triples: the one evaluation interface every constructor shares.

An element of Q or Q(√d) is carried as integers x = (A + B·√d)/Q with
Q ≥ 1, not necessarily reduced: a ``QuadElem`` stores its reduced triple,
but the sums and products the batch engine forms stay unreduced
(``reduced`` divides a triple down to its element's one triple).  Every
element enters a field through ``field_triple``, which holds the one rule
(a rational, or an element of that field; nothing else), and
``field_element`` builds the element back from a triple.  Every
constructor subclasses ``QuasiValuation`` and evaluates triples in one
method, ``triple_value(a, b, q)``, which returns w(x)·value_denominator as
an integer, with the sentinel ``INF`` where w(x) = ∞.  The same code runs
on Python ints (one element, exact at any size) and on numpy integer
arrays (int64, or dtype=object holding Python ints); the few operations
whose form differs between the two live in this module.  The base class
derives ``value(x)``, which builds one ``Value`` at the edge.

Where a result may be ∞ it is set by a mask computed from the inputs
(x = 0, or a factor that vanishes), never by comparing a computed value
against the sentinel, so finite values of any size stay exact.

int64 arrays carry entries below ``INT64_LIMIT``, which the batch engine
checks of the triples it forms.  An integer a constructor forms beyond its
input (a norm, A + B·seed, a rescaled value) goes through ``formed``, which
moves just those operands to Python ints where the result could reach it.

On int64 arrays ``multiplicity`` divides nothing (the lowest set bit at
p = 2, a multiply by p⁻¹ mod 2^64 at odd p); on dtype=object arrays it
divides only the entries still divisible.  ``least_multiplicity`` is the
one joint sweep of two arrays: it gives m = min(v_p(x), v_p(y)) and which
of the two is still divisible at m, all a content or a ramified value reads.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DomainError
from .primes import int_valuation
from .quadratic import QuadElem, _elem, _fraction, validate_discriminant
from .values import INFINITY, Value

INF = 1 << 40
# int64 arrays carry only integers below this, so one more sum cannot overflow
INT64_LIMIT = 1 << 62


def field_triple(x, d: int | None) -> tuple[int, int, int]:
    """x as an integer triple over Q (d is None) or over Q(√d): the one way into a field.

    A rational enters either field (a Fraction read as it is, anything else
    through ``_fraction``), and so does a rational QuadElem of any field; a
    QuadElem of Q(√d) enters Q(√d) as its own triple.  Anything else is refused,
    and a rational entering Q(√d) validates d as the public constructor does."""
    if type(x) is Fraction:
        t = x.numerator, 0, x.denominator
    elif isinstance(x, QuadElem):
        if x.d == d:
            return x.A, x.B, x.Q
        if x.B:
            raise DomainError(f"{x} is not rational" if d is None
                              else f"element of Q(sqrt({x.d})) is not in Q(sqrt({d}))")
        t = x.A, 0, x.Q
    else:
        x = _fraction(x)
        t = x.numerator, 0, x.denominator
    if d is not None:
        validate_discriminant(d)
    return t


def field_element(t: tuple[int, int, int], d: int | None):
    """The element with integer triple t (Q ≥ 1) over Q (d is None, B = 0) or over Q(√d),
    where d is already validated: the inverse of ``field_triple``, and the one way
    back from a triple to an element."""
    a, b, q = t
    return Fraction(a, q) if d is None else _elem(a, b, q, d)


def reduced(a: int, b: int, q: int) -> tuple[int, int, int]:
    """The triple (a, b, q), q ≥ 1, divided by gcd(a, b, q): the one triple of its element."""
    g = gcd(a, b, q)
    return (a, b, q) if g == 1 else (a // g, b // g, q // g)


class QuasiValuation:
    """The base of every constructor, valuations included.

    A subclass provides ``d`` (None for Q, else the field is Q(√d)) and
    ``triple_value``, and overrides ``value_denominator`` where its values
    are not all integers.  No field a dataclass subclass declares is given
    a default here: dataclasses read defaults through the class hierarchy.
    """

    value_denominator = 1  # every value times this is an integer

    def triple_value(self, a, b, q):
        """w((a + b·√d)/q)·value_denominator on ints or same-shape arrays, INF for ∞.

        The value may depend only on the element, not on the triple that
        represents it: batch's sums and products and the gauge rows pass
        unreduced triples.
        """
        raise NotImplementedError

    def value(self, x) -> Value:
        """w(x) as a Value: x = 0 is ∞, anything else goes through triple_value."""
        a, b, q = field_triple(x, self.d)
        if a == 0 and b == 0:
            return INFINITY
        return Value(Fraction(self.triple_value(a, b, q), self.value_denominator))


def require_quasi_valuation(w):
    """w itself, or DomainError when w does not subclass ``QuasiValuation``."""
    if not isinstance(w, QuasiValuation):
        raise DomainError(f"{w!r} is not a QuasiValuation subclass instance")
    return w


def multiplicity(x, p: int):
    """Multiplicity of the prime p in x, entrywise for arrays; 0 maps to INF.

    int64 arrays divide nothing.  At p = 2 the multiplicity is the exponent
    of the lowest set bit, x & −x, a power of two that float64 holds
    exactly.  At odd p, with u = |x| read as uint64 and inv = p⁻¹ mod 2^64,
    p divides u exactly when u·inv (mod 2^64) ≤ (2^64 − 1)//p, and then
    u·inv is u/p (Granlund & Montgomery, PLDI 1994): each round is one
    multiply and one compare on the entries still divisible.  inv and the
    bound are uint64 scalars, since uint64 mixed with int64 promotes to
    float64.  dtype=object arrays are swept once with %, and each later
    round divides only the entries still divisible.  Either way the work
    follows the total multiplicity, and x is never written to.
    """
    if not isinstance(x, np.ndarray):
        return int_valuation(p, x) if x else INF
    flat = x.ravel()
    zero = flat == 0
    if x.dtype == object:
        v = np.zeros(flat.shape, dtype=x.dtype)
        at = (~zero & (flat % p == 0)).nonzero()[0]
        cur = flat[at]  # a copy: fancy indexing never returns a view
        while at.size:
            cur //= p
            v[at] += 1
            still = cur % p == 0
            at, cur = at[still], cur[still]
    elif p == 2:
        v = np.frexp(flat & -flat)[1].astype(np.int64) - 1
    else:
        inv, limit = np.uint64(pow(p, -1, 1 << 64)), np.uint64((2**64 - 1) // p)
        v = np.zeros(flat.shape, dtype=np.int64)
        cur = np.abs(flat).view(np.uint64) * inv
        at = (~zero & (cur <= limit)).nonzero()[0]
        cur = cur[at]
        while at.size:
            v[at] += 1
            cur *= inv
            still = cur <= limit
            at, cur = at[still], cur[still]
    v[zero] = INF
    return v.reshape(x.shape)


def least_multiplicity(x, y, p: int):
    """(m, x_past, y_past) for same-shape x and y: m = min(multiplicity(x, p),
    multiplicity(y, p)), INF where both are 0, and x_past (y_past) whether
    multiplicity(x, p) > m, that is, whether x is still divisible at m (0 always is).

    At p = 2, on int64 arrays and Python ints, m is the exponent of the lowest
    set bit lb of x | y, and x & lb is 0 just where x is still divisible.  At
    odd p on int64 one sweep runs ``multiplicity``'s test on both, an entry
    leaves it as soon as either is no longer divisible, and the test at its
    exit gives the two flags.  Otherwise the flags compare two multiplicities.
    """
    if not isinstance(x, np.ndarray) and p == 2:
        either = x | y
        lb = either & -either
        if not lb:
            return INF, False, False
        return int(lb).bit_length() - 1, not x & lb, not y & lb
    if not isinstance(x, np.ndarray) or x.dtype == object:
        vx, vy = multiplicity(x, p), multiplicity(y, p)
        m = minimum(vx, vy)
        return m, vx > m, vy > m
    fx, fy = x.ravel(), y.ravel()
    if p == 2:
        either = fx | fy
        lb = either & -either
        v = np.frexp(lb)[1].astype(np.int64) - 1
        x_past, y_past, zero = (fx & lb) == 0, (fy & lb) == 0, lb == 0
    else:
        inv, limit = np.uint64(pow(p, -1, 1 << 64)), np.uint64((2**64 - 1) // p)
        zero = (fx == 0) & (fy == 0)
        cx, cy = (np.abs(f).view(np.uint64) * inv for f in (fx, fy))
        x_past, y_past = cx <= limit, cy <= limit
        at = (~zero & x_past & y_past).nonzero()[0]
        cx, cy = cx[at], cy[at]
        v = np.zeros(fx.shape, dtype=np.int64)
        while at.size:
            v[at] += 1
            cx *= inv
            cy *= inv
            dx, dy = cx <= limit, cy <= limit
            x_past[at], y_past[at] = dx, dy
            still = dx & dy
            at, cx, cy = at[still], cx[still], cy[still]
    v[zero] = INF
    return v.reshape(x.shape), x_past.reshape(x.shape), y_past.reshape(x.shape)


def minimum(x, y):
    return np.minimum(x, y) if isinstance(x, np.ndarray) else min(x, y)


def clamp_inf(values, mask):
    """values with INF wherever mask holds."""
    if isinstance(values, np.ndarray):
        return np.where(mask, INF, values)
    return INF if mask else values


def formed(form, *operands, bound=None):
    """form(*operands), on Python ints where an integer it forms could reach INT64_LIMIT.

    Same-shape int64 arrays move to dtype=object when bound (by default form,
    which serves a form that only adds and multiplies by nonnegative
    constants) of their largest magnitudes, as Python ints, reaches the limit.
    Each magnitude counts as at least 1, so the bound also covers every
    constant in the form: an int64 array never meets a Python int it cannot
    hold, which numpy 2 refuses with OverflowError even where it multiplies 0.
    """
    first = operands[0]
    if isinstance(first, np.ndarray) and first.dtype != object and first.size:
        if (bound or form)(*(max(1, int(abs(x).max())) for x in operands)) >= INT64_LIMIT:
            operands = (x.astype(object) for x in operands)
    return form(*operands)


def norm_form(a, b, d: int):
    """a² − d·b², sized by ``formed``."""
    return formed(lambda a, b: a * a - d * b * b, a, b,
                  bound=lambda a, b: a * a + abs(d) * b * b)


def times(values, factor: int, zero):
    """values·factor for an integer factor ≥ 1, sized by ``formed``; values at factor 1.

    The entries at x = 0 (where zero holds), whose INF every caller sets
    again, are left out of the sizing."""
    if factor != 1:
        finite = np.where(zero, 0, values) if isinstance(values, np.ndarray) else values
        values = formed(lambda v: v * factor, finite)
    return values


def patch(values, mask, fn, *coords):
    """values with fn(*coords) where mask holds (arrays in place; fn sees those entries only)."""
    if not isinstance(values, np.ndarray):
        return fn(*coords) if mask else values
    at = mask.ravel().nonzero()[0]
    if at.size:
        values.put(at, fn(*(c.take(at) for c in coords)))
    return values
