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

Every constructor reads p-adic multiplicities through ``multiplicity``,
which runs every array but int64 at p = 2 through one floor-residue loop
(``residue``).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index

import numpy as np

from .errors import DomainError
from .primes import int_valuation
from .quadratic import QuadElem, _elem, _fraction, validate_discriminant
from .values import INFINITY, Value

INF = 1 << 40
# int64 arrays carry only integers below this, so one more sum cannot overflow
INT64_LIMIT = 1 << 62
# array multiplicities read p^k digits per lookup for the largest p^k within
# this span (see ``multiplicity``)
_RESIDUE_SPAN = 4096


def field_triple(x, d: int | None) -> tuple[int, int, int]:
    """x as an integer triple over Q (d is None) or over Q(√d): the one way into a field.

    A rational enters either field (a Fraction's parts as Python ints, anything
    else through ``_fraction``), and so does a rational QuadElem of any field; a
    QuadElem of Q(√d) enters Q(√d) as its own triple.  Anything else is refused,
    and a rational entering Q(√d) validates d as the public constructor does."""
    if type(x) is Fraction:  # whose parts may be numpy integers
        t = index(x.numerator), 0, index(x.denominator)
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
    are not all integers.  It may declare ``extended_prime``, the p with
    w|_Q = v_p; left out, w restricts to no single v_p (``extended_prime_of``).
    No default is given here: dataclasses read defaults through the class
    hierarchy, so a subclass field of that name would inherit it.
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


def extended_prime_of(w) -> int | None:
    """The p with w|_Q = v_p that w declares, or None where it declares none."""
    return getattr(w, "extended_prime", None)


def require_extended_prime(w) -> int:
    """``extended_prime_of(w)``, or DomainError where w declares none."""
    p = extended_prime_of(w)
    if p is None:
        raise DomainError(f"{w} does not restrict to a single p-adic valuation on Q; "
                          "this operation needs a declared base prime")
    return p


@lru_cache(maxsize=16)
def _residue_table(p: int):
    """(M, t) for a prime p, t a read-only int64 array shared by every call at p.

    Within the span, M = p^k for the largest k with p^k ≤ _RESIDUE_SPAN and
    t[r] = min(v_p(r), k) for 0 ≤ r < M (t[0] = k): at most _RESIDUE_SPAN
    entries.  Past it, M = p and t = [1, 0], read with indices clipped to 1, so
    t[r] = min(v_p(r), 1) there too: one digit per round.
    """
    m, k = p, 1
    while m * p <= _RESIDUE_SPAN:
        m, k = m * p, k + 1
    t = np.zeros(m if p <= _RESIDUE_SPAN else 2, dtype=np.int64)
    for j in range(1, k + 1):
        t[::p**j] += 1
    t.flags.writeable = False
    return m, t


def multiplicity(x, p: int):
    """Multiplicity of the prime p in x, entrywise for arrays; 0 maps to INF.

    The one p-adic kernel every constructor reads.  Each path returns x's
    dtype and never writes to x:

    * a Python int goes to ``int_valuation``.
    * an int64 array at p = 2 reads the exponent of the lowest set bit,
      x & −x, a power of two that float64 holds exactly.
    * every other array, int64 or dtype=object at any p, runs one loop over
      (M, t) = ``_residue_table(p)``: the floor residue r = ``residue(x, M)``
      lies in [0, M), v_p(M − s) = v_p(s) for 0 < s < M, so t[r] =
      min(v_p(x), k) and a negative x reads as |x|.  Only entries with r = 0
      go on, with their quotient x/M; the zeros among them (quotient 0) are
      INF.  An int64 array at p > 2^63 − 1, where ⌊x/M⌋ would overflow, is
      INF at 0 and 0 elsewhere.
    """
    if not isinstance(x, np.ndarray):
        return int_valuation(p, x) if x else INF
    flat = x.ravel()
    wide = x.dtype == object
    if not wide and p == 2:
        v = np.frexp(flat & -flat)[1].astype(np.int64) - 1
        v[flat == 0] = INF
        return v.reshape(x.shape)
    if not wide and p >= 2**63:  # no nonzero int64 entry is divisible
        return np.where(x == 0, INF, 0)
    m, t = _residue_table(p)

    def digits(r):  # a dtype=object residue passes int64 only past the span, where t has 2 entries
        return t.take(np.minimum(r, t.size - 1).astype(np.int64) if wide else r, mode="clip")

    r = residue(flat, m)
    v = digits(r)
    if wide:
        v = v.astype(object)
    at = (r == 0).nonzero()[0]
    if at.size:
        cur = flat.take(at) // m
        zero = cur == 0  # x = 0; any other saturated x has |x| ≥ M
        v[at[zero]] = INF
        at, cur = at[~zero], cur[~zero]
        while at.size:
            r = residue(cur, m)
            v[at] += digits(r)
            still = r == 0
            at, cur = at[still], cur[still] // m
    return v.reshape(x.shape)


def residue(x, m: int):
    """The floor residue of x mod m ≥ 1, in [0, m), on ints or arrays.

    One % per entry, except on int64, where x − ⌊x/m⌋·m costs about a
    quarter of numpy's %; at x = −2^63 the product wraps, and the difference
    wraps back.
    """
    if isinstance(x, np.ndarray) and x.dtype != object:
        return x - x // m * m
    return x % m


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
