import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.errors import DomainError
from qval.quadratic import QuadElem, is_squarefree, validate_discriminant
from qval.qvspec import parse_qv
from qval.triples import field_element, field_triple
from qval.valuations import PAdicValuation, hensel_sqrt
from qval.values import Value

DS = (-1, 2, 5, -7)


def q(a, b, d):
    return QuadElem(Fraction(a), Fraction(b), d)


coeffs = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def elements(d):
    return st.builds(lambda a, b: QuadElem(a, b, d), coeffs, coeffs)


def test_squarefree():
    assert is_squarefree(2)
    assert is_squarefree(-7)
    assert is_squarefree(30)
    assert not is_squarefree(4)
    assert not is_squarefree(12)
    assert not is_squarefree(-18)
    assert not is_squarefree(0)
    assert is_squarefree(1000000016000000063)  # 1000000007 * 1000000009
    assert not is_squarefree(-2 * 1000000007**2)


def test_discriminant_cache_is_bounded():
    bound = is_squarefree.cache_info().maxsize
    assert bound is not None
    for d in range(-bound - 10, bound + 10):  # 2·bound + 20 distinct d
        try:
            QuadElem(1, 1, d)
        except DomainError:
            pass
    assert is_squarefree.cache_info().currsize <= bound


def test_invalid_discriminants_rejected():
    for bad in (0, 1, 4, 9, 12, -4):
        with pytest.raises(DomainError):
            QuadElem(Fraction(1), Fraction(1), bad)


def test_addition_examples():
    assert q(1, 2, 5) + q(3, -2, 5) == q(4, 0, 5)
    x = q(Fraction(7, 3), Fraction(-2, 5), 2)
    assert x + 0 == x
    assert q("1/2", "1/3", 5) + q("1/2", "2/3", 5) == q(1, 1, 5)


def test_mismatched_d_is_an_error():
    with pytest.raises(DomainError):
        q(1, 1, 2) + q(1, 1, 5)
    with pytest.raises(DomainError):
        q(0, 1, 2) * q(0, 1, 3)


def test_multiplication_examples():
    root5 = QuadElem.root(5)
    assert root5 * root5 == 5
    x = q(3, 4, 5)
    assert x * 1 == x
    assert q(1, 1, 2) * q(1, -1, 2) == -1


def test_inverse_examples():
    assert QuadElem.from_rational(2, 2).inverse() == Fraction(1, 2)
    assert q(1, 1, 2).inverse() == q(-1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        q(0, 0, 2).inverse()


def test_norm_examples():
    assert q(3, 0, 5).norm() == 9
    assert QuadElem.root(2).norm() == -2
    assert QuadElem.root(-7).norm() == 7


def test_rational_interop():
    x = q("1/2", 0, 2)
    assert x == Fraction(1, 2)
    assert x.is_rational
    assert hash(x) == hash(Fraction(1, 2))
    assert 1 / q(1, 1, 2) == q(-1, 1, 2)
    assert 3 - q(1, 1, 2) == q(2, -1, 2)


def test_powers():
    x = q(1, 1, 2)
    assert x**0 == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


@settings(max_examples=60)
@given(x=elements(2), y=elements(2), z=elements(2))
def test_field_axioms_exact(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if x:
        assert x * x.inverse() == 1


@settings(max_examples=60)
@given(x=elements(-7), y=elements(-7))
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("d", DS)
def test_norm_zero_iff_zero(d):
    # needs d squarefree and not 0 or 1, else sqrt(d) would be rational
    for a in range(-6, 7):
        for b in range(-6, 7):
            x = q(Fraction(a, 3), Fraction(b, 2), d)
            assert (x.norm() == 0) == (not x)


@settings(max_examples=40)
@given(x=elements(5))
def test_inverse_involution(x):
    if x:
        assert x.inverse().inverse() == x


def test_conjugate():
    x = q("3/4", "5/6", -1)
    assert x.conjugate() == q("3/4", "-5/6", -1)
    assert x * x.conjugate() == x.norm()


class _Half(Fraction):
    pass


def test_field_triple_reads_a_fraction_as_it_is():
    x = Fraction(3 * 10**30, 6 * 10**30 + 3)
    t = field_triple(x, None)
    assert t == (x.numerator, 0, x.denominator) and t[0] is x.numerator and t[2] is x.denominator
    for y in (_Half(1, 2), 1, "1/2", q("1/2", 0, 5)):
        assert all(type(c) is int for c in field_triple(y, None))
    assert field_triple(_Half(1, 2), None) == (1, 0, 2) and field_triple(7, None) == (7, 0, 1)
    with pytest.raises(DomainError, match="is not rational"):
        field_triple(q(1, 1, 5), None)


@settings(max_examples=100, deadline=None)
@given(coeffs, st.sampled_from(DS))
def test_field_triple_matches_the_public_constructor(r, d):
    for x in (r, _Half(r), r.numerator if r.denominator == 1 else r,
              QuadElem(r, 0, 3 if d == 2 else 2)):
        y, z = field_element(field_triple(x, d), d), QuadElem.from_rational(Fraction(r), d)
        assert field_triple(x, d) == (z.A, z.B, z.Q)
        assert type(y) is QuadElem and y == z and (y.A, y.B, y.Q, y.d) == (z.A, z.B, z.Q, z.d)


def test_field_triple_refuses_what_the_public_constructor_refuses():
    for x in (Fraction(1, 2), 3, QuadElem(Fraction(1, 2), 0, 2)):
        for bad in (0, 1, 4, -12):
            with pytest.raises(DomainError) as expected:
                QuadElem.from_rational(field_element(field_triple(x, None), None), bad)
            with pytest.raises(DomainError) as got:
                field_triple(x, bad)
            assert str(got.value) == str(expected.value)
    with pytest.raises(DomainError, match=r"not in Q\(sqrt\(5\)\)"):
        field_triple(QuadElem(1, 1, 2), 5)
    with pytest.raises(ValueError):
        field_triple("one", 5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numpy_integers_enter_a_field_as_python_ints():
    # Fraction(np.int64(a)) keeps the int64 as its numerator, whose arithmetic wraps
    a = -hensel_sqrt(7, 2, 20, 1) % 7**20  # a + √2 lies 20 digits deep under split1
    x = QuadElem(np.int64(a), np.int64(1), 2)
    assert all(type(c) is int for c in (x.A, x.B, x.Q))
    w = parse_qv("split1:7,d=2")
    assert w.value(x) == w.value(QuadElem(a, 1, 2)) == Value(20)
    assert all(type(c) is int for c in field_triple(np.int64(3), None))
    assert PAdicValuation(2).value(np.int64(2**62)) == Value(62)


# ---------------------------------------------------------------------------
# differential tests: QuadElem against the Fraction-pair class it replaced


@dataclass(frozen=True)
class _FractionPair:
    """Reference: a + b·√d stored as two Fractions, every result re-wrapped
    and re-validated (the representation QuadElem had before it stored its
    reduced integer triple)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        validate_discriminant(self.d)

    def _coerce(self, other):
        if isinstance(other, _FractionPair):
            if other.d != self.d:
                raise DomainError("mismatched d")
            return other
        if isinstance(other, (int, Fraction)):
            return _FractionPair(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return _FractionPair(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _FractionPair(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        return _FractionPair(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        return _FractionPair(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return _FractionPair(self.a, -self.b, self.d)

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(d)) has no inverse")
        return _FractionPair(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _FractionPair(Fraction(1), Fraction(0), self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, _FractionPair):
            if other.d != self.d:
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        b_part = f"{abs(self.b)}*{root}"
        if self.a == 0:
            return b_part if self.b > 0 else f"-{b_part}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {b_part}"

    def __repr__(self):
        return f"QuadElem({self.a!r}, {self.b!r}, d={self.d})"


DIFF_DS = (-7, -1, 2, 5)
BIG = 2**200

big_fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
diff_coeffs = st.one_of(st.just(Fraction(0)), small_fractions, big_fractions)
rational_operands = st.one_of(st.integers(-BIG, BIG), diff_coeffs)


@st.composite
def element_pairs(draw, d=None):
    """(QuadElem, _FractionPair) built from the same coefficients."""
    if d is None:
        d = draw(st.sampled_from(DIFF_DS))
    a = draw(diff_coeffs)
    b = draw(st.one_of(st.just(Fraction(0)), diff_coeffs))
    return QuadElem(a, b, d), _FractionPair(a, b, d)


def _agree(new, old):
    """new is old in the stored-triple representation."""
    assert isinstance(new, QuadElem)
    assert (new.a, new.b, new.d) == (old.a, old.b, old.d)
    assert type(new.a) is Fraction and type(new.b) is Fraction
    assert new.Q >= 1 and gcd(new.A, new.B, new.Q) == 1
    assert (Fraction(new.A, new.Q), Fraction(new.B, new.Q)) == (new.a, new.b)
    assert str(new) == str(old) and repr(new) == repr(old)
    assert hash(new) == hash(old)


def _outcome(op, *args):
    """op(*args), or ZeroDivisionError if that is what it raised."""
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return type(exc)


@settings(max_examples=150)
@given(data=st.data())
def test_arithmetic_matches_the_fraction_pair_class(data):
    d = data.draw(st.sampled_from(DIFF_DS))
    x, rx = data.draw(element_pairs(d))
    y, ry = data.draw(element_pairs(d))
    r = data.draw(rational_operands)
    e = data.draw(st.integers(-4, 4))
    _agree(x, rx)
    cases = [
        (lambda u, v: u + v, (x, y), (rx, ry)),
        (lambda u, v: u - v, (x, y), (rx, ry)),
        (lambda u, v: u * v, (x, y), (rx, ry)),
        (lambda u, v: u / v, (x, y), (rx, ry)),
        (lambda u: u ** e, (x,), (rx,)),
        (lambda u: -u, (x,), (rx,)),
        (lambda u: u.conjugate(), (x,), (rx,)),
        (lambda u: u.inverse(), (x,), (rx,)),
        # a plain int or Fraction on either side
        (lambda u: u + r, (x,), (rx,)),
        (lambda u: r + u, (x,), (rx,)),
        (lambda u: u - r, (x,), (rx,)),
        (lambda u: r - u, (x,), (rx,)),
        (lambda u: u * r, (x,), (rx,)),
        (lambda u: r * u, (x,), (rx,)),
        (lambda u: u / r, (x,), (rx,)),
        (lambda u: r / u, (x,), (rx,)),
    ]
    for op, new_args, old_args in cases:
        new, old = _outcome(op, *new_args), _outcome(op, *old_args)
        if old is ZeroDivisionError:
            assert new is ZeroDivisionError
        else:
            _agree(new, old)
    norm = x.norm()
    assert type(norm) is Fraction and norm == rx.norm()
    assert bool(x) == bool(rx.a or rx.b)


@settings(max_examples=150)
@given(pair=element_pairs(), other=element_pairs(), r=rational_operands)
def test_equality_and_hash_match_the_fraction_pair_class(pair, other, r):
    (x, rx), (y, ry) = pair, other  # y may live in another field
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    for n in (r, x.A, x.B, x.Q, Fraction(x.A, x.Q + 1)):  # x.A = 3 with x = 3/2 is no match
        assert (x == n) == (rx == n) and (n == x) == (n == rx)
    if x.is_rational:
        a = x.a
        assert x == a and a == x and hash(x) == hash(a)
        if a.denominator == 1:
            assert x == int(a) and hash(x) == hash(int(a))
        for d in DIFF_DS:
            same = QuadElem(a, 0, d)
            assert same == x and x == same and hash(same) == hash(x)
            assert (QuadElem(x.A, 0, d) == x) == (x.Q == 1)
    else:
        assert x != x.a and x.conjugate() != x


@settings(max_examples=40)
@given(pair=element_pairs())
def test_elements_are_frozen_and_round_trip(pair):
    x, _ = pair
    for name in ("a", "b", "d", "A", "B", "Q", "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is QuadElem and y == x and hash(y) == hash(x)
        assert (y.A, y.B, y.Q, y.d) == (x.A, x.B, x.Q, x.d)
        assert str(y) == str(x) and repr(y) == repr(x)


def test_public_constructor_accepts_what_fraction_accepts():
    assert QuadElem("3/6", 2.5, 5) == QuadElem(Fraction(1, 2), Fraction(5, 2), 5)
    y = QuadElem("-4/6", "10/4", 2)  # -2/3 + 5/2·√2 = (-4 + 15√2)/6
    assert (y.A, y.B, y.Q) == (-4, 15, 6)
    assert QuadElem(a=1, b=2, d=-1) == QuadElem(1, 2, -1)
    x = QuadElem(0, 0, 5)
    assert (x.A, x.B, x.Q) == (0, 0, 1) and not x
    with pytest.raises(DomainError):
        QuadElem(1, 0, 4)
    with pytest.raises(ValueError):
        QuadElem("one", 0, 5)
