import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.errors import DomainError
from qval.quadratic import QuadElem
from qval.quasi import (
    MinOf,
    NAdic,
    Scaled,
    check_axioms,
    instability_witness,
    min_extension,
    n_adic,
    n_adic_decomposition,
    value_bound,
    value_witness,
)
from qval.sampling import elements_for, quad_elements, rationals
from qval.topology import QVRing
from qval.triples import QuasiValuation
from qval.valuations import PAdicValuation, extensions_of, hensel_sqrt, v_p
from qval.values import INFINITY, Value

V23 = MinOf((PAdicValuation(2), PAdicValuation(3)))


def test_min_eval_examples():
    assert V23.value(6) == Value(1)
    assert V23.value(2) == Value(0)
    assert V23.value(0) == INFINITY


def test_strict_superadditivity_witness():
    # min(v2, v3) jumps at 6 = 2*3: a quasi-valuation that is no valuation
    assert V23.value(6) == Value(1)
    assert V23.value(2) + V23.value(3) == Value(0)
    assert V23.value(6) > V23.value(2) + V23.value(3)


def test_minof_validation():
    with pytest.raises(DomainError):
        MinOf(())
    with pytest.raises(DomainError):
        MinOf((extensions_of(7, 2)[0], extensions_of(11, 5)[0]))
    with pytest.raises(DomainError):
        MinOf((PAdicValuation(2), extensions_of(7, 2)[0]))


@pytest.mark.parametrize("build", [lambda: Scaled(object(), 2), lambda: MinOf([object()]),
                                   lambda: MinOf([PAdicValuation(2), object()])])
def test_constructors_refuse_foreign_parts(build):
    with pytest.raises(DomainError, match="is not a QuasiValuation subclass instance"):
        build()


def test_minof_base_prime_detection():
    u1, u2 = extensions_of(7, 2)
    assert MinOf((u1, u2)).extended_prime == 7
    assert V23.extended_prime is None
    assert Scaled(V23, 1).extended_prime is None
    assert Scaled(MinOf((u1, u2)), 1).extended_prime == 7
    assert Scaled(MinOf((u1, u2)), 2).extended_prime is None
    assert NAdic(3).extended_prime == 3
    assert NAdic(12).extended_prime is None


def test_minof_restricted_to_q_is_v_p():
    rng = random.Random(1)
    w = min_extension(7, 2)
    for a in rationals(rng, 100):
        assert w.value(QuadElem(a, Fraction(0), 2)) == v_p(7, a)


def test_n_adic_examples():
    assert n_adic(4, 2) == Value(0)
    assert n_adic_decomposition(4, 2) == 0
    assert n_adic(12, Fraction(144, 5)) == Value(2)
    assert n_adic_decomposition(12, Fraction(144, 5)) == 2
    assert n_adic(12, 0) == INFINITY
    assert n_adic(4, Fraction(1, 2)) == Value(-1)
    assert n_adic(2, 8) == Value(3)


def test_n_adic_validation():
    with pytest.raises(DomainError):
        n_adic(1, 5)
    with pytest.raises(DomainError):
        NAdic(1)
    with pytest.raises(DomainError):
        NAdic(0)
    # square factors in n are fine
    assert NAdic(4).value(8) == Value(1)


@settings(max_examples=300)
@given(
    num=st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
    den=st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
    n=st.sampled_from((2, 3, 4, 6, 12)),
)
def test_n_adic_closed_form_matches_decomposition(num, den, n):
    x = Fraction(num, den)
    assert n_adic(n, x) == Value(n_adic_decomposition(n, x))


def test_check_axioms_passes_for_constructors():
    rng = random.Random(7)
    for w in (V23, NAdic(12), min_extension(7, 2), Scaled(min_extension(3, -1), Fraction(1, 2))):
        samples = elements_for(w, rng, 40)
        report = check_axioms(w, samples, seed=7)
        assert report.passed, report.to_json()
        assert report.instances > 0


def test_check_axioms_spec_sample_set():
    samples = [0, 1, -1, 2, -2, 3, 6, Fraction(1, 6), Fraction(5, 4)]
    assert check_axioms(V23, samples).passed


class _SignFlipped(QuasiValuation):
    """v_2 corrupted at a single input; the harness must catch it."""

    d = None
    base_primes = frozenset((2,))
    extended_prime = 2

    def triple_value(self, a, b, q):
        v = PAdicValuation(2).triple_value(a, b, q)
        return v - 2 * v * (a == 4 * q)  # negated exactly at x = a/q = 4

    def __str__(self):
        return "corrupted-v2"


def test_check_axioms_catches_corruption():
    report = check_axioms(_SignFlipped(), [0, 1, 2, 3, 4, 6, 8])
    assert not report.passed
    assert report.failures
    failure = report.failures[0].to_dict()
    assert set(failure) == {"inputs", "expected", "got"}
    # samples may come from any iterable, failures included
    assert check_axioms(_SignFlipped(), iter([0, 1, 2, 3, 4, 6, 8])).to_dict() == report.to_dict()


def test_stability_of_rationals():
    rng = random.Random(9)
    for w in (min_extension(7, 2), min_extension(2, -7), extensions_of(2, 2)[0]):
        samples = quad_elements(rng, w.d, 60)
        assert instability_witness(w, Fraction(3, 7), samples) is None
        assert instability_witness(w, 0, samples) is None
        assert instability_witness(w, QuadElem.root(w.d), samples) is None


def test_zero_is_stable():
    rng = random.Random(10)
    samples = rationals(rng, 30)
    assert instability_witness(V23, 0, samples) is None


def test_mixed_base_min_has_unstable_elements():
    # w(2*3) = 1 but w(2) + w(3) = 0
    assert instability_witness(V23, 2, [3]) == 3
    assert instability_witness(V23, 2, [5, 7, 3]) == 3


def test_split_min_instability_witness():
    w = min_extension(7, 2)
    s = hensel_sqrt(7, 2, 8, branch=1)
    c = QuadElem(Fraction(s), Fraction(-1), 2)
    x = QuadElem(Fraction(s), Fraction(1), 2)
    # both factors sit at value 0 under the min, but their product c*x
    # = s^2 - 2 is divisible by 7^8
    assert w.value(c) == Value(0)
    assert w.value(x) == Value(0)
    assert w.value(c * x) >= Value(8)
    assert instability_witness(w, c, [x]) == x


def test_ring_membership_examples():
    ring = QVRing(V23)
    assert ring.contains(Fraction(1, 5))
    assert not ring.contains(Fraction(1, 2))
    assert ring.contains(0)
    assert QVRing(V23).contains(6)
    assert QVRing(V23).contains(Fraction(9, 7))
    assert Fraction(9, 7) in ring and Fraction(1, 2) not in ring
    assert str(ring) == "ring[min[vp:2|vp:3]]"


def test_scaling_preserves_the_ring():
    rng = random.Random(12)
    w = min_extension(7, 2)
    for factor in (Fraction(2), Fraction(1, 2), Fraction(3, 4)):
        scaled = Scaled(w, factor)
        for x in quad_elements(rng, 2, 80):
            assert QVRing(w).contains(x) == QVRing(scaled).contains(x)


def test_scaled_by_one_is_identical():
    rng = random.Random(13)
    w = min_extension(7, 2)
    scaled = Scaled(w, 1)
    for x in quad_elements(rng, 2, 40):
        assert scaled.value(x) == w.value(x)


def test_value_bound_examples():
    assert value_bound(V23, 6) == 2
    assert value_bound(NAdic(4), Fraction(1, 16)) == -1
    with pytest.raises(DomainError):
        value_bound(V23, 0)


def test_value_bound_strictly_above():
    rng = random.Random(14)
    for w in (V23, NAdic(12), min_extension(7, 2), extensions_of(2, 2)[0]):
        for x in elements_for(w, rng, 60, include_zero=False):
            if not x:
                continue
            bound = value_bound(w, x)
            assert isinstance(bound, int)
            assert w.value(x) < bound


def test_value_witness_examples():
    assert value_witness(V23, 5) == Fraction(6**5)
    assert value_witness(V23, 0) == 1
    assert value_witness(NAdic(12), 3) == Fraction(12**3)


def test_value_witness_certifies_every_bound():
    grid = [Fraction(k, 2) for k in range(-8, 9)]
    for w in (
        V23,
        NAdic(12),
        min_extension(7, 2),
        extensions_of(2, 2)[0],
        Scaled(min_extension(7, 2), Fraction(3, 2)),
        PAdicValuation(5),
    ):
        for m in grid:
            y = value_witness(w, m)
            assert y != 0
            assert w.value(y) >= m, (w, m)
    # a member that restricts to no single v_p need not have the value 1 at p:
    # w(216) = 1 < 3 under the first, and w(2^-3·3^-3) = -6 under the second
    for w in (MinOf((NAdic(4), PAdicValuation(3))),
              MinOf((Scaled(PAdicValuation(2), 2), PAdicValuation(3)))):
        for m in (3, -3):
            with pytest.raises(DomainError, match="restricts to no single p-adic valuation"):
                value_witness(w, m)
