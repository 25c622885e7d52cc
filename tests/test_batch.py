"""The all-pairs engine behind the axiom harness."""

import random
from fractions import Fraction

import numpy as np
import pytest

import qval.batch as batch
from qval.errors import DomainError
from qval.quadratic import QuadElem
from qval.quasi import MinOf, NAdic, Scaled, check_axioms, min_extension
from qval.sampling import elements_for
from qval.triples import INF, QuasiValuation, field_triple
from qval.valuations import PAdicValuation, extensions_of

CONSTRUCTORS = [
    PAdicValuation(2),
    PAdicValuation(7),
    NAdic(12),
    MinOf((PAdicValuation(2), PAdicValuation(3))),
    extensions_of(5, 2)[0],
    extensions_of(2, 2)[0],
    extensions_of(2, 5)[0],
    extensions_of(7, 2)[0],
    extensions_of(7, 2)[1],
    extensions_of(2, -7)[0],
    min_extension(7, 2),
    min_extension(11, 5),
    Scaled(min_extension(7, 2), Fraction(3, 2)),
]


def test_engine_declines_oversized_inputs():
    w = PAdicValuation(2)
    huge = [Fraction(2**70 + 1, 3), Fraction(1), Fraction(7, 5)]
    # past int64 the engine answers on Python-int arrays
    checked, violations = batch.pairwise_axiom_check(w, huge)
    assert violations == []
    report = check_axioms(w, huge)
    assert report.passed and report.instances == 1 + checked


def test_engine_declines_unknown_constructors():
    class LooksLikeV2:
        """Every method and attribute of a constructor, delegating to v_2,
        but not a QuasiValuation subclass."""

        d = None
        value_denominator = 1

        def value(self, x):
            return PAdicValuation(2).value(x)

        def triple_value(self, a, b, q):
            return PAdicValuation(2).triple_value(a, b, q)

        def magnitude_bound(self, a, b, q):
            return PAdicValuation(2).magnitude_bound(a, b, q)

    w = LooksLikeV2()
    for refused in (lambda: batch.pairwise_axiom_check(w, [Fraction(1)]),
                    lambda: check_axioms(w, [Fraction(1), Fraction(2)]),
                    lambda: batch.gauge_matrix(w, [Fraction(0)], [Fraction(1)])):
        with pytest.raises(DomainError, match="not a QuasiValuation"):
            refused()


def test_triple_representation():
    x = Fraction(-3, 4)
    assert field_triple(x, None) == (-3, 0, 4)
    from qval.quadratic import QuadElem

    y = QuadElem(Fraction(1, 2), Fraction(-2, 3), 2)
    a, b, q = field_triple(y, 2)
    assert Fraction(a, q) == Fraction(1, 2)
    assert Fraction(b, q) == Fraction(-2, 3)


def test_values_beyond_the_sentinel_compare_exactly():
    w = Scaled(PAdicValuation(2), 2**45)  # w(4) = 2^46, above the ∞ sentinel
    assert check_axioms(w, [0, 1, 2, 3, 4, -4, Fraction(1, 8)]).passed


@pytest.mark.parametrize("inner", [PAdicValuation(2), extensions_of(2, -7)[0]], ids=str)
def test_a_finite_value_equal_to_the_sentinel_is_finite(inner):
    # w(2) = 2^40 = INF, yet 2 is not 0: only zero triples are ∞
    w = Scaled(inner, 2**40)
    report = check_axioms(w, [2, 3, 1])
    assert report.passed, report.to_dict()["failures"]
    assert report.instances == 18


def _full_matrix_check(w, samples):
    """The all-pairs check as it was first written: every ordered pair
    (i, j) broadcast into n×n matrices, the upper triangle reported."""
    triples = batch._triples(w, samples)
    n = len(triples)
    if not n:
        return 0, []
    max_a = max(abs(t[0]) for t in triples)
    max_b = max(abs(t[1]) for t in triples)
    max_q = max(t[2] for t in triples)
    d = abs(w.d) if w.d is not None else 0
    sum_bound = (2 * max_a * max_q, 2 * max_b * max_q, max_q * max_q)
    prod_bound = (max_a * max_a + max_b * max_b * d, 2 * max_a * max_b, max_q * max_q)
    worst = tuple(map(max, sum_bound, prod_bound, (max_a, max_b, max_q)))
    dtype = batch._array_dtype(w, *worst)
    a, b, q = (np.array(column, dtype=dtype) for column in zip(*triples))

    a_col, b_col, q_col = a[:, None], b[:, None], q[:, None]
    sum_b = (b_col * q + q_col * b).ravel()
    pair_q = (q_col * q).ravel()
    sums = ((a_col * q + q_col * a).ravel(), sum_b, pair_q)
    if w.d is None:
        products = ((a_col * a).ravel(), sum_b, pair_q)
    else:
        products = ((a_col * a + (b_col * b) * w.d).ravel(), (a_col * b + b_col * a).ravel(),
                    pair_q)

    values = w.triple_value(a, b, q)
    negated = w.triple_value(-a, -b, q)
    w_sum = w.triple_value(*sums).reshape(n, n)
    w_prod = w.triple_value(*products).reshape(n, n)

    violations = []
    checked = n
    for i in np.nonzero(negated != values)[0]:
        violations.append(("negation", int(i), int(i)))

    infinite = values == INF
    ix, iy = infinite[:, None], infinite[None, :]
    vx, vy = values[:, None], values[None, :]
    floor = np.where(ix, vy, np.where(iy, vx, np.minimum(vx, vy)))

    upper = np.triu(np.ones((n, n), dtype=bool))
    n_pairs = n * (n + 1) // 2

    bad = (w_prod != INF) & (ix | iy | (w_prod < vx + vy)) & upper
    checked += n_pairs
    for i, j in np.argwhere(bad):
        violations.append(("superadditive", int(i), int(j)))

    bad = (w_sum != INF) & ((ix & iy) | (w_sum < floor)) & upper
    checked += n_pairs
    for i, j in np.argwhere(bad):
        violations.append(("ultrametric", int(i), int(j)))

    differing = ((ix != iy) | (vx != vy)) & upper
    checked += int(differing.sum())
    bad = differing & (w_sum != floor)
    for i, j in np.argwhere(bad):
        violations.append(("equality-case", int(i), int(j)))

    return checked, violations


class _FlippedAtFour(QuasiValuation):
    """inner, negated exactly at x = 4 (as test_quasi._SignFlipped does
    to v_2): the check must report the broken pairs."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.value_denominator = inner.value_denominator

    def triple_value(self, a, b, q):
        v = self.inner.triple_value(a, b, q)
        return v - 2 * v * ((a == 4 * q) & (b == 0))

    def magnitude_bound(self, a, b, q):
        return 2 * self.inner.magnitude_bound(a, b, q)


def _corruption_cases():
    rng = random.Random(21)
    for inner in (PAdicValuation(2), extensions_of(2, -7)[0]):  # w(4) = 2 on both
        samples = elements_for(inner, rng, 40) + [4, 2, -4, 8]
        rng.shuffle(samples)
        yield _FlippedAtFour(inner), samples


@pytest.mark.parametrize("w", CONSTRUCTORS, ids=str)
@pytest.mark.parametrize("size", [0, 1, 2, 60])
def test_triangle_check_matches_full_matrices(w, size):
    samples = elements_for(w, random.Random(size), size)
    assert batch.pairwise_axiom_check(w, samples) == _full_matrix_check(w, samples)


def test_triangle_check_matches_full_matrices_on_objects_and_corruption():
    huge = [Fraction(2**70 + 1, 3), Fraction(1), Fraction(7, 5)]
    assert batch.pairwise_axiom_check(PAdicValuation(2), huge) == \
        _full_matrix_check(PAdicValuation(2), huge)
    for w, samples in _corruption_cases():
        checked, violations = batch.pairwise_axiom_check(w, samples)
        assert {kind for kind, _, _ in violations} == \
            {"negation", "superadditive", "ultrametric", "equality-case"}
        assert (checked, violations) == _full_matrix_check(w, samples)


def test_triangle_check_sizes_zero_and_one():
    w = PAdicValuation(2)
    assert batch.pairwise_axiom_check(w, []) == (0, [])
    # one sample: its negation, then the pair (0, 0) for superadditivity
    # and the ultrametric inequality; w(x) = w(x), so no equality case
    assert batch.pairwise_axiom_check(w, [Fraction(3, 4)]) == (3, [])
    assert batch.pairwise_axiom_check(_FlippedAtFour(w), [4]) == (3, [("negation", 0, 0)])


@pytest.mark.parametrize("p, d", [(5, -1), (7, 2), (11, 5), (2, -7)])
def test_split_constructors_take_int64_on_wide_inputs(monkeypatch, p, d):
    # coordinates up to 10^4 over denominators up to 12, the extremes pinned:
    # |A|, |B| up to 12·10^4 and Q up to 132 in the sample triples
    n = 10**4
    samples = [QuadElem(0, 0, d), QuadElem(1, 0, d), QuadElem(0, 1, d),
               QuadElem(n, Fraction(1, 12), d), QuadElem(Fraction(1, 12), n, d),
               QuadElem(Fraction(n, 11), Fraction(-n, 12), d),
               QuadElem(Fraction(-n, 12), Fraction(n, 11), d)]
    chosen = []

    def recording(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    choose = batch._array_dtype
    monkeypatch.setattr(batch, "_array_dtype", recording)
    for w in (*extensions_of(p, d), min_extension(p, d)):
        batch.pairwise_axiom_check(w, samples)
    assert chosen == [np.int64] * 3

