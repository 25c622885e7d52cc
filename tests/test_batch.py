"""The all-pairs engine behind the axiom harness."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qval.batch as batch
import qval.triples
import qval.valuations
from qval.errors import DomainError
from qval.quadratic import QuadElem
from qval.quasi import MinOf, NAdic, Scaled, check_axioms, min_extension
from qval.sampling import elements_for
from qval.triples import INT64_LIMIT, QuasiValuation, field_element, field_triple
from qval.valuations import PAdicValuation, SplitKind, extensions_of, hensel_sqrt, primes_by_kind

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
    # finite values equal to the sentinel: w(2) = 2^40 = INF
    Scaled(PAdicValuation(2), 2**40),
    Scaled(extensions_of(2, -7)[0], 2**40),
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

    w = LooksLikeV2()
    for refused in (lambda: batch.pairwise_axiom_check(w, [Fraction(1)]),
                    lambda: check_axioms(w, [Fraction(1), Fraction(2)]),
                    lambda: batch.gauge_matrix(w, [(0, 0, 1)], [(1, 0, 1)])):
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
    (i, j) broadcast into n×n matrices, the upper triangle reported, with
    one ``triple_value`` call each on the samples, the negations, the sums
    and the products.  ∞ is read from zero triples, never from the
    sentinel: a sample or a sum is 0 when its A and B are, a product when
    a factor is."""
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
    dtype = batch._array_dtype(*worst)
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

    infinite = (a == 0) & (b == 0)
    ix, iy = infinite[:, None], infinite[None, :]
    vx, vy = values[:, None], values[None, :]
    floor = np.where(ix, vy, np.where(iy, vx, np.minimum(vx, vy)))
    prod_infinite = ix | iy
    sum_infinite = ((sums[0] == 0) & (sums[1] == 0)).reshape(n, n)

    upper = np.triu(np.ones((n, n), dtype=bool))
    n_pairs = n * (n + 1) // 2

    bad = ~prod_infinite & (ix | iy | (w_prod < vx + vy)) & upper
    checked += n_pairs
    for i, j in np.argwhere(bad):
        violations.append(("superadditive", int(i), int(j)))

    bad = ~sum_infinite & ((ix & iy) | (w_sum < floor)) & upper
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


KIND_ORDER = ("negation", "superadditive", "ultrametric", "equality-case")


def _block_of(n, i, j):
    """The block of pair (i, j), i ≤ j, in the row-major triangle of n samples."""
    return (i * n - i * (i - 1) // 2 + j - i) // batch.PAIR_BLOCK


def _block_cases():
    """128 samples, so 8256 pairs in three blocks, the last one partial."""
    rng = random.Random(16)
    for inner in (PAdicValuation(2), extensions_of(2, -7)[0]):
        samples = elements_for(inner, rng, 124)
        # 4 at index 60: its pairs run through the first two blocks; the
        # sum -4 + 8 = 4 is the last pair but one, in the third
        samples[60:60] = [4, 2]
        yield inner, _FlippedAtFour(inner), samples + [-4, 8]


def test_blocks_check_as_the_full_matrices_do():
    for inner, flipped, samples in _block_cases():
        assert batch.pairwise_axiom_check(inner, samples) == _full_matrix_check(inner, samples)
        checked, violations = batch.pairwise_axiom_check(flipped, samples)
        assert (checked, violations) == _full_matrix_check(flipped, samples)
        pairs = [(i, j) for kind, i, j in violations if kind != "negation"]
        assert {_block_of(128, i, j) for i, j in pairs} == {0, 1, 2}
        # grouped by kind, every kind present, and row-major within a kind
        kinds = [KIND_ORDER.index(kind) for kind, _, _ in violations]
        assert kinds == sorted(kinds) and set(kinds) == {0, 1, 2, 3}
        for kind in KIND_ORDER:
            assert [(i, j) for k, i, j in violations if k == kind] == \
                sorted((i, j) for k, i, j in violations if k == kind)


class _Recording(QuasiValuation):
    """inner, recording the length of every stack it evaluates."""

    def __init__(self, inner):
        self.inner, self.d, self.lengths = inner, inner.d, []
        self.value_denominator = inner.value_denominator

    def triple_value(self, a, b, q):
        assert len(a) == len(b) == len(q)
        self.lengths.append(len(a))
        return self.inner.triple_value(a, b, q)


@pytest.mark.parametrize("n", [1, 2, 90, 91, 128, 200])
def test_one_triple_value_call_per_block(n):
    # n = 90 is the largest check of one block (4095 pairs), n = 91 the least of two
    for inner in (PAdicValuation(3), extensions_of(7, 2)[0]):
        w = _Recording(inner)
        samples = elements_for(inner, random.Random(n), n)
        assert batch.pairwise_axiom_check(w, samples) == batch.pairwise_axiom_check(inner, samples)
        m = n * (n + 1) // 2
        assert len(w.lengths) == -(-m // batch.PAIR_BLOCK)
        assert max(w.lengths) <= 2 * batch.PAIR_BLOCK + 2 * n
        assert w.lengths[0] == 2 * n + 2 * min(m, batch.PAIR_BLOCK) and sum(w.lengths) == 2 * (n + m)


def test_triangle_check_sizes_zero_and_one():
    w = PAdicValuation(2)
    assert batch.pairwise_axiom_check(w, []) == (0, [])
    # one sample: its negation, then the pair (0, 0) for superadditivity
    # and the ultrametric inequality; w(x) = w(x), so no equality case
    assert batch.pairwise_axiom_check(w, [Fraction(3, 4)]) == (3, [])
    assert batch.pairwise_axiom_check(_FlippedAtFour(w), [4]) == (3, [("negation", 0, 0)])


def _criterion_1_constructors(d):
    """Acceptance criterion 1's constructors over Q (d is None) or Q(√d),
    the second split branch added: 9 over Q and 4 (here 5) per field."""
    if d is None:
        return [*map(PAdicValuation, (2, 3, 5, 7)), *map(NAdic, (2, 3, 4, 6, 12))]
    split_p = primes_by_kind(d, SplitKind.SPLIT)[0]
    return [*(extensions_of(primes_by_kind(d, kind)[0], d)[0] for kind in SplitKind),
            extensions_of(split_p, d)[1], min_extension(split_p, d)]


def _wide_samples(d):
    """Coordinates up to 10^4 over denominators up to 12, the extremes pinned:
    |A|, |B| up to 12·10^4 and Q up to 132 in the sample triples, over Q (d is
    None) or Q(√d).  The norms of their pairwise products pass 2^62."""
    n = 10**4
    if d is None:
        return [Fraction(0), Fraction(1), Fraction(n), Fraction(1, 12),
                Fraction(n, 11), Fraction(-n, 12)]
    return [QuadElem(0, 0, d), QuadElem(1, 0, d), QuadElem(0, 1, d),
            QuadElem(n, Fraction(1, 12), d), QuadElem(Fraction(1, 12), n, d),
            QuadElem(Fraction(n, 11), Fraction(-n, 12), d),
            QuadElem(Fraction(-n, 12), Fraction(n, 11), d)]


@pytest.mark.parametrize("p, d", [(5, -1), (7, 2), (11, 5), (2, -7),
                                  pytest.param(None, None, id="Q")])
def test_split_constructors_take_int64_on_wide_inputs(monkeypatch, p, d):
    # the constructors size the norms of the wide samples' pairwise products
    # themselves, so the engine takes int64 on every one
    if d is not None:
        assert primes_by_kind(d, SplitKind.SPLIT)[0] == p
    samples = _wide_samples(d)
    chosen = []

    def recording(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    choose = batch._array_dtype
    monkeypatch.setattr(batch, "_array_dtype", recording)
    constructors = _criterion_1_constructors(d)
    for w in constructors:
        assert batch.pairwise_axiom_check(w, samples)[1] == []
    assert chosen == [np.int64] * len(constructors)


@pytest.mark.parametrize("d", [-1, 2, 5, -7])
def test_ramified_constructors_stay_on_int64_on_wide_inputs(monkeypatch, d):
    # the ramified value is read from v_p(A), v_p(B) and v_p(Q): no norm is
    # formed and no array of the wide samples' check moves to Python ints
    w = extensions_of(primes_by_kind(d, SplitKind.RAMIFIED)[0], d)[0]
    seen = []

    def recording(kernel):
        def record(*args):
            seen.extend(x.dtype for x in args if isinstance(x, np.ndarray))
            return kernel(*args)
        return record

    def forming(*args, **kwargs):
        raise AssertionError("a ramified value formed an integer")

    kernels = qval.triples
    for module in (kernels, qval.valuations):
        monkeypatch.setattr(module, "multiplicity", recording(kernels.multiplicity))
        monkeypatch.setattr(module, "formed", forming)
    monkeypatch.setattr(qval.valuations, "norm_form", forming)
    assert batch.pairwise_axiom_check(w, _wide_samples(d))[1] == []
    assert seen and set(seen) == {np.dtype(np.int64)}


# Every constructor shape, each sizing site among them: the split form
# A + B·seed (p = 2 included) and its norm, the ramified extensions, which
# form no integer beyond their input, MinOf over members with
# different value denominators, and Scaled with a numerator that would carry
# the sentinel past the limit (2^23·INF = 2^63, though only finite values
# are sized) or every value past it (40 digits), alone and around a MinOf.
MIN_WIDE = MinOf((Scaled(extensions_of(2, -1)[0], Fraction(1, 10**40)), extensions_of(5, -1)[1]))
SCALED_WIDE = Scaled(extensions_of(3, -1)[0], 10**39 + 7)
SIZED_SHAPES = [
    extensions_of(3, -1)[0],
    extensions_of(2, 5)[0],
    extensions_of(2, -1)[0],
    extensions_of(7, -7)[0],
    *extensions_of(7, 2),
    *extensions_of(2, -7),
    MinOf((extensions_of(2, -1)[0], extensions_of(5, -1)[0])),
    MIN_WIDE,
    NAdic(12),
    Scaled(PAdicValuation(3), 2**23),
    SCALED_WIDE,
    Scaled(min_extension(7, 2), Fraction(2**23 + 5, 3)),
]


@st.composite
def accepted_triples(draw, w):
    """(w, triples): entries batch would put in an int64 array, |A|, |B|, Q
    below 2^62.  Each example draws them below 50, below 2^20 (where the
    constructor's own values stay int64 up to its rescaling) or up to the
    limit, many of them then within 2^20 of it."""
    top = draw(st.sampled_from((50, 2**20, INT64_LIMIT - 1)))
    near = st.integers(max(1, top - 2**20), top)
    signed = st.one_of(near, near.map(lambda x: -x), st.integers(-top, top))
    q = st.one_of(near, st.integers(1, top), st.integers(1, 50))
    b = signed if w.d is not None else st.just(0)
    return w, draw(st.lists(st.tuples(signed, b, q), min_size=1, max_size=12))


TOP = INT64_LIMIT - 1
# A + B·s ≡ 0 mod 7^3 with A, B near the limit: past int64, A + B·seed
# wraps by a multiple of 2^64 ≡ 2 (mod 7) and loses the factor 7
SPLIT_AT_LIMIT = (TOP - (TOP + TOP * hensel_sqrt(7, 2, 3, 1)) % 7**3, TOP, 1)
# a prime past 2^64: as the split prime its larger seed passes int64, and as d the
# norm multiplies by it, where every B may be 0
WIDE_PRIME = 2**64 + 13


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIZED_SHAPES).flatmap(accepted_triples), st.booleans(), st.booleans())
@example((extensions_of(3, -1)[0], [(TOP, TOP, 1)]), True, False)  # the norm: v_3(2·TOP²) = 2
@example((extensions_of(7, 2)[0], [SPLIT_AT_LIMIT]), True, False)
@example((MIN_WIDE, [(1, 1, 1)]), True, False)  # a member rescaled by 2·10^40
@example((SCALED_WIDE, [(3, 1, 1)]), True, False)
# no zero and small values: only the constant itself passes int64
@example((MIN_WIDE, [(1, 0, 1)]), False, False)
@example((SCALED_WIDE, [(1, 0, 1)]), False, False)
@example((Scaled(PAdicValuation(3), 10**39 + 7), [(1, 0, 1), (2, 0, 1)]), False, False)
@example((extensions_of(WIDE_PRIME, 5)[1], [(1, 0, 1), (2, 0, 1)]), False, False)
@example((extensions_of(2, WIDE_PRIME)[0], [(1, 0, 1), (2, 0, 1)]), False, False)
def test_int64_results_equal_object_and_scalar_results_at_the_limit(case, with_zero, as_row):
    w, triples = case
    if with_zero:
        triples = triples + [(0, 0, 1)]
    expected = [w.triple_value(*t) for t in triples]
    for dtype in (np.int64, object):
        a, b, q = (np.array(c, dtype=dtype) for c in zip(*triples))
        if as_row:  # a gauge-matrix row
            a, b, q = a[None, :], b[None, :], q[None, :]
        got = w.triple_value(a, b, q)
        assert got.shape == a.shape
        assert np.asarray(got, dtype=object).ravel().tolist() == expected, (w, dtype)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIZED_SHAPES).flatmap(accepted_triples), st.booleans())
# small samples the gate puts on int64, where the constructor's own sizing
# moves the one stacked call to Python ints for every entry
@example((MIN_WIDE, [(1, 1, 1), (2, -3, 5)]), True)
@example((SCALED_WIDE, [(3, 1, 1), (1, 0, 2)]), True)
@example((extensions_of(7, 2)[0], [SPLIT_AT_LIMIT, (1, 0, 1)]), True)
@example((extensions_of(7, 2)[0], [SPLIT_AT_LIMIT]), False)
# x + (−x) = 0, whose w = ∞ the sum's own triple decides: w(4) = 2^46 is past the sentinel
@example((Scaled(PAdicValuation(2), 2**45), [(4, 0, 1), (-4, 0, 1)]), False)
def test_one_stacked_call_matches_four_separate_calls(case, with_zero):
    w, triples = case
    samples = [field_element(t, w.d) for t in triples + [(0, 0, 1)] * with_zero]
    assert batch.pairwise_axiom_check(w, samples) == _full_matrix_check(w, samples)


def test_the_pair_triangle_is_cached_and_read_only():
    iu, ju = batch._pair_triangle(5)
    assert batch._pair_triangle(5)[0] is iu and batch._pair_triangle(5)[1] is ju
    assert np.array_equal(iu, np.triu_indices(5)[0]) and np.array_equal(ju, np.triu_indices(5)[1])
    for index in (iu, ju):
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1


def test_the_pair_triangle_is_cached_only_up_to_its_bound(monkeypatch):
    # n = 1001 builds its indices per check, and finds the violations the cached
    # triangle finds; n = 1000 is cached
    w = _FlippedAtFour(PAdicValuation(2))
    n = batch.CACHED_TRIANGLE_N
    samples = elements_for(w, random.Random(3), n) + [4]
    batch._pair_triangle.cache_clear()
    try:
        batch.pairwise_axiom_check(w, samples[1:])
        assert batch._pair_triangle.cache_info().currsize == 1
        batch._pair_triangle.cache_clear()
        uncached = batch.pairwise_axiom_check(w, samples)
        assert uncached[1] and batch._pair_triangle.cache_info().currsize == 0
        monkeypatch.setattr(batch, "CACHED_TRIANGLE_N", n + 1)
        assert batch.pairwise_axiom_check(w, samples) == uncached
        assert batch._pair_triangle.cache_info().currsize == 1
    finally:
        batch._pair_triangle.cache_clear()  # 8 MB an entry


def test_threads_check_as_serial_calls_do():
    # eleven sample counts, more than the triangle cache holds, so threads
    # evict each other's entries while they check; 128 takes three blocks
    sizes = (0, 1, 2, 5, 9, 13, 17, 24, 30, 41, 128)
    cases = [(w, elements_for(w, random.Random(k), sizes[k % len(sizes)]))
             for k, w in enumerate(CONSTRUCTORS + SIZED_SHAPES)]
    serial = [check_axioms(w, samples).to_dict() for w, samples in cases]
    batch._pair_triangle.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda case: check_axioms(*case).to_dict(), cases * 3))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 3


@pytest.mark.parametrize("w", [Scaled(PAdicValuation(3), 10**39 + 7), *extensions_of(WIDE_PRIME, 5),
                               *extensions_of(2, WIDE_PRIME)], ids=str)
def test_constants_past_int64_need_no_wide_samples(w):
    # small samples whose every B is 0: the rescaling factor, the split
    # seed and the d of the norm and of the products are what pass int64
    samples = [1, 2] if w.d is None else [QuadElem(1, 0, w.d), QuadElem(2, 0, w.d)]
    assert batch.pairwise_axiom_check(w, samples)[1] == []


def test_a_rescaling_sizes_its_finite_values_only(monkeypatch):
    # 2^23·INF = 2^63 would pass int64, but the sentinel is set again after
    # the rescaling: a 0 among the samples keeps every call on int64
    w = Scaled(PAdicValuation(3), 2**23)
    samples = [0, *range(1, 60), Fraction(3**18, 7), Fraction(-5, 3**12)]
    honest, seen = Scaled.triple_value, []

    def recording(self, a, b, q):
        values = honest(self, a, b, q)
        scalars = [honest(self, *t) for t in zip(a.tolist(), b.tolist(), q.tolist())]
        objects = honest(self, *(c.astype(object) for c in (a, b, q)))
        assert values.tolist() == scalars == objects.tolist()
        seen.append(values.dtype)
        return values

    monkeypatch.setattr(Scaled, "triple_value", recording)
    report = check_axioms(w, samples)
    assert report.passed and report.instances > len(samples) ** 2
    assert seen == [np.dtype(np.int64)]  # one call: samples, negations, sums, products
