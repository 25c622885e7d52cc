"""The array primitives of qval.triples against their scalar definitions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qval.triples
from qval.primes import int_valuation
from qval.qvspec import parse_qv
from qval.triples import INF, field_triple, multiplicity

INT64_LIMIT = 1 << 62


@st.composite
def integer_arrays(draw):
    """(p, array): entries mix zeros, arbitrary integers and ±u·p^k, in an
    int64 array (|x| ≤ 2^62) or a dtype=object one (|x| up to 2^200), laid
    out 1-D, 2-D, or as a non-contiguous slice of a 2-D array."""
    p = draw(st.sampled_from((2, 3, 7, 11)))
    dtype = draw(st.sampled_from((np.int64, object)))
    limit = INT64_LIMIT if dtype is np.int64 else 1 << 200
    power = st.builds(lambda s, u, k: s * u * p**k, st.sampled_from((1, -1)),
                      st.integers(1, 5), st.integers(0, 200))
    entry = st.one_of(st.just(0), st.integers(-limit, limit),
                      power.filter(lambda x: abs(x) <= limit))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    full = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                    dtype=dtype).reshape(rows, cols)
    layout = draw(st.sampled_from(("1d", "2d", "slice")))
    if layout == "1d":
        return p, full.ravel()
    return p, full if layout == "2d" else full[:, ::2]


@settings(max_examples=300, deadline=None)
@given(integer_arrays())
def test_multiplicity_matches_int_valuation(case):
    p, x = case
    before = x.copy()
    v = multiplicity(x, p)
    assert v.shape == x.shape and v.dtype == x.dtype
    for index, entry in np.ndenumerate(x):
        assert v[index] == (int_valuation(p, int(entry)) if entry else INF)
    assert np.array_equal(x, before)


def test_multiplicity_at_the_int64_limit_and_beyond():
    x = np.array([2**62, -(2**62), 3**39, 0, 7**22, 2**62 - 1], dtype=np.int64)
    assert multiplicity(x, 2).tolist() == [62, 62, 0, INF, 0, 0]
    assert multiplicity(x, 3).tolist() == [0, 0, 39, INF, 0, 1]  # 3 | 2^31 + 1
    big = np.array([2**64 * 3, -(11**40), 2**65 + 3], dtype=object)
    assert multiplicity(big, 2).tolist() == [64, 0, 0]
    assert multiplicity(big, 11).tolist() == [0, 40, 0]
    # Python ints at p = 2: zeros, negatives, and past 2^64
    edges = (0, 1, -1, 2, -2, 12, -48, 2**63, -(2**64), 2**64 * 3, -(2**70) * 5, 2**65 + 3)
    assert [multiplicity(e, 2) for e in edges] == [INF, 0, 0, 1, 1, 2, 4, 63, 64, 64, 70, 0]


def _dividing_multiplicity(x, p):
    """Reference: the int64 kernel as a division loop, an int64 % sweep and
    one // round per unit of multiplicity over the entries still divisible."""
    flat = x.ravel()
    zero = flat == 0
    v = np.zeros(flat.shape, dtype=np.int64)
    at = (~zero & (flat % p == 0)).nonzero()[0]
    cur = flat[at]
    while at.size:
        cur //= p
        v[at] += 1
        still = cur % p == 0
        at, cur = at[still], cur[still]
    v[zero] = INF
    return v.reshape(x.shape)


KERNEL_PRIMES = (2, 3, 5, 7, 11, 13, 65537, 2**31 - 1, 2**61 - 1)
INT64_EDGES = (0, 1, -1, INT64_LIMIT - 1, -(INT64_LIMIT - 1), 2**63 - 1, -(2**63))


@st.composite
def int64_arrays(draw):
    """(p, array): int64 entries mixing zeros, the int64 edge values, any
    integer below 2^62 and ±u·p^k below 2^62, laid out 1-D, 2-D or as a
    non-contiguous slice of a 2-D array."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    top = next(k for k in range(63) if p ** (k + 1) >= INT64_LIMIT)
    power = st.integers(0, top).flatmap(lambda k: st.builds(
        lambda s, u: s * u * p**k, st.sampled_from((1, -1)),
        st.integers(1, min(2 * p + 3, (INT64_LIMIT - 1) // p**k))))
    entry = st.one_of(st.sampled_from(INT64_EDGES),
                      st.integers(-INT64_LIMIT + 1, INT64_LIMIT - 1), power)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    full = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.int64).reshape(rows, cols)
    layout = draw(st.sampled_from(("1d", "2d", "slice")))
    if layout == "1d":
        return p, full.ravel()
    return p, full if layout == "2d" else full[:, ::2]


@settings(max_examples=400, deadline=None)
@given(int64_arrays())
def test_int64_kernel_matches_the_division_loop(case):
    p, x = case
    before = x.copy()
    v = multiplicity(x, p)
    assert v.dtype == np.int64 and v.shape == x.shape
    assert np.array_equal(v, _dividing_multiplicity(x, p))
    assert np.array_equal(v == INF, x == 0)
    assert np.array_equal(x, before)


def test_int64_kernel_at_the_edges():
    x = np.array(INT64_EDGES + (2, 3, 6, 2**62, -(3**39), 5**27, 7**22 * 2, 65537**3), dtype=np.int64)
    before = x.copy()
    for p in KERNEL_PRIMES:
        v = multiplicity(x, p)
        assert v.dtype == np.int64
        assert v.tolist() == [int_valuation(p, int(e)) if e else INF for e in x.tolist()]
        assert np.array_equal(v, _dividing_multiplicity(x, p))
    assert multiplicity(x, 2).tolist()[:7] == [INF, 0, 0, 0, 0, 0, 63]
    assert np.array_equal(x, before)
    strided = np.arange(-60, 60, dtype=np.int64).reshape(6, 20)[1::2, ::3]
    for p in (2, 3, 5):
        assert np.array_equal(multiplicity(strided, p), _dividing_multiplicity(strided, p))


# k is the table's digits per lookup (p^k ≤ 4096); 4093 is the largest prime
# with a table, 4099 the first past it, 2^63 − 25 the largest prime an int64
# holds, and 2^63 + 29 and 2^64 + 13 are past int64
TABLE_EDGE_PRIMES = ((3, 7), (61, 2), (67, 1), (4093, 1), (4099, 1),
                     (2**63 - 25, 1), (2**63 + 29, 1), (2**64 + 13, 1))


def test_int64_kernel_across_a_table_saturation():
    for p, k in TABLE_EDGE_PRIMES:
        entries, wide = [0, 1, -1, 2**63 - 1, -(2**63)], []
        for j in (k, k + 1, 2 * k, 2 * k + 1, 3 * k):
            for u in (1, 2, p - 1, p + 1):
                near = [u * p**j, -u * p**j, u * p**j - 1, u * p**j + 1]
                (entries if u * p**j < 2**63 else wide).extend(near)
        # the same entries on int64 and on dtype=object, which also takes u·p^j past 2^63
        for x in (np.array(entries, dtype=np.int64), np.array(entries + wide, dtype=object)):
            v = multiplicity(x, p)
            assert v.dtype == x.dtype
            assert v.tolist() == [int_valuation(p, e) if e else INF for e in x.tolist()], p
            assert np.array_equal(v.reshape(-1, 1), multiplicity(x.reshape(-1, 1), p))


def test_the_residue_table_is_read_only_and_bounded():
    for p, k in TABLE_EDGE_PRIMES[:4]:
        m, t = qval.triples._residue_table(p)
        assert m == p**k and t.shape == (m,) and t.dtype == np.int64
        assert not t.flags.writeable
        assert t.tolist() == [k] + [min(int_valuation(p, r), k) for r in range(1, m)]
    for p, _ in TABLE_EDGE_PRIMES[4:]:  # past the span: one digit per round
        m, t = qval.triples._residue_table(p)
        assert m == p and t.tolist() == [1, 0] and not t.flags.writeable
    assert qval.triples._residue_table.cache_info().maxsize is not None


def test_a_float_enters_as_its_binary_value():
    assert field_triple(0.1, None) == (3602879701896397, 0, 2**55)
    assert parse_qv("vp:2").value(0.1) == -55
    assert parse_qv("vp:5").value(0.2) == 0
