"""The array primitives of qval.triples against their scalar definitions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.primes import int_valuation
from qval.triples import INF, multiplicity

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
