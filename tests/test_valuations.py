import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qval.errors import DomainError
from qval import batch, valuations
from qval.primes import int_valuation
from qval.quadratic import QuadElem, is_squarefree
from qval.sampling import quad_elements
from qval.quasi import MinOf
from qval.triples import INF, INT64_LIMIT, clamp_inf, minimum, multiplicity
from qval.valuations import (
    ExtendedValuation,
    SplitKind,
    classify,
    extensions_of,
    field_discriminant,
    hensel_sqrt,
    primes_by_kind,
    v_p,
)
from qval.values import INFINITY, Value

DS = (-1, 2, 5, -7)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def test_v_p_examples():
    assert v_p(2, 12) == Value(2)
    assert v_p(5, 0) == INFINITY
    assert v_p(3, Fraction(2, 9)) == Value(-2)
    assert v_p(7, Fraction(-49, 3)) == Value(2)


def test_v_p_is_a_valuation():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        assert v_p(p, x * y) == v_p(p, x) + v_p(p, y)
        assert v_p(p, x + y) >= min(v_p(p, x), v_p(p, y))
        assert (v_p(p, x) == INFINITY) == (x == 0)


def brute_force_classify(p, d):
    """Splitting behavior straight from the definitions: divisibility of the
    discriminant, then squares mod p enumerated by brute force."""
    if field_discriminant(d) % p == 0:
        return SplitKind.RAMIFIED
    if p == 2:
        return SplitKind.SPLIT if d % 8 == 1 else SplitKind.INERT
    squares = {x * x % p for x in range(1, p)}
    return SplitKind.SPLIT if d % p in squares else SplitKind.INERT


def test_classify_examples():
    assert classify(5, 2) is SplitKind.INERT  # squares mod 5 are {1, 4}
    assert classify(7, 2) is SplitKind.SPLIT  # 3*3 = 2 mod 7
    assert classify(2, 2) is SplitKind.RAMIFIED


def test_classify_against_brute_force():
    for d in DS + (3, -5, 10, -11, 13):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert classify(p, d) is brute_force_classify(p, d), (p, d)


def test_classify_rejects_bad_d():
    with pytest.raises(DomainError):
        classify(3, 4)
    with pytest.raises(DomainError):
        classify(3, 1)


def test_hensel_sqrt_base_examples():
    assert hensel_sqrt(7, 2, 1) == 3
    assert hensel_sqrt(7, 2, 1, branch=2) == 4
    # brute force over residues mod 49: the lift of 3 with s*s = 2 mod 49
    lifts = [s for s in range(49) if s * s % 49 == 2 and s % 7 == 3]
    assert lifts == [10]
    assert hensel_sqrt(7, 2, 2) == 10


def test_hensel_sqrt_defining_property():
    rng = random.Random(5)
    cases = 0
    while cases < 60:
        p = rng.choice(SMALL_PRIMES)
        d = rng.choice(DS + (3, 10, 13, -11))
        if classify(p, d) is not SplitKind.SPLIT:
            continue
        k = rng.randint(1, 20)
        for branch in (1, 2):
            s = hensel_sqrt(p, d, k, branch)
            assert (s * s - d) % p**k == 0
            assert 0 <= s < p**k
        cases += 1


def test_hensel_branches_are_opposite_roots():
    for p, d in ((7, 2), (5, -1), (11, 5), (2, -7), (2, 17)):
        k = 9
        s1 = hensel_sqrt(p, d, k, 1)
        s2 = hensel_sqrt(p, d, k, 2)
        modulus = p ** (k - 1) if p == 2 else p**k
        assert (s1 + s2) % modulus == 0
        if p == 2:
            assert s1 % 4 == 1 and s2 % 4 == 3
        else:
            assert s1 % p != s2 % p


def _bitwise_hensel_sqrt_2(d, k, seed):
    """The bit-by-bit 2-adic lift hensel_sqrt used before its Newton step: s² ≡ d mod 2^j
    and s odd force the next bit of s, and the update never moves s mod 4."""
    if k <= 2:
        return seed % 2**k
    s = seed
    j = 3
    while j < k:
        c = ((d - s * s) >> j) & 1
        s += c << (j - 1)
        j += 1
    return s % 2**k


def test_hensel_sqrt_at_two_matches_the_bitwise_lift():
    for d in (17, -7, 33, -15, 65537):
        for branch, seed in ((1, 1), (2, 3)):
            for k in [*range(1, 161), 400, 1000, 3000]:
                assert hensel_sqrt(2, d, k, branch) == _bitwise_hensel_sqrt_2(d, k, seed), (d, k)


def _newton_hensel_sqrt_odd(p, d, k, seed):
    """The Newton lift hensel_sqrt used at odd p before its inverse-square-root step:
    s ← (s + d/s)/2 mod p^prec, one modular inverse per step."""
    s, prec = seed, 1
    inv2 = pow(2, -1, p**k)
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        s = (s + d * pow(s, -1, mod)) * inv2 % mod
    return s % p**k


def test_hensel_sqrt_at_odd_p_matches_the_newton_lift():
    pairs = [(p, d) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for d in (-1, 2, -2, 3, 5, -7)
             if d % p and classify(p, d) is SplitKind.SPLIT]
    for p, d in pairs:
        for branch in (1, 2):
            seed = valuations._split_seeds(p, d)[branch - 1]
            for k in [*range(1, 60), 500, 3000]:
                assert hensel_sqrt(p, d, k, branch) == _newton_hensel_sqrt_odd(p, d, k, seed), \
                    (p, d, k, branch)


def test_hensel_rejects_non_split():
    with pytest.raises(DomainError):
        hensel_sqrt(5, 2, 3)
    with pytest.raises(DomainError):
        hensel_sqrt(2, 2, 3)


def test_extension_kind_consistency_enforced():
    with pytest.raises(DomainError):
        ExtendedValuation(5, 2, SplitKind.SPLIT, branch=1)
    with pytest.raises(DomainError):
        ExtendedValuation(7, 2, SplitKind.INERT)
    with pytest.raises(DomainError):
        ExtendedValuation(7, 2, SplitKind.SPLIT, branch=3)


def test_eval_extension_examples():
    inert = ExtendedValuation(5, 2, SplitKind.INERT)
    assert inert.value(QuadElem.root(2)) == Value(0)

    ram = ExtendedValuation(2, 2, SplitKind.RAMIFIED)
    assert ram.value(QuadElem.root(2)) == Value(Fraction(1, 2))

    u1, u2 = extensions_of(7, 2)
    x = QuadElem(Fraction(3), Fraction(1), 2)
    values = sorted([u1.value(x), u2.value(x)], key=lambda v: v.finite_part)
    assert values == [Value(0), Value(1)]
    assert u1.value(x) + u2.value(x) == v_p(7, x.norm())


def test_extensions_restrict_to_v_p():
    rng = random.Random(3)
    for d in DS:
        for kind in SplitKind:
            p = primes_by_kind(d, kind)[0]
            for u in extensions_of(p, d):
                for _ in range(50):
                    a = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
                    assert u.value(QuadElem(a, Fraction(0), d)) == v_p(p, a)
                assert u.value(QuadElem(Fraction(0), Fraction(0), d)) == INFINITY


@pytest.mark.parametrize("d", DS)
def test_extension_axioms_with_multiplicative_equality(d):
    rng = random.Random(d & 0xFFFF)
    for kind in SplitKind:
        p = primes_by_kind(d, kind)[0]
        for u in extensions_of(p, d):
            xs = quad_elements(rng, d, 40)
            for x in xs:
                assert (u.value(x) == INFINITY) == (not x)
                for y in xs[:10]:
                    assert u.value(x * y) == u.value(x) + u.value(y)
                    assert u.value(x + y) >= min(u.value(x), u.value(y))


def test_split_sum_rule_and_doubling():
    rng = random.Random(17)
    for d in DS:
        p_split = primes_by_kind(d, SplitKind.SPLIT)[0]
        u1, u2 = extensions_of(p_split, d)
        p_inert = primes_by_kind(d, SplitKind.INERT)[0]
        inert = extensions_of(p_inert, d)[0]
        p_ram = primes_by_kind(d, SplitKind.RAMIFIED)[0]
        ram = extensions_of(p_ram, d)[0]
        for x in quad_elements(rng, d, 80, include_zero=False):
            if not x:
                continue
            norm = x.norm()
            assert u1.value(x) + u2.value(x) == v_p(p_split, norm)
            assert inert.value(x) + inert.value(x) == v_p(p_inert, norm)
            assert ram.value(x) + ram.value(x) == v_p(p_ram, norm)


def test_conjugation_swaps_split_branches():
    rng = random.Random(23)
    for d in DS:
        p = primes_by_kind(d, SplitKind.SPLIT)[0]
        u1, u2 = extensions_of(p, d)
        assert u1.conjugate_branch() == u2
        for x in quad_elements(rng, d, 60):
            assert u1.value(x.conjugate()) == u2.value(x)
            assert u2.value(x.conjugate()) == u1.value(x)


def test_hensel_determinacy_once_certified():
    rng = random.Random(29)
    for d in (2, 5, -7):
        p = primes_by_kind(d, SplitKind.SPLIT)[0]
        for u in extensions_of(p, d):
            for x in quad_elements(rng, d, 30, include_zero=False):
                if x.b == 0:
                    continue
                k = 8
                while True:
                    value, certified = u.split_value_at_precision(x, k)
                    if certified:
                        break
                    k *= 2
                later, certified_later = u.split_value_at_precision(x, k + 5)
                assert certified_later
                assert later == value


def test_deep_split_values_are_exact():
    u1, u2 = extensions_of(7, 2)
    deep = hensel_sqrt(7, 2, 12, 1)
    adversarial = QuadElem(Fraction(deep), Fraction(-1), 2)  # agrees with the
    # branch-1 root to 12 digits, so precision 8 cannot certify it
    assert u1.value(adversarial) == Value(_hensel_value(u1, deep, -1, 1)) >= Value(12)
    assert u2.value(adversarial) == Value(0)


def test_extension_rejects_wrong_field():
    u = extensions_of(7, 2)[0]
    with pytest.raises(DomainError):
        u.value(QuadElem.root(5))
    assert u.value(QuadElem(Fraction(3), Fraction(0), 5)) == v_p(7, 3)


def test_inert_norm_form_vs_coordinate_minimum():
    # for odd inert primes the valuation equals min(v_p(a), v_p(b)); at
    # p = 2 (d = 5 mod 8) only the norm form is multiplicative, e.g.
    # 1 + sqrt(5) = 2 * (1 + sqrt(5))/2 has value 1, not 0
    rng = random.Random(31)
    for p, d in ((3, 2), (5, 2), (3, 5), (13, 5)):
        u = extensions_of(p, d)[0]
        assert u.kind is SplitKind.INERT
        for x in quad_elements(rng, d, 60, include_zero=False):
            if not x:
                continue
            coordinate_min = min(v_p(p, x.a), v_p(p, x.b))
            assert u.value(x) == coordinate_min

    two = extensions_of(2, 5)[0]
    assert two.kind is SplitKind.INERT
    x = QuadElem(Fraction(1), Fraction(1), 5)
    assert two.value(x) == Value(1)
    assert min(v_p(2, x.a), v_p(2, x.b)) == Value(0)
    assert two.value(x * x) == two.value(x) + two.value(x)
    assert two.value(x).finite_part.denominator == 1  # value group is Z


def test_ramified_values_are_half_integers():
    ram = ExtendedValuation(2, 2, SplitKind.RAMIFIED)
    seen = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            x = QuadElem(Fraction(a), Fraction(b), 2)
            if x:
                val = ram.value(x).finite_part
                assert val.denominator in (1, 2)
                seen.add(val)
    assert any(v.denominator == 2 for v in seen)


def test_hensel_caches_are_bounded():
    caches = (valuations._split_seeds,)
    bounds = [cache.cache_info().maxsize for cache in caches]
    assert None not in bounds
    fields = (d for d in range(2, 10**5) if is_squarefree(d))
    split = [d for d in fields if classify(7, d) is SplitKind.SPLIT][:max(bounds) + 10]
    for d in split:  # one seed pair and one root per (7, d, 8, branch 1)
        assert extensions_of(7, d)[0].value(QuadElem(1, 1, d)) == Value(0)
        assert hensel_sqrt(7, d, 8, 1) ** 2 % 7**8 == d % 7**8
    for cache, bound in zip(caches, bounds):
        assert cache.cache_info().currsize <= bound


# ---------------------------------------------------------------------------
# The Hensel route that evaluated split values before the closed form, kept
# here as the reference for it: evaluate with the root lifted to precision
# k = 8, and re-evaluate the entries whose certificate does not fire at
# twice the precision, on Python ints, until every entry is certified.

def _hensel_root(p, d, k, branch):
    """A root agreeing with the p-adic root to k digits; at p = 2 the
    bit-by-bit lift trails one digit behind."""
    if p == 2:
        return hensel_sqrt(p, d, k + 1, branch) % 2**k
    return hensel_sqrt(p, d, k, branch)


def _refine(values, certified, deeper, *coords):
    if not isinstance(values, np.ndarray):
        return values if certified else deeper(*coords)
    todo = ~certified
    if todo.any():
        values[todo] = deeper(*(c[todo].astype(object) for c in coords))
    return values


def _hensel_value(u, a, b, q, k=8):
    t = a + b * _hensel_root(u.p, u.d, k, u.branch)
    vt = multiplicity(t, u.p)
    certified = (b == 0) | (vt < multiplicity(b, u.p) + k)
    value = clamp_inf(vt - multiplicity(q, u.p), t == 0)
    return _refine(value, certified, lambda a, b, q: _hensel_value(u, a, b, q, 2 * k), a, b, q)


def _listed(values):
    return np.array(values, dtype=object).ravel().tolist()


SPLIT_FIELDS = [(p, d) for d in (-7, -1, 2, 5, 17, -15, 33) for p in (2, 3, 5, 7, 11, 13)
                if classify(p, d) is SplitKind.SPLIT]


@st.composite
def split_triples(draw, p, d, branch):
    """(A, B, Q): plain, or A = −B·s + p^k·u with s the branch's root, so
    that A + B·s is divisible far past the digits of B."""
    q = draw(st.integers(1, 50)) * p ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        a, b = draw(st.integers(-2**70, 2**70)), draw(st.integers(-2**70, 2**70))
        if a == b == 0:
            a = 1
        return a, b, q
    k = draw(st.integers(1, 80))
    b = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 60)) * p ** draw(st.integers(0, 5))
    s = hensel_sqrt(p, d, k + 2 + int(p == 2), branch)
    return -b * s + p**k * draw(st.integers(-20, 20)), b, q


@st.composite
def split_cases(draw):
    p, d = draw(st.sampled_from(SPLIT_FIELDS))
    branch = draw(st.sampled_from((1, 2)))
    triples = draw(st.lists(split_triples(p, d, branch), min_size=1, max_size=8))
    return ExtendedValuation(p, d, SplitKind.SPLIT, branch), triples


@settings(max_examples=400, deadline=None)
@given(split_cases())
def test_closed_form_split_value_agrees_with_hensel_lifting(case):
    u, triples = case
    expected = [_hensel_value(u, *t) for t in triples]
    for t, want in zip(triples, expected):
        assert u.triple_value(*t) == want, (u, t)
    # int64 wherever the batch engine would pick it
    peaks = (max(abs(t[i]) for t in triples) for i in range(3))
    dtypes = (np.int64, object) if batch._array_dtype(*peaks) is np.int64 else (object,)
    for dtype in dtypes:
        for shape in ((len(triples),), (len(triples), 1), (1, len(triples))):
            a, b, q = (np.array(c, dtype=dtype).reshape(shape) for c in zip(*triples))
            assert _listed(u.triple_value(a, b, q)) == expected, (u, triples, dtype, shape)
    a, b, q = (np.array(c, dtype=object) for c in zip(*triples))
    assert _hensel_value(u, a, b, q).tolist() == expected


def test_closed_form_on_int64_arrays_with_deep_entries():
    # A ≡ −s mod 7^k fails the seed test; its norm fits int64 for k ≤ 4
    # and needs Python ints for k ≥ 12
    for branch in (1, 2):
        u = extensions_of(7, 2)[branch - 1]
        s = hensel_sqrt(7, 2, 22, branch)
        for depths in ((2, 3, 4), (4, 12, 20)):
            triples = [(-s % 7**k, 1, 7) for k in depths] + [(3, 1, 1), (0, 0, 1), (5, 0, 49)]
            a, b, q = (np.array(c, dtype=np.int64) for c in zip(*triples))
            values = u.triple_value(a, b, q)
            assert values.dtype == np.int64
            assert values.tolist() == [_hensel_value(u, *t) for t in triples]
            assert all(v >= k - 1 for v, k in zip(values.tolist(), depths))


# ---------------------------------------------------------------------------
# The minimum over all extensions at an unramified p is the p-content of x in
# an integral basis: min(v_p(A), v_p(B)) − v_p(Q) at odd p, and
# min(v_2(A − B), v_2(2B)) − v_2(Q) at p = 2 (basis 1, (1 + √d)/2).  The
# oracle below counts factors of p one division at a time, so it checks the
# split branches (seed test and norm) and the inert norm against code that
# shares nothing with them.

def _count_p(p, n):
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def _content_oracle(p, a, b, q):
    coordinates = (a - b, 2 * b) if p == 2 else (a, b)
    return min(_count_p(p, c) for c in coordinates if c) - _count_p(p, q)


def _memberwise(members, a, b, q):
    """The minimum taken member by member, in member order."""
    values = [m.triple_value(a, b, q) for m in members]
    return clamp_inf(functools.reduce(minimum, values), (a == 0) & (b == 0))


UNRAMIFIED_FIELDS = [(p, d) for d in (-15, -7, -3, -1, 2, 5, 13, 17, 21, 33)
                     for p in (2, 3, 5, 7, 11, 13) if classify(p, d) is not SplitKind.RAMIFIED]
assert {d % 8 for p, d in UNRAMIFIED_FIELDS if p == 2} == {1, 5}  # split and inert at 2


@st.composite
def content_triples(draw, p, d, top):
    """(A, B, Q), Q ≥ 1 and not both A, B zero: plain, within 2^20 of top
    (top up to INT64_LIMIT − 1), or deep: at a split p, A ≡ −B·s mod p^k for
    one branch's root s; at an inert p, A − B or A and B divisible by p^k."""
    q = draw(st.integers(1, 50)) * p ** draw(st.integers(0, 3))
    near = st.integers(max(1, top - 2**20), top)
    signed = st.one_of(near, near.map(lambda x: -x), st.integers(-top, top))
    shape = draw(st.sampled_from(("plain", "deep", "deep")))
    if shape == "plain":
        a, b = draw(signed), draw(signed)
        return (a or 1), b, draw(st.one_of(st.just(q), near))
    k = draw(st.integers(1, 70))
    b = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 60)) * p ** draw(st.integers(0, 5))
    u = draw(st.integers(-3, 3))
    if classify(p, d) is SplitKind.SPLIT:
        s = hensel_sqrt(p, d, k + 2, draw(st.sampled_from((1, 2))))
        return (-b * s) % p**k + u * p**k, b, q
    if p == 2:
        return b + u * 2**k, b, q
    return u * p**k, b * p**k, q


@st.composite
def content_cases(draw):
    p, d = draw(st.sampled_from(UNRAMIFIED_FIELDS))
    top = draw(st.sampled_from((50, 2**20, INT64_LIMIT - 1)))
    triples = draw(st.lists(content_triples(p, d, top), min_size=1, max_size=8))
    if draw(st.booleans()):
        triples.append((0, 0, draw(st.integers(1, 9))))
    return p, d, triples


# one entry 12 digits deep on branch 1 and one 20 deep on branch 2
DEEP_PAIR = [(-hensel_sqrt(7, 2, 12, 1) % 7**12, 1, 1), (-hensel_sqrt(7, 2, 20, 2) % 7**20, 1, 1)]
# 279 + √17 is 11 digits deep on branch 1, though 279² − 17·1² has only 17 bits
SHALLOW_DEEP = [(-hensel_sqrt(2, 17, 10, 1) % 2**9, 1, 1)]


def test_deep_pair_entries_take_their_exact_values():
    for (p, d, triples), branch_values in (((7, 2, DEEP_PAIR), ([12, 0], [0, 20])),
                                           ((2, 17, SHALLOW_DEEP), ([11], [1]))):
        for u, want in zip(extensions_of(p, d), branch_values):
            assert [u.triple_value(*t) for t in triples] == want, u
            assert [_hensel_value(u, *t) for t in triples] == want, u


@settings(max_examples=300, deadline=None)
@given(content_cases())
@example((7, 2, DEEP_PAIR))
@example((2, 17, SHALLOW_DEEP))
def test_the_canonical_extension_is_the_p_content(case):
    p, d, triples = case
    content = {t: INF if t[0] == t[1] == 0 else _content_oracle(p, *t) for t in triples}
    extensions = extensions_of(p, d)
    # v_p(norm) is the sum over the extensions, each weighted by its residue
    # degree: twice the one inert value, or the content plus the other branch
    for (a, b, q), value in content.items():
        values = [u.triple_value(a, b, q) for u in extensions]
        if a or b:
            norm = _count_p(p, a * a - d * b * b) - 2 * _count_p(p, q)
            weighted = values * 2 if len(values) == 1 else values
            assert sorted(weighted) == sorted((value, norm - value)), (a, b, q)
    if len(extensions) == 1:
        cases = [(extensions[0], None)]
    else:  # the pair in both orders, against its members one by one
        cases = [(MinOf(order), functools.partial(_memberwise, order))
                 for order in (extensions, extensions[::-1])]
    expected = [content[t] for t in triples]
    peak = max(abs(c) for t in triples for c in t)
    dtypes = (np.int64, object) if peak < INT64_LIMIT else (object,)
    columns = list(zip(*triples))
    for w, memberwise in cases:
        for t in triples:
            got = w.triple_value(*t)
            if memberwise:
                assert got == memberwise(*t), (w, t)
            assert got == content[t], (w, t)
        for dtype in dtypes:
            for shape in ((len(triples),), (len(triples), 1), (1, len(triples))):
                a, b, q = (np.array(c, dtype=dtype).reshape(shape) for c in columns)
                got = w.triple_value(a, b, q)
                if memberwise:
                    assert got.tolist() == memberwise(a, b, q).tolist(), (w, dtype)
                assert _listed(got) == expected
                assert dtype is object or got.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 7, 101)), st.integers(0, 5000), st.integers(-10**6, 10**6))
def test_int_valuation_matches_unit_steps(p, v, unit):
    n = (unit or 1) * p**v
    expected, m = 0, n
    while m % p == 0:
        m //= p
        expected += 1
    assert int_valuation(p, n) == expected


# ---------------------------------------------------------------------------
# At a ramified p the one extension is v_p(A² − d·B²)/2 − v_p(Q), which the
# constructor reads from v_p(A) and v_p(B) without forming the norm.  The
# reference below forms the norm and counts its factors of p one at a time.

RAMIFIED_FIELDS = [(2, -1), (2, 2), (2, -2), (2, 3), (3, -3), (3, 6), (5, 5), (7, -7)]
assert {d % 4 for p, d in RAMIFIED_FIELDS if p == 2} == {2, 3}  # both ramified classes at 2


def _ramified_by_norm(p, d, a, b, q):
    return INF if a == b == 0 else _count_p(p, a * a - d * b * b) - 2 * _count_p(p, q)


def _count_p_entries(p, n):
    """_count_p of every nonzero entry of an int64 array, one division round at a time."""
    count, at = np.zeros(n.shape, np.int64), np.flatnonzero(n)
    cur = n[at]
    while at.size:
        still = cur % p == 0
        at, cur = at[still], cur[still] // p
        count[at] += 1
    return count


@pytest.mark.parametrize("p, d", RAMIFIED_FIELDS)
def test_ramified_closed_form_equals_the_norm_on_the_box(p, d):
    # every (A, B) with |A|, |B| ≤ 200 over Q ∈ {1, 2, 4, 9, 25, 49}: as int64
    # arrays, as one object array, and on Python ints where |A|, |B| ≤ 8
    w = extensions_of(p, d)[0]
    assert w.kind is SplitKind.RAMIFIED
    a, b = (c.ravel() for c in np.meshgrid(np.arange(-200, 201), np.arange(-200, 201)))
    zero, small = (a == 0) & (b == 0), np.flatnonzero((abs(a) <= 8) & (abs(b) <= 8))
    v_norm = _count_p_entries(p, a * a - d * b * b)
    for q in (1, 2, 4, 9, 25, 49):
        expected = np.where(zero, INF, v_norm - 2 * _count_p(p, q))
        got = w.triple_value(a, b, np.full(a.shape, q))
        assert got.dtype == np.int64 and np.array_equal(got, expected), q
        for e, f, want in zip(a[small].tolist(), b[small].tolist(), expected[small].tolist()):
            if e or f:
                assert w.triple_value(e, f, q) == want == _ramified_by_norm(p, d, e, f, q)
    objects = w.triple_value(*(c.astype(object) for c in (a, b, np.full(a.shape, 9))))
    assert objects.dtype == object
    assert objects.tolist() == np.where(zero, INF, v_norm - 2 * _count_p(p, 9)).tolist()


@st.composite
def ramified_wide_cases(draw):
    """(p, d, triples, top): coordinates 0, any integer or ±u·p^k up to top (2^200, or
    just below 2^62 for an int64 array whose norms pass 2^62), A and B often sharing k."""
    p, d = draw(st.sampled_from(RAMIFIED_FIELDS))
    top = draw(st.sampled_from((INT64_LIMIT - 1, 1 << 200)))
    deepest = next(k for k in range(201) if (2 * p + 3) * p ** (k + 1) > top)

    def at_depth(k):
        return st.builds(lambda s, u: s * u * p**k, st.sampled_from((1, -1)), st.integers(1, 2 * p + 3))

    coordinate = st.one_of(st.just(0), st.integers(-top, top),
                           st.integers(0, deepest).flatmap(at_depth))
    tied = st.integers(0, deepest).flatmap(lambda k: st.tuples(at_depth(k), at_depth(k)))
    pairs = st.lists(st.one_of(st.tuples(coordinate, coordinate), tied), min_size=1, max_size=10)
    q = st.builds(lambda r, j: r * p**j, st.integers(1, 60), st.integers(0, 8))
    return p, d, [(a, b, draw(q)) for a, b in draw(pairs)], top


@settings(max_examples=60, deadline=None)
@given(ramified_wide_cases())
@example((2, 3, [(3 * 2**60, 2**60, 1), (2**61, 3 * 2**60, 1), (INT64_LIMIT - 1, 1, 3)],
          INT64_LIMIT - 1))
# INF enters 2a or 2b + 1 where A or B is 0, and A = B ties at the int64 edge
@example((2, 2, [(0, INT64_LIMIT - 1, 1), (0, 1 - INT64_LIMIT, 4), (2**61, 0, 3), (2**61, 2**61, 2)],
          INT64_LIMIT - 1))
@example((2, 3, [(0, INT64_LIMIT - 1, 1), (0, 1 - INT64_LIMIT, 4), (2**61, 0, 3), (2**61, 2**61, 2)],
          INT64_LIMIT - 1))
@example((7, -7, [(7**70, 7**69, 49), (0, 3 * 7**100, 1), (5 * 7**80, 0, 7)], 1 << 200))
def test_ramified_closed_form_equals_the_norm_past_int64(case):
    p, d, triples, top = case
    w = extensions_of(p, d)[0]
    expected = [_ramified_by_norm(p, d, *t) for t in triples]
    assert [w.triple_value(*t) for t in triples if t[0] or t[1]] == [
        want for t, want in zip(triples, expected) if t[0] or t[1]]
    for dtype in (np.int64, object) if top < INT64_LIMIT else (object,):
        got = w.triple_value(*(np.array(c, dtype=dtype) for c in zip(*triples)))
        assert got.dtype == dtype and got.tolist() == expected


# ---------------------------------------------------------------------------
# A split branch reads t = A + (B mod p^K)·s_K, its root lifted to the largest
# p^K ≤ 2^31, and only entries with t ≡ 0 mod p^K take the seed and the norm.
# The entries below straddle that boundary: A + B·s lies exactly K − 2 … K + 2
# and 70 digits deep, with negative B, and with A or B at the int64 edges.

ROOT_DIGITS = {(2, -7): 31, (5, -1): 13, (7, 2): 11, (11, 5): 8}
EDGE = INT64_LIMIT - 1


def _short_pair(p, s, j):
    """A short (A, B) with A + B·s ≡ 0 (mod p^j): Gauss reduction of the lattice
    spanned by (p^j, 0) and (−s mod p^j, 1)."""
    u, v = (p**j, 0), (-s % p**j, 1)
    norm = lambda w: w[0] * w[0] + w[1] * w[1]
    while True:
        if norm(u) < norm(v):
            u, v = v, u
        m = round(Fraction(u[0] * v[0] + u[1] * v[1], norm(v)))
        if m == 0:
            return v
        u = (u[0] - m * v[0], u[1] - m * v[1])


def _boundary_triples(p, d, branch, k):
    s = hensel_sqrt(p, d, 90, branch)
    triples = [(EDGE, EDGE, 1), (-EDGE, EDGE, p), (EDGE, -EDGE, 3), (0, 0, 1), (0, -EDGE, 1)]
    for j in (k - 2, k - 1, k, k + 1, k + 2, 70):
        for i, b in enumerate((1, -1, 3, -p, -2 * p * p - 1, EDGE, -EDGE)):
            q = (1, p, 3 * p * p)[i % 3]
            exact = -b * s % p ** (j + 6)  # A + B·s ≡ 0 mod p^(j + 6)
            triples += [(exact + p**j, b, q), (exact - 2 * p**j, b, q), (exact, b, q),
                        (EDGE - (EDGE + b * s) % p**j, b, q), ((EDGE - b * s) % p**j - EDGE, b, q)]
        a, b = _short_pair(p, s, j)
        triples += [(a, b, 1), (-a, -b, p)]
    return triples


@pytest.mark.parametrize("p, d", sorted(ROOT_DIGITS))
def test_split_values_across_the_root_precision_match_the_hensel_reference(p, d):
    k = ROOT_DIGITS[(p, d)]
    for branch in (1, 2):
        assert valuations._split_root(p, d, branch)[:2] == (k, p**k)
        u = ExtendedValuation(p, d, SplitKind.SPLIT, branch)
        triples = _boundary_triples(p, d, branch, k)
        expected = [_hensel_value(u, *t) for t in triples]
        assert {k - 2, k - 1, k, k + 1, k + 2, 70} <= set(expected) and INF in expected
        assert [u.triple_value(*t) for t in triples] == expected
        narrow = [i for i, t in enumerate(triples) if max(map(abs, t)) < INT64_LIMIT]
        assert {k - 2, k - 1, k, k + 1, k + 2} <= {expected[i] for i in narrow}
        assert any(70 <= expected[i] < INF for i in narrow) == (p == 2)  # 2^70 has a short pair
        for dtype, at in ((np.int64, narrow), (object, range(len(triples)))):
            a, b, q = (np.array(c, dtype=dtype) for c in zip(*(triples[i] for i in at)))
            got = u.triple_value(a, b, q)
            assert got.dtype == dtype and got.tolist() == [expected[i] for i in at], dtype


@pytest.mark.parametrize("p", (2147483713, 4294967311))
def test_split_value_at_a_prime_past_the_root_span(p):
    # A near ±2^62 and B near p, with A + B·s ≡ 0 mod p or p²: an int64
    # A + B·s would wrap past 2^63 and read v_p = 0, and so would
    # A + (B mod p)·s at the second p, whose square passes 2^63
    d = 2
    assert p > 2**31 and classify(p, d) is SplitKind.SPLIT
    for branch in (1, 2):
        u = ExtendedValuation(p, d, SplitKind.SPLIT, branch)
        s = hensel_sqrt(p, d, 4, branch)
        triples = [(EDGE, p - 1, 1), (-EDGE, 1 - p, p)]
        for j in (1, 2):
            for b in (p - 1, p + 1, 2 * p - 1, -(2 * p - 1), 3 * p + 7, p):
                triples += [(EDGE - (EDGE + b * s) % p**j, b, 1),
                            ((EDGE - b * s) % p**j - EDGE, b, p)]
        expected = [_hensel_value(u, *t) for t in triples]
        assert max(expected) >= 2 and [u.triple_value(*t) for t in triples] == expected
        narrow = [i for i, t in enumerate(triples) if max(map(abs, t)) < INT64_LIMIT]
        assert sum(expected[i] > 0 for i in narrow) >= 10
        for dtype, at in ((np.int64, narrow), (object, range(len(triples)))):
            a, b, q = (np.array(c, dtype=dtype) for c in zip(*(triples[i] for i in at)))
            got = u.triple_value(a, b, q)
            assert got.dtype == dtype and got.tolist() == [expected[i] for i in at], dtype


def test_split_root_cache_is_bounded():
    bound = valuations._split_root.cache_info().maxsize
    assert bound is not None
    fields = (d for d in range(2, 10**5) if is_squarefree(d))
    for d in [d for d in fields if classify(7, d) is SplitKind.SPLIT][:bound + 10]:
        u = extensions_of(7, d)[1]
        assert u.value(QuadElem(1, 1, d)) == Value(_hensel_value(u, 1, 1, 1))
    assert valuations._split_root.cache_info().currsize <= bound
