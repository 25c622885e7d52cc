"""Splitting types and extension values against sympy, and one evaluation
method on every integer representation.

sympy's number-field module shares no code with qval: ``prime_decomp``
factors p in the maximal order of Q(√d) = Q[x]/(x² − d), and the exponent
of a prime ideal P in an integral element is the largest k with the
element in P^k, tested in sympy's module arithmetic.  Divided by the
ramification index e(P/p), that exponent is the extension of v_p that qval
computes at P.  (sympy 1.14's own ``prime_valuation`` fails with a
coercion error on many of these ideals, e.g. on 2·Z[√2] at P = (2, √2).)
The sympy tests are skipped when sympy is not installed.
"""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_batch import CONSTRUCTORS

from qval.quadratic import QuadElem
from qval.quasi import min_extension
from qval.sampling import elements_for
from qval.triples import field_triple
from qval.valuations import SplitKind, classify, extensions_of, hensel_sqrt

PRIMES = (2, 3, 5, 7, 11, 13)
# At p = 2 these are split (d ≡ 1 mod 8), inert (d ≡ 5 mod 8) and ramified
# (d ≡ 2, 3 mod 4).  sympy 1.14's prime_decomp(2, x² − d) does not return
# for d ≡ 1 (mod 16), so the split ones are all ≡ 9 (mod 16).
FIELDS = (-7, -23, 41, 57, 5, 13, -3, 21, 2, 6, -2, 10, 3, 7, -1, -5)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@lru_cache(maxsize=None)
def _prime_ideals(p: int, d: int):
    from sympy import Poly, symbols
    from sympy.polys.numberfields.primes import prime_decomp

    return tuple(prime_decomp(p, Poly(symbols("x") ** 2 - d)))


@lru_cache(maxsize=None)
def _ideal_power(p: int, d: int, index: int, k: int):
    """P^k for P the index-th prime ideal above p."""
    ideal = _prime_ideals(p, d)[index].as_submodule()
    return ideal if k == 1 else _ideal_power(p, d, index, k - 1) * ideal


def _ideal_value(p: int, d: int, index: int, a: int, b: int, q: int) -> Fraction:
    """v_P((a + b·√d)/q) / e(P/p) by sympy, for a + b·√d ≠ 0 and P the
    index-th prime ideal above p."""
    from sympy import Poly, symbols
    from sympy.ntheory import multiplicity
    from sympy.polys.numberfields.exceptions import ClosureFailure

    x = symbols("x")
    ideal = _prime_ideals(p, d)[index]
    alpha = ideal.ZK.parent.element_from_poly(Poly(a + b * x, x))
    exponent = 0
    while True:
        try:
            _ideal_power(p, d, index, exponent + 1).represent(alpha)
        except ClosureFailure:
            break
        exponent += 1
    return Fraction(exponent - ideal.e * multiplicity(p, q), ideal.e)


def _branch_root(p: int, d: int, k: int, branch: int) -> int:
    """A square root of d mod p^k on qval's branch, by sympy: the smaller
    residue mod p is branch 1 for odd p, and s ≡ 1 (mod 4) is branch 1 at 2."""
    from sympy.ntheory import sqrt_mod

    roots = sqrt_mod(d, p**k, all_roots=True)
    if p == 2:
        return next(r for r in roots if r % 4 == 2 * branch - 1)
    seed = sorted({r % p for r in roots})[branch - 1]
    return next(r for r in roots if r % p == seed)


@lru_cache(maxsize=None)
def _ideals_by_branch(p: int, d: int) -> tuple[int, ...]:
    """Indices of sympy's prime ideals above p, in the order of
    extensions_of(p, d): branch b's ideal is the one that √d − s lies
    deepest in, for s the branch's root of d mod p^6."""
    if len(_prime_ideals(p, d)) == 1:
        return (0,)
    return tuple(
        max((0, 1), key=lambda i: _ideal_value(p, d, i, -_branch_root(p, d, 6, branch), 1, 1))
        for branch in (1, 2)
    )


def test_classify_matches_sympy(sympy):
    for p in PRIMES:
        for d in FIELDS:
            ideals = _prime_ideals(p, d)
            if len(ideals) == 2:
                expected = SplitKind.SPLIT
            else:
                expected = SplitKind.RAMIFIED if ideals[0].e == 2 else SplitKind.INERT
            assert classify(p, d) is expected, (p, d)


def _check_against_sympy(p: int, d: int, a: int, b: int, q: int) -> None:
    x = QuadElem(Fraction(a, q), Fraction(b, q), d)
    expected = [_ideal_value(p, d, i, a, b, q) for i in _ideals_by_branch(p, d)]
    assert [w.value(x).finite_part for w in extensions_of(p, d)] == expected, (p, d, x)
    assert min_extension(p, d).value(x).finite_part == min(expected), (p, d, x)


@settings(max_examples=150, deadline=None)
# p = 2 in every class: split (41 ≡ 9 mod 16), inert (5), ramified (2 and 3)
@example(p=2, d=41, a=(3, 0), b=(1, 0), q=(3, 2))
@example(p=2, d=5, a=(3, 1), b=(5, 2), q=(1, 0))
@example(p=2, d=2, a=(1, 2), b=(3, 1), q=(5, 1))
@example(p=2, d=3, a=(1, 0), b=(1, 0), q=(1, 3))
@given(
    p=st.sampled_from(PRIMES),
    d=st.sampled_from(FIELDS),
    a=st.tuples(st.integers(-999, 999), st.integers(0, 6)),
    b=st.tuples(st.integers(-999, 999), st.integers(0, 6)),
    q=st.tuples(st.integers(1, 99), st.integers(0, 6)),
)
def test_extension_values_match_sympy(sympy, p, d, a, b, q):
    a, b, q = (u * p**e for u, e in (a, b, q))
    if a or b:
        _check_against_sympy(p, d, a, b, q)


SPLIT = tuple((p, d) for p in PRIMES for d in FIELDS if classify(p, d) is SplitKind.SPLIT)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(SPLIT),
    branch=st.sampled_from((1, 2)),
    k=st.integers(8, 80),
    b=st.integers(1, 10**4),
    unit=st.integers(1, 10**4),
    q=st.integers(1, 99),
)
def test_adversarial_split_elements_match_sympy(sympy, field, branch, k, b, unit, q):
    """a ≡ −b·s (mod p^k) for the branch root s: the value on that branch
    is at least k, and qval must raise its Hensel precision past 8."""
    p, d = field
    a = -b * _branch_root(p, d, k + 1, branch) + p**k * unit
    _check_against_sympy(p, d, a, b, q)


def test_triple_value_agrees_on_ints_and_arrays():
    rng = random.Random(41)
    for w in CONSTRUCTORS:
        triples = [field_triple(x, w.d) for x in elements_for(w, rng, 60)]
        if w.d == 2:
            # one entry per branch of 7 that precision 8 leaves uncertified
            triples += [(-hensel_sqrt(7, 2, 12, branch), 1, 1) for branch in (1, 2)]
        expected = np.array([w.triple_value(*t) for t in triples], dtype=object)
        for dtype in (np.int64, object):
            for shape in ((len(triples),), (2, len(triples) // 2)):
                a, b, q = (np.array(column, dtype=dtype).reshape(shape) for column in zip(*triples))
                assert (w.triple_value(a, b, q).tolist()
                        == expected.reshape(shape).tolist()), (w, dtype, shape)
