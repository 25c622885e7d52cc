from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qval.errors import DomainError
from qval.primes import (
    DETERMINISTIC_PRIMALITY_BOUND,
    factorize,
    int_valuation,
    is_prime,
    legendre_symbol,
    sqrt_mod_prime,
)


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, limit):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    for n in range(2000):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(1_000_000_007)


def test_factorize():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    with pytest.raises(DomainError):
        factorize(1)


def test_factorize_large_cofactors():
    assert factorize(1000000000000000003) == ((1000000000000000003, 1),)
    assert factorize(1000000016000000063) == ((1000000007, 1), (1000000009, 1))
    assert factorize(2 * 1009**2 * 1000000000000000003) == (
        (2, 1), (1009, 2), (1000000000000000003, 1))
    with pytest.raises(DomainError):
        factorize(DETERMINISTIC_PRIMALITY_BOUND)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.integers(2, 10**18),
    # products of numbers up to 10^6: often two or more prime factors past the
    # trial-division limit, which Pollard-Brent has to split
    st.lists(st.integers(1000, 10**6), min_size=2, max_size=4).map(prod),
))
def test_factorize_matches_sympy(sympy, n):
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


def test_int_valuation():
    assert int_valuation(2, 48) == 4
    assert int_valuation(3, -27) == 3
    assert int_valuation(5, 7) == 0


def test_legendre_brute_force():
    for p in (3, 5, 7, 11, 13):
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert legendre_symbol(a, p) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41, 97, 193])
def test_sqrt_mod_prime(p):
    for a in range(1, p):
        if legendre_symbol(a, p) == 1:
            r = sqrt_mod_prime(a, p)
            assert r * r % p == a
        else:
            with pytest.raises(DomainError):
                sqrt_mod_prime(a, p)
