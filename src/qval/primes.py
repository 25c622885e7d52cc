"""Integer number-theory helpers: primality, factorization, square roots mod p."""

from collections import Counter
from functools import lru_cache
from itertools import count
from math import gcd

from .errors import DomainError

# Miller-Rabin with these witnesses is deterministic below this bound
# (Sorenson & Webster).  Larger inputs are rejected rather than tested
# probabilistically.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# factorize trial-divides below this; Pollard-Brent splits what is left
_TRIAL_DIVISION_LIMIT = 1000
# Pollard-Brent multiplies this many differences before taking one gcd
_BRENT_BATCH = 128


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < ~3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= DETERMINISTIC_PRIMALITY_BOUND:
        raise DomainError(
            f"primality testing is deterministic only below {DETERMINISTIC_PRIMALITY_BOUND}; got {n}"
        )
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"expected a prime, got {p!r}")
    return p


@lru_cache(maxsize=1024)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 2 ≤ n < DETERMINISTIC_PRIMALITY_BOUND, as
    ((p, exponent), ...) with p ascending.

    Trial division removes the factors below a small limit; what remains
    is certified prime by ``is_prime`` or split by Pollard-Brent, so every
    factor returned is a proven prime.
    """
    if n < 2:
        raise DomainError(f"cannot factorize {n}")
    if n >= DETERMINISTIC_PRIMALITY_BOUND:
        raise DomainError(
            f"factorization is supported only below {DETERMINISTIC_PRIMALITY_BOUND}; got {n}"
        )
    factors: Counter[int] = Counter()
    remaining = n
    p = 2
    while p < _TRIAL_DIVISION_LIMIT and p * p <= remaining:
        while remaining % p == 0:
            remaining //= p
            factors[p] += 1
        p += 1 if p == 2 else 2
    pending = [remaining] if remaining > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            factors[m] += 1
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    return tuple(sorted(factors.items()))


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n with no prime factor below the
    trial-division limit (Brent's cycle search on x ↦ x² + c mod n)."""
    for c in count(1):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_BRENT_BATCH, r - k)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = gcd(product, n)
                k += _BRENT_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it one difference at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for odd prime p: 1 for a residue, -1 for a non-residue, 0 if p | a."""
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Requires a to be a nonzero quadratic residue mod p.
    """
    a %= p
    if a == 0 or legendre_symbol(a, p) != 1:
        raise DomainError(f"{a} is not a nonzero quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        for i in range(1, m):
            t2 = t2 * t2 % p
            if t2 == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def int_valuation(p: int, n: int) -> int:
    """Multiplicity of p in a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    return _strip(p, n)[0] if n % p == 0 else 0


def _strip(p: int, n: int) -> tuple[int, int]:
    """(v, n / p^v) with p ∤ n / p^v, by the powers p, p², p⁴, …: O(log v) steps."""
    if n % p:
        return 0, n
    v, m = _strip(p * p, n)
    return (2 * v + 1, m // p) if m % p == 0 else (2 * v, m)
