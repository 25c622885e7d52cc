"""p-adic valuations on Q and their extensions to Q(√d).

A rational prime p behaves in one of three ways in Q(√d):

* **ramified**  — p divides the field discriminant (d if d ≡ 1 mod 4, else
  4d).  There is a single extension with value group (1/2)Z, v_p(norm(x))/2,
  read in closed form from v_p(A) and v_p(B) without forming the norm
  (see ``ExtendedValuation._ramified_value``).
* **inert** — d is a non-residue: again a single extension, value group Z,
  the p-content of x in an integral basis (``content_value``).
* **split** — d is a nonzero residue (d ≡ 1 mod 8 when p = 2): there are
  two extensions w(A + B·√d) = v_p(A + B·s), one per p-adic root s of d,
  read from s lifted once (``hensel_sqrt``) to the largest p^K ≤ 2^31, and
  exact past it from a seed of s and the norm (see ``_split_value``).  The
  minimum of the two is the p-content again (``content_value``).

Every extension restricts on Q to v_p itself; no rescaling is applied.
"""

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .primes import is_prime, require_prime, sqrt_mod_prime
from .quadratic import validate_discriminant
from .triples import (QuasiValuation, clamp_inf, field_triple, formed, minimum, multiplicity,
                      norm_form, patch, residue)
from .values import Value

def v_p(p: int, x) -> Value:
    """The p-adic valuation of a rational (or rational QuadElem)."""
    return PAdicValuation(p).value(x)


class SplitKind(enum.Enum):
    INERT = "inert"
    RAMIFIED = "ramified"
    SPLIT = "split"


def field_discriminant(d: int) -> int:
    validate_discriminant(d)
    return d if d % 4 == 1 else 4 * d


def classify(p: int, d: int) -> SplitKind:
    """How the prime p behaves in Q(√d): ramified, split, or inert."""
    require_prime(p)
    validate_discriminant(d)
    if field_discriminant(d) % p == 0:
        return SplitKind.RAMIFIED
    if p == 2:
        # unramified means d ≡ 1 mod 4; then d ≡ 1 mod 8 splits, d ≡ 5 is inert
        return SplitKind.SPLIT if d % 8 == 1 else SplitKind.INERT
    return SplitKind.SPLIT if pow(d % p, (p - 1) // 2, p) == 1 else SplitKind.INERT


@lru_cache(maxsize=1024)
def _split_seeds(p: int, d: int) -> tuple[int, int]:
    """The two branch seeds: square roots of d to the base precision.

    For odd p these are the roots mod p, branch 1 being the smaller.
    At p = 2 the two 2-adic roots ±s are distinguished by s mod 4
    (one root is 1 mod 4, the other 3), so the seeds live mod 4.
    """
    if p == 2:
        return (1, 3)
    r = sqrt_mod_prime(d % p, p)
    return (min(r, p - r), max(r, p - r))


def hensel_sqrt(p: int, d: int, k: int, branch: int = 1) -> int:
    """A square root of d modulo p^k on the chosen branch.

    Returns s with s² ≡ d (mod p^k) and s ≡ seed (mod p) — mod 4 when
    p = 2, where residues mod 2 cannot tell the two roots apart.
    """
    if classify(p, d) is not SplitKind.SPLIT:
        raise DomainError(f"{p} does not split in Q(sqrt({d}))")
    if k < 1:
        raise DomainError(f"precision must be >= 1, got {k}")
    if branch not in (1, 2):
        raise DomainError(f"branch must be 1 or 2, got {branch}")
    seed = _split_seeds(p, d)[branch - 1]
    if p == 2:
        if k <= 2:
            return seed % 2**k
        # Newton's step on 1/√d, t ← t(3 − d·t²)/2, takes d·t² ≡ 1 from mod 2^prec to
        # mod 2^(2·prec − 2), from t = 1 at prec = 3 (d ≡ 1 mod 8).  s = d·t then has
        # s² ≡ d, and the root on the branch s mod 4 is unique mod 2^(k−1).
        t, prec = 1, 3
        while prec < k + 2:
            prec = min(2 * prec - 2, k + 2)
            t = (t * (3 - d * t * t) >> 1) % 2**prec
        s = d * t
        return (s if (s - seed) % 4 == 0 else -s) % 2 ** (k - 1)
    # the same step at odd p takes d·t² ≡ 1 from mod p^prec to mod p^(2·prec), from
    # t = seed⁻¹ at prec = 1; s = d·t ≡ seed (mod p) is the branch's root mod p^k
    t, prec = pow(seed, -1, p), 1
    inv2 = pow(2, -1, p**k)
    while prec < k:
        prec = min(2 * prec, k)
        t = t * (3 - d * t * t) * inv2 % p**prec
    return d * t % p**k


# a split branch reads its root mod p^K for the largest p^K within this span,
# so that (B mod p^K)·s < 2^62 and the sum with an int64 A stays within int64
_ROOT_SPAN = 1 << 31


@lru_cache(maxsize=1024)
def _split_root(p: int, d: int, branch: int) -> tuple[int, int, int]:
    """(K, M, s): M = p^K for the largest K with M ≤ _ROOT_SPAN, and s ≡ the
    branch's p-adic root of d (mod M); K = 0, M = 1 and s = 0 for p past the span.

    At p = 2 the lift takes one more digit, as ``split_value_at_precision`` does.
    """
    k, m = 0, 1
    while m * p <= _ROOT_SPAN:
        k, m = k + 1, m * p
    return k, m, hensel_sqrt(p, d, k + int(p == 2), branch) % m if k else 0


@dataclass(frozen=True)
class PAdicValuation(QuasiValuation):
    """v_p on Q: the exponent of p, with v_p(0) = ∞.  Value group Z."""

    p: int
    d = None

    def __post_init__(self):
        require_prime(self.p)

    @property
    def extended_prime(self) -> int:
        return self.p

    def triple_value(self, a, b, q):
        return clamp_inf(multiplicity(a, self.p) - multiplicity(q, self.p), a == 0)

    def __str__(self) -> str:
        return f"vp:{self.p}"


@dataclass(frozen=True)
class ExtendedValuation(QuasiValuation):
    """The extension of v_p to Q(√d) determined by the splitting behavior.

    ``branch`` selects between the two split-case extensions (which agree
    on Q but send √d to opposite p-adic roots); it is 0 otherwise.
    """

    p: int
    d: int
    kind: SplitKind
    branch: int = 0

    def __post_init__(self):
        actual = classify(self.p, self.d)
        if actual is not self.kind:
            raise DomainError(
                f"{self.p} is {actual.value} in Q(sqrt({self.d})), not {self.kind.value}"
            )
        if self.kind is SplitKind.SPLIT:
            if self.branch not in (1, 2):
                raise DomainError("split extensions need branch 1 or 2")
        elif self.branch != 0:
            raise DomainError(f"{self.kind.value} extensions have no branches")

    @property
    def extended_prime(self) -> int:
        return self.p

    @property
    def value_denominator(self) -> int:
        return 2 if self.kind is SplitKind.RAMIFIED else 1

    def conjugate_branch(self) -> "ExtendedValuation":
        if self.kind is not SplitKind.SPLIT:
            return self
        return ExtendedValuation(self.p, self.d, self.kind, 3 - self.branch)

    def triple_value(self, a, b, q):
        if self.kind is SplitKind.SPLIT:
            return self._split_value(a, b, q)
        if self.kind is SplitKind.INERT:
            return content_value(self.p, a, b, q)
        return self._ramified_value(a, b, q)

    def _ramified_value(self, a, b, q):
        """v_p(A² − d·B²) − 2·v_p(Q), w(x) in half-units, from a = v_p(A) and b = v_p(B).

        Where v_p(d) = 1 (odd p, or d ≡ 2 mod 4 at p = 2; d is squarefree),
        v_p(A²) = 2a is even and v_p(d·B²) = 2b + 1 odd: they never tie, and
        v_p(A² − d·B²) = min(2a, 2b + 1).  At p = 2 with d ≡ 3 mod 4 it is
        2·min(a, b) + [a = b], since A′² − d·B′² ≡ 1 − d ≡ 2 (mod 4) for odd
        A′ and B′.  A zero coordinate reads INF, and 2·INF + 1 stays within int64.
        """
        p = self.p
        va, vb = multiplicity(a, p), multiplicity(b, p)
        if p == 2 and self.d % 4 == 3:
            v = 2 * minimum(va, vb) + (va == vb)
        else:
            v = minimum(2 * va, 2 * vb + 1)
        return clamp_inf(v - 2 * multiplicity(q, p), (a == 0) & (b == 0))

    def _split_value(self, a, b, q):
        """v_p(A + B·s) − v_p(Q), exactly, for the branch's p-adic root s of d.

        With (K, M, s_K) = ``_split_root``, t = A + (B mod M)·s_K ≡ A + B·s
        (mod p^K), so v_p(t) is the value wherever it is below K.  B mod M is
        the floor residue, so 0 ≤ (B mod M)·s_K < 2^62 and t fits int64.  The
        entries with v_p(t) ≥ K, every one at p past 2^31 where K = 0, take
        ``_seeded_value``.
        """
        k, m, s = _split_root(self.p, self.d, self.branch)
        zero = (a == 0) & (b == 0)
        v = multiplicity(a + residue(b, m) * s, self.p)
        v = patch(v, (v >= k) ^ zero, self._seeded_value, a, b)  # x = 0 has t = 0, so v = INF ≥ K
        return clamp_inf(v - multiplicity(q, self.p), zero)

    def _seeded_value(self, a, b):
        """v_p(A + B·s) for (A, B) ≠ (0, 0), from the branch's seed and the norm.

        The seed agrees with s to 1 + e digits (e = 1 at p = 2, else 0), so
        v_p(A + B·seed) = v_p(A + B·s) where it is below v_p(B) + 1 + e.
        Elsewhere A + B·s outruns 2B·s, so v_p(A − B·s) = v_p(B) + e and the
        norm gives v_p(A + B·s) = v_p(A² − d·B²) − v_p(B) − e.
        """
        p, d, e = self.p, self.d, int(self.p == 2)
        seed = _split_seeds(p, d)[self.branch - 1]
        vt = multiplicity(formed(lambda a, b: a + b * seed, a, b), p)
        vb = multiplicity(b, p)
        return patch(vt, vt > vb + e,
                     lambda a, b, vb: multiplicity(norm_form(a, b, d), p) - vb - e, a, b, vb)

    def split_value_at_precision(self, x, k: int):
        """Evaluate at fixed Hensel precision k, with the stability certificate.

        A reference; ``triple_value`` does not call it.  x is a field
        element or an integer triple (A, B, Q) of ints or arrays.  Returns
        (value, certified), the value as in ``triple_value``.  The root s
        agrees with the p-adic one to k digits, so the computed valuation
        of A + B·s is exact as soon as it falls below v_p(B) + k.
        """
        a, b, q = x if isinstance(x, tuple) else field_triple(x, self.d)
        # at p = 2 the bit-by-bit lift trails one digit behind: take one more
        s = hensel_sqrt(self.p, self.d, k + int(self.p == 2), self.branch) % self.p**k
        t = a + b * s
        vt = multiplicity(t, self.p)
        certified = (b == 0) | (vt < multiplicity(b, self.p) + k)
        return clamp_inf(vt - multiplicity(q, self.p), t == 0), certified

    def __str__(self) -> str:
        if self.kind is SplitKind.SPLIT:
            return f"split{self.branch}:{self.p},d={self.d}"
        tag = "inert" if self.kind is SplitKind.INERT else "ram"
        return f"{tag}:{self.p},d={self.d}"


def content_value(p: int, a, b, q):
    """min over the extensions of v_p to Q(√d) at an unramified p, on ints or arrays.

    That minimum is the p-content of x = (A + B·√d)/Q in an integral basis,
    since the integral closure of Z_(p) is the intersection of the
    extensions' valuation rings and pO is a product of distinct primes
    (Neukirch, I §8 and II §8).  At odd p the basis is 1, √d; at p = 2
    (d ≡ 1 mod 4) it is 1, (1 + √d)/2, and A + B·√d = (A − B) + 2B·(1 + √d)/2.
    """
    # int64 entries are below INT64_LIMIT, so A − B and 2B fit; at p = 2 the least
    # multiplicity of the two is the lowest set bit of their union
    if p == 2:
        v = multiplicity((a - b) | (2 * b), 2)
    else:
        v = minimum(multiplicity(a, p), multiplicity(b, p))
    return clamp_inf(v - multiplicity(q, p), (a == 0) & (b == 0))


def extensions_of(p: int, d: int) -> tuple[ExtendedValuation, ...]:
    """All extensions of v_p to Q(√d): one for inert/ramified, two for split."""
    kind = classify(p, d)
    branches = (1, 2) if kind is SplitKind.SPLIT else (0,)
    return tuple(ExtendedValuation(p, d, kind, branch) for branch in branches)


def primes_by_kind(d: int, kind: SplitKind, count: int = 1, start: int = 2) -> list[int]:
    """The first ``count`` primes ≥ start with the given behavior in Q(√d)."""
    found: list[int] = []
    p = start
    while len(found) < count:
        if is_prime(p) and classify(p, d) is kind:
            found.append(p)
        p += 1
    return found
