"""Quasi-valuations evaluated on integer arrays: the all-pairs axiom check
and the ball gauges.

The all-pairs axiom check over 500 samples makes ~10^5 field operations
and twice as many valuations per constructor; doing that through Fraction
objects is an order of magnitude too slow for the harness's time budget.
Here the samples become arrays of integer triples x = (A + B·√d)/Q, the
sums and products of the n(n+1)/2 unordered pairs are formed by indexing
with the upper triangle (read-only index arrays, cached per n up to a
bound), and the constructor's own ``triple_value`` evaluates them
one call per row-major block of at most ``PAIR_BLOCK`` pairs, the samples
and their negations riding in the first (see ``pairwise_axiom_check``).
The ball gauges w(y − c) that the topology checks compare against bounds
are formed the same way: one difference triple per (center, point), all
of them evaluated once, as an integer matrix.  The gauges take the
triples the samplers draw, and ``clears`` compares them against a bound,
on arrays or, for one point (``Ball.contains``), on Python ints.  Both
take only subclasses of ``QuasiValuation`` and refuse anything else with
``DomainError``.

The arithmetic stays exact.  A worst-case magnitude check with unbounded
Python ints, on the triples formed here, picks int64 arrays when none of
them can reach ``INT64_LIMIT`` and dtype=object arrays of Python ints
otherwise.  What a constructor forms from those triples it sizes itself
(see ``triples.formed``).  Every ``triple_value`` reads p-adic
multiplicities through ``triples.multiplicity``, whose one floor-residue
loop serves every array but int64 at p = 2.  Values come back as integers
scaled by the constructor's value denominator, with the sentinel INF for ∞;
callers take ∞ from masks of zero inputs, never from the sentinel.
"""

from functools import lru_cache

import numpy as np

from .triples import INT64_LIMIT, field_triple, require_quasi_valuation


def _triples(w, elements) -> list[tuple[int, int, int]]:
    d = require_quasi_valuation(w).d
    return [field_triple(x, d) for x in elements]


def _array_dtype(a: int, b: int, q: int):
    """int64 when triples with |A| ≤ a, |B| ≤ b, Q ≤ q stay below INT64_LIMIT, else object."""
    return np.int64 if max(a, b, q) < INT64_LIMIT else object


def difference(c, y):
    """The triple of y − c for triples c and y, on ints or on broadcasting arrays."""
    (ca, cb, cq), (ya, yb, yq) = c, y
    return ya * cq - ca * yq, yb * cq - cb * yq, yq * cq


def gauge_matrix(w, centers, points):
    """The ball gauges w(y − c) for every center triple c and point triple y.

    Returns (gauges, infinite), arrays of shape (len(centers), len(points)):
    gauges[i, j] is w(points[j] − centers[i])·value_denominator and
    infinite[i, j] marks points[j] = centers[i], where w = ∞ (the gauge
    there is the sentinel and means nothing).  Elements enter as
    ``field_triple``s of w's field.
    """
    require_quasi_valuation(w)
    if not (centers and points):
        shape = (len(centers), len(points))
        return np.zeros(shape, dtype=np.int64), np.zeros(shape, bool)
    cs, ys = list(zip(*centers)), list(zip(*points))  # the A, B and Q columns
    max_a, max_b, max_q = (max(map(abs, c + y)) for c, y in zip(cs, ys))
    # (yA·cQ − cA·yQ, yB·cQ − cB·yQ, yQ·cQ) is the difference triple
    dtype = _array_dtype(2 * max_a * max_q, 2 * max_b * max_q, max_q * max_q)
    a, b, q = difference([np.array(c, dtype=dtype)[:, None] for c in cs],
                         [np.array(y, dtype=dtype) for y in ys])
    return w.triple_value(a, b, q), (a == 0) & (b == 0)


def clears(w, gauges, infinite, bound, strict: bool = False):
    """Entrywise w > bound (strict) or w ≥ bound, for scaled integer gauges
    g = w·den (ints or arrays): the least passing g is floor(bound·den) + 1
    or ceil(bound·den), and ∞ passes wherever ``infinite`` holds."""
    num, den = bound.numerator * w.value_denominator, bound.denominator  # an int or a Fraction
    least = num // den + 1 if strict else -(-num // den)
    return infinite | (gauges >= least)


@lru_cache(maxsize=4)  # only for n ≤ CACHED_TRIANGLE_N
def _pair_triangle(n: int):
    """(iu, ju): the unordered pairs i ≤ j of n samples, row-major, as
    read-only index arrays shared by every check of n samples."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


# pairs per triple_value call: a block's arrays and the constructor's temporaries
# stay small enough to reuse the heap instead of mapping fresh pages on every check
PAIR_BLOCK = 4096
# the triangle cache's 4 entries of 16·n(n+1)/2 bytes hold at most 32 MB; a larger n
# builds its indices per check, a small cost beside the check
CACHED_TRIANGLE_N = 1000


def pairwise_axiom_check(w, samples):
    """All-pairs axiom check on integer arrays.

    Returns (checks_performed, violations) where violations are
    (kind, i, j) index triples into ``samples``, grouped by kind in the
    order negation, superadditive, ultrametric, equality-case.

    The pairs i ≤ j are taken row-major in contiguous blocks of at most
    ``PAIR_BLOCK``, and one ``triple_value`` call evaluates each block's
    stack of sums and products.  The first block's stack also carries the
    samples and their negations, so a check of at most ``PAIR_BLOCK``
    pairs makes exactly one call.
    """
    triples = _triples(w, samples)
    n = len(triples)
    if not n:
        return 0, []
    columns = list(zip(*triples))  # the A, B and Q columns
    max_a, max_b, max_q = (max(map(abs, c)) for c in columns)
    # worst-case coordinate magnitudes after one pairwise add / multiply,
    # checked with unbounded ints before anything is narrowed to int64;
    # d counts where every B is 0 too, since the products multiply by it
    d = abs(w.d) if w.d is not None else 0
    sum_bound = (2 * max_a * max_q, 2 * max_b * max_q, max_q * max_q)
    prod_bound = (max_a * max_a + max(max_b, 1) ** 2 * d, 2 * max_a * max_b, max_q * max_q)
    dtype = _array_dtype(*map(max, sum_bound, prod_bound))  # these bound the samples too
    a, b, q = (np.array(c, dtype=dtype) for c in columns)
    # ∞ enters every ordering through masks of zero triples, never as a
    # number, so finite values of any size (the sentinel's too) compare exactly
    infinite = (a == 0) & (b == 0)
    iu, ju = _pair_triangle(n) if n <= CACHED_TRIANGLE_N else np.triu_indices(n)
    m = len(iu)
    found = {kind: [] for kind in ("negation", "superadditive", "ultrametric", "equality-case")}
    checked = n + 2 * m

    for start in range(0, m, PAIR_BLOCK):
        # the block's stack: (the samples, their negations,) the sums, then
        # the products of its pairs (both are symmetric in i and j, so the
        # lower triangle adds nothing); its temporaries are block-sized too
        I, J = iu[start:start + PAIR_BLOCK], ju[start:start + PAIR_BLOCK]
        head, k = 2 * n if start == 0 else 0, len(I)
        A, B, Q = (np.empty(head + 2 * k, dtype=dtype) for _ in range(3))
        if head:
            A[:n], B[:n], Q[:n], A[n:head], B[n:head], Q[n:head] = a, b, q, -a, -b, q
        sums, products = slice(head, head + k), slice(head + k, None)
        ai, bi, qi, aj, bj, qj = a[I], b[I], q[I], a[J], b[J], q[J]
        A[sums] = ai * qj + qi * aj
        B[sums] = bi * qj + qi * bj
        Q[sums] = Q[products] = qi * qj
        if w.d is None:
            A[products], B[products] = ai * aj, 0  # every B is 0
        else:
            A[products] = ai * aj + (bi * bj) * w.d
            B[products] = ai * bj + bi * aj

        stacked = w.triple_value(A, B, Q)
        if head:
            values = stacked[:n]
            found["negation"] += [("negation", int(i), int(i))
                                  for i in np.flatnonzero(stacked[n:head] != values)]
        w_sum, w_prod = stacked[sums], stacked[products]
        ix, iy, vx, vy = infinite[I], infinite[J], values[I], values[J]
        floor = np.where(ix, vy, np.where(iy, vx, np.minimum(vx, vy)))

        def report(kind, bad):
            found[kind] += [(kind, int(I[t]), int(J[t])) for t in np.flatnonzero(bad)]

        # a field has no zero divisors: xy = 0, where w(xy) = ∞, exactly when x or y is 0
        report("superadditive", ~(ix | iy) & (w_prod < vx + vy))
        report("ultrametric", ~((A[sums] == 0) & (B[sums] == 0)) & (w_sum < floor))
        differing = (ix != iy) | (vx != vy)
        report("equality-case", differing & (w_sum != floor))
        checked += int(np.count_nonzero(differing))
    return checked, [v for kind in found.values() for v in kind]
