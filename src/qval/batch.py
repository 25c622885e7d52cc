"""The all-pairs axiom check on integer arrays.

The all-pairs axiom check over 500 samples makes ~10^5 field operations
and twice as many valuations per constructor; doing that through Fraction
objects is an order of magnitude too slow for the harness's time budget.
Here the samples become arrays of integer triples x = (A + B·√d)/Q, the
pairwise sums and products are formed by broadcasting, and the
constructor's own ``triple_value`` evaluates each array in one call.

The arithmetic stays exact.  A worst-case magnitude check with unbounded
Python ints, which takes the constructor's ``magnitude_bound`` into
account, picks int64 arrays when nothing can overflow and dtype=object
arrays of Python ints otherwise.  Values come back as integers scaled by
the constructor's value denominator, with the sentinel INF for ∞.
"""

import numpy as np

from .errors import DomainError
from .triples import INF, QuasiValuation, field_triple

_INT64_LIMIT = 1 << 62


def pairwise_axiom_check(w, samples):
    """All-pairs axiom check on integer arrays.

    Returns (checks_performed, violations) where violations are
    (kind, i, j) index triples into ``samples``.
    """
    if not isinstance(w, QuasiValuation):
        raise DomainError(f"{w!r} does not implement the QuasiValuation protocol")
    triples = [field_triple(x, w.d) for x in samples]
    n = len(triples)
    if not n:
        return 0, []
    max_a = max(abs(t[0]) for t in triples)
    max_b = max(abs(t[1]) for t in triples)
    max_q = max(t[2] for t in triples)
    # worst-case coordinate magnitudes after one pairwise add / multiply,
    # checked with unbounded ints before anything is narrowed to int64
    d = abs(w.d) if w.d is not None else 0
    sum_bound = (2 * max_a * max_q, 2 * max_b * max_q, max_q * max_q)
    prod_bound = (max_a * max_a + max_b * max_b * d, 2 * max_a * max_b, max_q * max_q)
    worst = tuple(map(max, sum_bound, prod_bound, (max_a, max_b, max_q)))
    fits = max(*worst, w.magnitude_bound(*worst)) < _INT64_LIMIT
    a, b, q = (np.array(column, dtype=np.int64 if fits else object) for column in zip(*triples))

    # pairwise sum and product triples via broadcasting (full matrices;
    # only the upper triangle is reported)
    a_col, b_col, q_col = a[:, None], b[:, None], q[:, None]
    sum_b = (b_col * q + q_col * b).ravel()
    pair_q = (q_col * q).ravel()
    sums = ((a_col * q + q_col * a).ravel(), sum_b, pair_q)
    if w.d is None:
        products = ((a_col * a).ravel(), sum_b, pair_q)  # sum_b is all zeros
    else:
        products = ((a_col * a + (b_col * b) * w.d).ravel(), (a_col * b + b_col * a).ravel(),
                    pair_q)

    values = w.triple_value(a, b, q)
    negated = w.triple_value(-a, -b, q)
    w_sum = w.triple_value(*sums).reshape(n, n)
    w_prod = w.triple_value(*products).reshape(n, n)

    violations: list[tuple[str, int, int]] = []
    checked = n
    for i in np.nonzero(negated != values)[0]:
        violations.append(("negation", int(i), int(i)))

    # ∞ enters every ordering through these masks, never as a number, so
    # finite values of any size compare exactly
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
