"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines while passing).  All comparisons are exact; the only
tolerances anywhere are the two wall-clock budgets, asserted as stated.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qval.approximation import ApproxTarget, rational_approx, weak_approx
from qval.triples import multiplicity
from qval.lemmas import run_lemma
from qval.primes import factorize
from qval.quadratic import QuadElem
from qval.quasi import (
    MinOf,
    NAdic,
    Scaled,
    check_axioms,
    min_extension,
    n_adic,
    n_adic_decomposition,
)
from qval.sampling import elements_for, quad_elements
from qval.topology import ring_value_equivalence
from qval.valuations import (
    PAdicValuation,
    SplitKind,
    extensions_of,
    primes_by_kind,
    v_p,
)
from qval.values import Value

FIELDS = (-1, 2, 5, -7)
NADIC_BASES = (2, 3, 4, 6, 12)


def _report(n: int, passed: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


def _axiom_configurations():
    for p in (2, 3, 5, 7):
        yield PAdicValuation(p)
    for d in FIELDS:
        for kind in SplitKind:
            p = primes_by_kind(d, kind)[0]
            yield extensions_of(p, d)[0]
        split_p = primes_by_kind(d, SplitKind.SPLIT)[0]
        yield min_extension(split_p, d)
    for n in NADIC_BASES:
        yield NAdic(n)


def test_criterion_1_axiom_suite():
    """(B1)-(B3) plus the symmetry facts, all pairs over 500 samples per
    constructor, exact comparisons, under 10 seconds."""
    started = time.monotonic()
    failures = []
    configs = 0
    for index, w in enumerate(_axiom_configurations()):
        configs += 1
        rng = random.Random(10_000 + index)
        samples = elements_for(w, rng, 500)
        report = check_axioms(w, samples, seed=10_000 + index)
        if not report.passed:
            failures.append(report.summary())
    elapsed = time.monotonic() - started
    _report(
        1,
        not failures and elapsed < 10.0,
        f"{configs} constructors x 500 samples, all pairs, {elapsed:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def _coprime_values():
    """Every distinct rational value of the grid num, den in [-500, 500]\\{0},
    as arrays (c, b) with b > 0: both the n-adic function and the
    decomposition depend only on the value num/den, and each grid entry
    reduces to +-a/b with gcd(a, b) = 1, 1 <= a, b <= 500."""
    span = np.arange(1, 501, dtype=np.int64)
    coprime = np.gcd.outer(span, span) == 1
    rows, cols = np.nonzero(coprime)
    a, b = span[rows], span[cols]
    return np.concatenate([a, -a]), np.concatenate([b, b])


def _vector_closed_form(n: int, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    parts = [
        (multiplicity(c, p) - multiplicity(b, p)) // e
        for p, e in factorize(n)
    ]
    out = parts[0]
    for part in parts[1:]:
        out = np.minimum(out, part)
    return out


def _vector_decomposition(n: int, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The defining search, vectorized: the unique e with c/b = n^e * (a'/b'),
    n not dividing a', gcd(n, b') = 1."""
    window = 500 .bit_length() + 1
    found = np.zeros(c.shape, dtype=np.int64)
    matches = np.zeros(c.shape, dtype=np.int64)
    for e in range(-window, window + 1):
        if e >= 0:
            num, den = c, b * n**e
        else:
            num, den = c * n ** (-e), b
        g = np.gcd(num, den)
        reduced_num = num // g
        reduced_den = den // g
        cond = (reduced_num % n != 0) & (np.gcd(reduced_den, n) == 1)
        matches += cond
        found = np.where(cond, e, found)
    if not (matches == 1).all():
        raise AssertionError("decomposition exponent not unique on the grid")
    return found


def test_criterion_2_n_adic_oracle_equivalence():
    """Closed form == decomposition search on the exhaustive grid, and the
    scalar oracle agrees with its vectorized form on a random subsample."""
    c, b = _coprime_values()
    mismatches = 0
    rng = random.Random(2)
    for n in NADIC_BASES:
        closed = _vector_closed_form(n, c, b)
        searched = _vector_decomposition(n, c, b)
        mismatches += int((closed != searched).sum())
        for _ in range(100):
            i = rng.randrange(len(c))
            x = Fraction(int(c[i]), int(b[i]))
            assert n_adic_decomposition(n, x) == int(searched[i])
            assert n_adic(n, x) == Value(int(closed[i]))
    _report(
        2,
        mismatches == 0,
        f"{len(c)} distinct grid values x {len(NADIC_BASES)} bases, "
        f"{mismatches} mismatches",
    )


def test_criterion_3_strict_superadditivity_witness():
    w = MinOf((PAdicValuation(2), PAdicValuation(3)))
    witness = (
        w.value(6) == Value(1)
        and w.value(2) + w.value(3) == Value(0)
        and w.value(6) > w.value(2) + w.value(3)
    )
    _report(3, witness, "w(6) = 1 > 0 = w(2) + w(3) for w = min(v2, v3)")


def test_criterion_4_extension_consistency():
    """Sum and doubling rules, conjugation branch swap, and Hensel
    determinacy, exactly, on 1000 elements per configuration."""
    problems = []
    for d in FIELDS:
        rng = random.Random(40_000 + d)
        split_p = primes_by_kind(d, SplitKind.SPLIT)[0]
        u1, u2 = extensions_of(split_p, d)
        inert = extensions_of(primes_by_kind(d, SplitKind.INERT)[0], d)[0]
        ram = extensions_of(primes_by_kind(d, SplitKind.RAMIFIED)[0], d)[0]
        for x in quad_elements(rng, d, 1000, include_zero=False):
            if not x:
                continue
            norm = x.norm()
            if u1.value(x) + u2.value(x) != v_p(split_p, norm):
                problems.append(f"split sum rule at d={d}, x={x}")
            if inert.value(x) + inert.value(x) != v_p(inert.p, norm):
                problems.append(f"inert doubling at d={d}, x={x}")
            if ram.value(x) + ram.value(x) != v_p(ram.p, norm):
                problems.append(f"ramified doubling at d={d}, x={x}")
            if u1.value(x.conjugate()) != u2.value(x):
                problems.append(f"conjugation swap at d={d}, x={x}")
            if x.b != 0:
                k = 8
                while True:
                    value, certified = u1.split_value_at_precision(x, k)
                    if certified:
                        break
                    k *= 2
                later, _ = u1.split_value_at_precision(x, k + 5)
                if later != value:
                    problems.append(f"Hensel determinacy at d={d}, x={x}")
            if problems:
                break
    _report(
        4,
        not problems,
        "sum/doubling/conjugation/determinacy on 1000 elements x 4 fields"
        + (f"; first failure: {problems[:1]}" if problems else ""),
    )


@pytest.mark.parametrize("lemma_id", ["2.2", "2.10", "2.11", "2.12", "2.14", "2.15", "2.17"])
def test_criterion_5_topology_lemma_suite(lemma_id):
    report = run_lemma(lemma_id, seed=50_000, instances=20, samples=100)
    _report(
        5,
        report.passed,
        f"check {lemma_id}: {report.instances} assertions, "
        f"{len(report.failures)} failures (seed 50000)",
    )


def test_criterion_6_ring_determines_topology_boundary():
    """Same-ring pairs pass the threshold equivalence; rescalings are
    rejected at the extends-the-base-valuation precondition."""
    report = run_lemma("2.18", seed=60_000, instances=20, samples=100)
    rng = random.Random(61_000)
    u1, u2 = extensions_of(7, 2)
    samples = elements_for(u1, rng, 100)
    direct_ok = (
        ring_value_equivalence(MinOf((u1, u2)), MinOf((u2, u1)), samples).passed
        and ring_value_equivalence(u1, u1, samples).passed
        and not ring_value_equivalence(
            MinOf((u1, u2)), Scaled(MinOf((u1, u2)), 2), samples
        ).passed
    )
    _report(
        6,
        report.passed and direct_ok,
        f"equivalence on constructible pairs, rescaled variants rejected "
        f"({report.instances} assertions)",
    )


def test_criterion_7_weak_approximation_end_to_end():
    """100 random instances over Q(sqrt(2)) and Q(sqrt(5)); every certificate
    re-evaluates >= m_i (and in fact strictly above), under 30 seconds."""
    started = time.monotonic()
    rng = random.Random(70_000)
    solved = 0
    for index in range(100):
        d = (2, 5)[index % 2]
        primes = rng.sample((2, 3, 5, 7, 11), rng.randint(2, 4))
        targets = [
            ApproxTarget(
                p,
                QuadElem(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                    d,
                ),
                Fraction(rng.randint(-2, 4)),
            )
            for p in primes
        ]
        solution = weak_approx(d, targets)
        qvs = [min_extension(p, d) for p in primes]
        for target, qv, cert in zip(targets, qvs, solution.certificates):
            achieved = qv.value(solution.x - target.x)
            assert achieved == cert.achieved
            assert achieved >= target.m
            assert achieved > target.m
        solved += 1
    elapsed = time.monotonic() - started
    _report(
        7,
        solved == 100 and elapsed < 30.0,
        f"{solved}/100 instances, all certificates strict, {elapsed:.2f}s",
    )


def test_criterion_8_rational_approx_brute_force():
    """Exhaustive small instances at primes {2, 3}: the solver's output
    satisfies every constraint checked directly, and lands in the residue
    set a brute-force congruence search finds independently."""
    checked = 0
    for x1 in range(-10, 11):
        for x2 in range(-10, 11):
            for a1 in range(0, 4):
                for a2 in range(0, 4):
                    x = rational_approx([(2, x1, a1), (3, x2, a2)])
                    assert v_p(2, x - x1) >= a1
                    assert v_p(3, x - x2) >= a2
                    modulus = 2**a1 * 3**a2
                    feasible = {
                        y
                        for y in range(modulus)
                        if (y - x1) % 2**a1 == 0 and (y - x2) % 3**a2 == 0
                    }
                    assert feasible
                    assert x.denominator == 1 and int(x) % modulus in feasible
                    checked += 1
    _report(8, checked == 21 * 21 * 16, f"{checked} exhaustive small instances")
