import json
import random
from fractions import Fraction

import pytest

from qval.approximation import (
    ApproxTarget,
    dump_problem,
    intersection_basis,
    load_problem,
    rational_approx,
    solve_problem_file,
    weak_approx,
)
from qval.errors import DomainError
from qval.exprparse import MAX_DIGITS
from qval.quadratic import QuadElem
from qval.quasi import min_extension
from qval.valuations import v_p
from qval.values import INFINITY, Value


def test_crt_example():
    x = rational_approx([(2, 1, 3), (3, 0, 2)])
    assert x == 9
    assert v_p(2, x - 1) >= 3
    assert v_p(3, x) >= 2


def test_single_target_short_circuit():
    x = rational_approx([(7, Fraction(22, 3), 5)])
    assert x == Fraction(22, 3)


def test_negative_bounds_and_fractional_targets():
    targets = [(2, Fraction(1, 3), -1), (5, Fraction(1, 2), 1)]
    x = rational_approx(targets)
    assert v_p(2, x - Fraction(1, 3)) >= -1
    assert v_p(5, x - Fraction(1, 2)) >= 1


def test_repeated_prime_rejected():
    with pytest.raises(DomainError):
        rational_approx([(2, 1, 1), (2, 0, 1)])
    with pytest.raises(DomainError):
        weak_approx(2, [ApproxTarget(3, Fraction(1), Fraction(0)),
                        ApproxTarget(3, Fraction(2), Fraction(0))])


def test_non_integer_bound_rejected():
    with pytest.raises(DomainError):
        rational_approx([(2, 1, Fraction(1, 2)), (3, 0, 1)])


def test_against_brute_force_small_instances():
    rng = random.Random(99)
    for _ in range(200):
        x1, x2 = rng.randint(-10, 10), rng.randint(-10, 10)
        a1, a2 = rng.randint(0, 3), rng.randint(0, 3)
        x = rational_approx([(2, x1, a1), (3, x2, a2)])
        assert v_p(2, x - x1) >= a1
        assert v_p(3, x - x2) >= a2
        modulus = 2**a1 * 3**a2
        feasible = [
            y for y in range(modulus)
            if (y - x1) % 2**a1 == 0 and (y - x2) % 3**a2 == 0
        ]
        assert feasible, "brute force must find a solution too"
        assert x.denominator == 1 and int(x) % modulus in feasible


def test_solutions_past_the_digit_limit_are_refused():
    # 13285·log10(2) + log10(5) ≈ 3999.9 digits of CRT modulus; one more power of 2 is over
    x = rational_approx([(2, 1, 13285), (5, 0, 1)])
    assert v_p(2, x - 1) >= 13285 and v_p(5, x) >= 1
    assert len(str(x.numerator)) <= MAX_DIGITS
    with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
        rational_approx([(2, 1, 13286), (5, 0, 1)])
    # the common denominator alone: 3^4000·7^4000 has over 5000 digits
    with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
        rational_approx([(2, Fraction(1, 3**4000), 1), (5, Fraction(1, 7**4000), 1)])
    for m in (5000, 10**5, 10**100):
        targets = [ApproxTarget(3, QuadElem(Fraction(1, 7), Fraction(3), 2), Fraction(m)),
                   ApproxTarget(5, QuadElem(Fraction(2), Fraction(-1, 3), 2), Fraction(m))]
        with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
            weak_approx(2, targets)


def test_intersection_basis_examples():
    qvs = [min_extension(3, 2), min_extension(5, 2)]
    one, r = intersection_basis(2, qvs)
    assert one == 1 and r == QuadElem.root(2)
    for qv in qvs:
        assert qv.value(r) == Value(0)

    ram_only = [min_extension(2, 2)]
    one, r = intersection_basis(2, ram_only)
    assert r == QuadElem.root(2)
    assert ram_only[0].value(r) == Value(Fraction(1, 2))


class _Depressed:
    """Values irrational elements 4 lower than the canonical extension, so
    sqrt(d) lands below 0 and the basis scaling loop has to run.  Rationals
    are untouched, which keeps them stable and keeps 1 in the ring."""

    def __init__(self, p, d):
        self.inner = min_extension(p, d)
        self.d = d
        self.extended_prime = p

    def value(self, x):
        v = self.inner.value(x)
        if v.is_infinite or (isinstance(x, QuadElem) and x.is_rational) or isinstance(x, Fraction):
            return v
        return v - Fraction(4)


def test_intersection_basis_scales_when_needed():
    qv = _Depressed(3, 2)
    assert qv.value(QuadElem.root(2)) < 0
    one, r = intersection_basis(2, [qv])
    assert qv.value(r) >= 0
    assert r.a == 0 and r.b == 81  # scaled by 3^4
    del qv.extended_prime  # no declared prime to rescale by
    with pytest.raises(DomainError, match="this operation needs a declared base prime"):
        intersection_basis(2, [qv])


def test_weak_approx_example_instance():
    targets = [
        ApproxTarget(3, QuadElem(Fraction(1), Fraction(1), 2), Fraction(1)),
        ApproxTarget(5, Fraction(1, 2), Fraction(2)),
    ]
    solution = weak_approx(2, targets)
    qvs = [min_extension(3, 2), min_extension(5, 2)]
    for target, qv, cert in zip(targets, qvs, solution.certificates):
        achieved = qv.value(solution.x - QuadElem.from_rational(target.x, 2)
                            if isinstance(target.x, Fraction) else solution.x - target.x)
        assert achieved == cert.achieved
        assert achieved >= target.m
        assert cert.satisfied


def test_weak_approx_secondary_brute_force_witness():
    # independent confirmation on a small instance: some element of the form
    # (a + b*sqrt(2)) / (3^j * 5^k) with small coordinates already solves it
    targets = [
        ApproxTarget(3, QuadElem(Fraction(1), Fraction(1), 2), Fraction(1)),
        ApproxTarget(5, Fraction(1, 2), Fraction(1)),
    ]
    qvs = [min_extension(3, 2), min_extension(5, 2)]
    found = None
    for a in range(-20, 21):
        for b in range(-20, 21):
            x = QuadElem(Fraction(a), Fraction(b), 2)
            if all(qv.value(x - t.x) >= t.m for qv, t in zip(qvs, targets)):
                found = x
                break
        if found:
            break
    assert found is not None
    solution = weak_approx(2, targets)
    assert all(c.satisfied for c in solution.certificates)


def test_weak_approx_single_target():
    target = ApproxTarget(7, QuadElem(Fraction(2), Fraction(3), 5), Fraction(4))
    solution = weak_approx(5, [target])
    assert solution.x == target.x
    assert solution.certificates[0].achieved == INFINITY


def test_weak_approx_zero_instance():
    targets = [ApproxTarget(p, Fraction(0), Fraction(0)) for p in (2, 3, 5)]
    solution = weak_approx(2, targets)
    for cert in solution.certificates:
        assert cert.satisfied


def test_weak_approx_margin_is_strict():
    targets = [
        ApproxTarget(2, QuadElem(Fraction(5, 3), Fraction(-7, 4), 5), Fraction(-2)),
        ApproxTarget(7, QuadElem(Fraction(1, 6), Fraction(9, 2), 5), Fraction(3)),
        ApproxTarget(11, QuadElem(Fraction(-8), Fraction(2, 9), 5), Fraction(1, 2)),
    ]
    solution = weak_approx(5, targets)
    for cert, target in zip(solution.certificates, targets):
        assert cert.achieved > target.m  # the integer bound sits strictly above


def test_rational_factors_are_stable_under_the_solver_qvs():
    # the bound estimate splits w(c * r) into v_p(c) + w(r) for rational c;
    # that step needs rational elements to be stable, checked here on the
    # same quasi-valuations the solver uses
    from qval.quasi import instability_witness
    from qval.sampling import quad_elements

    rng = random.Random(55)
    targets = [
        ApproxTarget(3, QuadElem(Fraction(1), Fraction(1), 2), Fraction(1)),
        ApproxTarget(5, Fraction(1, 2), Fraction(2)),
    ]
    solution = weak_approx(2, targets)
    samples = quad_elements(rng, 2, 40) + [QuadElem.root(2)]
    for target, qv in zip(targets, (min_extension(3, 2), min_extension(5, 2))):
        difference = solution.x - target.x
        factor = difference.a  # a rational factor of the assembled estimate
        assert instability_witness(qv, factor, samples) is None
        assert instability_witness(qv, Fraction(17, 6), samples) is None


def test_explicit_quasi_valuations_are_validated():
    targets = [ApproxTarget(3, Fraction(1), Fraction(1)),
               ApproxTarget(5, Fraction(2), Fraction(1))]
    with pytest.raises(DomainError):
        weak_approx(2, targets, qvs=[min_extension(5, 2), min_extension(3, 2)])
    with pytest.raises(DomainError):
        weak_approx(2, targets, qvs=[min_extension(3, 2)])
    with pytest.raises(DomainError):
        weak_approx(2, targets, qvs=[min_extension(3, 5), min_extension(5, 5)])


def test_problem_file_round_trip(tmp_path):
    targets = [
        ApproxTarget(3, QuadElem(Fraction(1, 2), Fraction(-2, 3), 2), Fraction(3, 2)),
        ApproxTarget(7, QuadElem(Fraction(4), Fraction(0), 2), Fraction(-1)),
    ]
    data = dump_problem(2, targets)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    d, loaded = load_problem(path)
    assert d == 2
    assert loaded == targets

    solution = solve_problem_file(path)
    payload = json.loads(solution.to_json())
    assert set(payload) == {"x", "certificates"}
    assert set(payload["x"]) == {"a", "b"}
    for cert in payload["certificates"]:
        assert set(cert) == {"p", "achieved", "required"}
        assert "/" in cert["required"] or cert["required"].lstrip("-").isdigit()


def test_problem_file_errors():
    with pytest.raises(DomainError):
        load_problem({"targets": []})
    with pytest.raises(DomainError):
        load_problem({"d": 2, "targets": [{"p": 3, "x": {"a": 1.5, "b": "0"}, "m": "0"}]})
