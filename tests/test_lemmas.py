import json
import random
from fractions import Fraction

import pytest

from qval import cli, lemmas
from qval.errors import PropertyViolation
from qval.lemmas import (LEMMA_IDS, _one_element, _pick, _random_bound, constructor_pool,
                         run_lemma)
from qval.quasi import QVRing
from qval.report import PropertyReport
from qval.sampling import elements_for, shift_above
from qval.triples import QuasiValuation
from qval.valuations import ExtendedValuation, PAdicValuation, v_p


def test_pool_covers_all_shapes():
    pool = constructor_pool()
    names = {type(w).__name__ for w in pool}
    assert names == {"PAdicValuation", "ExtendedValuation", "MinOf", "NAdic"}
    extending = constructor_pool(extending_only=True)
    assert all(w.extended_prime is not None for w in extending)


@pytest.mark.parametrize("lemma_id", sorted(LEMMA_IDS))
def test_lemma_checks_pass(lemma_id):
    report = run_lemma(lemma_id, seed=1234, instances=6, samples=30)
    assert report.passed, report.to_json(indent=2)
    assert report.seed == 1234
    assert report.instances > 0


def test_reports_have_the_fixed_shape():
    report = run_lemma("2.10", seed=7, instances=2, samples=10)
    data = report.to_dict()
    assert set(data) == {"lemma", "instances", "failures", "seed"}
    assert data["lemma"] == "2.10"
    assert data["seed"] == 7


def test_unknown_id_rejected():
    with pytest.raises(PropertyViolation):
        run_lemma("9.99")


def test_runs_are_reproducible():
    first = run_lemma("2.14", seed=5, instances=3, samples=12)
    second = run_lemma("2.14", seed=5, instances=3, samples=12)
    assert first.to_dict() == second.to_dict()


def test_pool_is_a_fresh_list_of_shared_constructors():
    first, second = constructor_pool(), constructor_pool()
    assert first == second and first is not second
    first.clear()
    assert constructor_pool() == second
    assert all(a is b for a, b in zip(constructor_pool(), second))


# The scalar loops of 2.10 and 2.17 that the gauge rows replace: one value()
# per sample, and the four-way chain as four scalar readings.  They draw from
# the rng in the same order as the row forms, so the reports must be equal.

def _reference_overlap_bound(seed, instances, samples):
    rng = random.Random(seed)
    pool = constructor_pool()
    report = PropertyReport(lemma="2.10", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        x = _one_element(w, rng)
        m = _random_bound(rng)
        for _ in range(samples):
            z = x + shift_above(w, m, rng, strict=True)
            y = z - shift_above(w, m, rng, strict=True)
            report.record()
            gauge = w.value(y - x)
            if not gauge > m:
                report.fail({"w": w, "x": x, "y": y, "z": z, "m": m}, f"w(y - x) > {m}",
                            str(gauge))
    return report


def _reference_chain(w, x, a):
    va = v_p(w.extended_prime, a).finite_part
    wx = w.value(x)
    scaled = x / a
    conditions = (wx >= va, wx - va >= 0, w.value(scaled) >= 0, QVRing(w).contains(scaled))
    if len(set(conditions)) != 1:
        raise PropertyViolation(
            f"threshold conditions disagree for w={w}, x={x}, a={a}: {conditions}")


def _reference_threshold_chain(seed, instances, samples):
    rng = random.Random(seed)
    pool = constructor_pool(extending_only=True)
    report = PropertyReport(lemma="2.17", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        xs = elements_for(w, rng, samples)
        thresholds = []
        while len(thresholds) < samples:
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if a != 0:
                thresholds.append(a)
        for x, a in zip(xs, thresholds):
            report.record()
            try:
                _reference_chain(w, x, a)
            except PropertyViolation as exc:
                report.fail({"w": w, "x": x, "a": a}, "four-way agreement", str(exc))
    return report


REFERENCES = {"2.10": _reference_overlap_bound, "2.17": _reference_threshold_chain}


def _lower_odd(v):
    """A corruption by value alone: odd values (scaled by the value
    denominator) drop by one, the same on ints and on arrays of any triple."""
    return v - (v % 2 == 1)


def _lower_two_mod_three(v):
    return v - (v % 3 == 2)


def _assert_rows_match_the_scalar_loops():
    """Failures per lemma id, after comparing every report with its reference."""
    failures = dict.fromkeys(REFERENCES, 0)
    for lemma_id, reference in REFERENCES.items():
        for seed in range(4):
            for instances, samples in ((3, 30), (10, 6), (2, 1), (1, 0)):
                got = run_lemma(lemma_id, seed, instances, samples).to_dict()
                assert got == reference(seed, instances, samples).to_dict(), (lemma_id, seed)
                failures[lemma_id] += len(got["failures"])
    return failures


def test_row_forms_match_the_scalar_loops_on_the_pool():
    assert set(_assert_rows_match_the_scalar_loops().values()) == {0}


@pytest.mark.parametrize("cls, corruption", [(PAdicValuation, _lower_odd),
                                             (ExtendedValuation, _lower_two_mod_three)])
def test_row_forms_match_the_scalar_loops_under_a_corrupted_constructor(
        monkeypatch, cls, corruption):
    honest = cls.triple_value
    monkeypatch.setattr(cls, "triple_value",
                        lambda self, a, b, q: corruption(honest(self, a, b, q)))
    assert all(_assert_rows_match_the_scalar_loops().values())


class _CorruptedV2(QuasiValuation):
    """v_2 with each value passed through ``corruption``: no quasi-valuation
    any more, so the ball checks must report it."""

    d = None
    extended_prime = 2
    base_primes = frozenset((2,))

    def __init__(self, corruption):
        self.corruption = corruption

    def triple_value(self, a, b, q):
        return self.corruption(PAdicValuation(2).triple_value(a, b, q), a)

    def __str__(self):
        return "corrupted-v2"


def _halved(v, a):
    return v // 2


def _doubled(v, a):
    return 2 * v


def _raised_at_odd_multiples_of_3(v, a):
    return v + (a % 2 != 0) * (a % 3 == 0)


MEMBER_INPUTS = frozenset("mwxyz")  # a sampled member z broke the claim
POINT_INPUTS = frozenset("mwxy")  # the constructed point y already did
RECENTER_INPUTS = frozenset(("w", "y", "m1", "m2"))  # y fell outside a ball it was built in


@pytest.mark.parametrize("lemma_id, corruption, inputs", [
    ("2.2", _halved, {RECENTER_INPUTS}),
    ("2.11", _doubled, {MEMBER_INPUTS}),
    ("2.12", _halved, {POINT_INPUTS}),
    ("2.12", _raised_at_odd_multiples_of_3, {MEMBER_INPUTS}),
    ("2.14", _halved, {POINT_INPUTS, MEMBER_INPUTS}),
    ("2.15", _halved, {POINT_INPUTS, MEMBER_INPUTS | {"alpha"}}),
], ids=["2.2", "2.11", "2.12-point", "2.12-member", "2.14", "2.15"])
def test_ball_checks_report_a_corrupted_v2(monkeypatch, lemma_id, corruption, inputs):
    w = _CorruptedV2(corruption)
    monkeypatch.setattr(lemmas, "constructor_pool", lambda extending_only=False: [w])
    report = run_lemma(lemma_id, seed=0, instances=4, samples=20)
    failures = report.to_dict()["failures"]
    assert failures and report.instances > 0
    assert {frozenset(f["inputs"]) for f in failures} == inputs
    assert {f["inputs"]["w"] for f in failures} == {"corrupted-v2"}


@pytest.mark.parametrize("lemma_id, expected", [
    ("2.2", "y lies in both balls"),
    ("2.15", "sampled member lies in the strict ball"),
])
def test_lemma_cli_reports_a_failed_precondition(monkeypatch, capsys, lemma_id, expected):
    # recenter and closed_piece refuse a point outside the ball (DomainError);
    # under a broken constructor that is a failure of the check, not a usage error
    w = _CorruptedV2(_halved)
    monkeypatch.setattr(lemmas, "constructor_pool", lambda extending_only=False: [w])
    code = cli.main(["--format", "json", "lemma", "--id", lemma_id, "--instances", "4",
                     "--samples", "20"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["lemma"] == lemma_id
    refused = [f for f in report["failures"] if f["expected"] == expected]
    assert refused and all(f["got"].startswith(f"{f['inputs']['y']} is outside U_")
                           for f in refused)


def test_separate_reports_a_corrupted_v2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_qv", lambda text: _CorruptedV2(_halved))
    code = cli.main(["--format", "json", "separate", "--qv", "vp:2", "0", "4", "--samples", "30"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["lemma"] == "hausdorff-separation"
    assert report["failures"]
    assert all(f["inputs"].keys() == {"z"} and f["expected"] == "balls are disjoint"
               and f["got"] == "z lies in both" for f in report["failures"])
