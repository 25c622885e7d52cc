import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from qval import batch, cli, lemmas, topology
from qval.batch import gauge_matrix
from qval.errors import DomainError, PropertyViolation
from qval.lemmas import (LEMMA_IDS, _one_element, _pick, _random_bound, constructor_pool,
                         run_lemma)
from qval.quasi import Scaled
from qval.report import PropertyReport
from qval.sampling import ball_members, deck_triples, elements_for, shift_above, shift_below
from qval.topology import (Ball, QVRing, Side, dichotomy, integer_refinement, recenter,
                           separation_witness)
from qval.triples import QuasiValuation, field_element
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


# Ball rows and batch's sums and products pass triple_value unreduced triples,
# so a value may depend only on the element (A + B·√d)/Q, never on the triple.
SCALINGS = (2, 3, 6, 7, 49, 2**20)


def _scaling_mismatches(w, triples):
    """(triple, k, dtype) wherever w's value moves when the triple is scaled by k."""
    mismatches = []
    for k in SCALINGS:
        scaled = [(k * a, k * b, k * q) for a, b, q in triples]
        mismatches += [(t, k, int) for t, u in zip(triples, scaled)
                       if w.triple_value(*t) != w.triple_value(*u)]
        for dtype in (np.int64, object):
            want, got = (w.triple_value(*(np.array(c, dtype=dtype) for c in zip(*ts))).tolist()
                         for ts in (triples, scaled))
            mismatches += [(t, k, dtype) for t, x, y in zip(triples, want, got) if x != y]
    return mismatches


def test_values_depend_on_the_element_not_its_triple():
    pool = constructor_pool()
    pool += [Scaled(w, Fraction(3, 2)) for w in pool]
    for w in pool:
        assert not _scaling_mismatches(w, deck_triples(w.d, random.Random(7), 40)), w
    corrupted = _CorruptedV2(_raised_at_odd_multiples_of_3)
    assert _scaling_mismatches(corrupted, deck_triples(None, random.Random(7), 40))


# The element loops of the ball checks that the rows replace: every member is
# an element and meets the ball through Ball.contains.  They take the pool
# from the lemmas module at call time, so a test may replace it.

def _element_deck_one(w, rng):
    return elements_for(w, rng, 8, include_zero=False)[-1]


def _reference_recentering(seed, instances, samples):
    rng = random.Random(seed)
    pool = lemmas.constructor_pool()
    report = PropertyReport(lemma="2.2", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        y = _element_deck_one(w, rng)
        bounds = sorted((_random_bound(rng), _random_bound(rng)))
        first = Ball(w, y - shift_above(w, bounds[0], rng, strict=True), bounds[0])
        second = Ball(w, y - shift_above(w, bounds[1], rng, strict=True), bounds[1])
        try:
            ball = recenter(first, second, y)
        except DomainError as exc:
            report.record()
            report.fail({"w": w, "y": y, "m1": bounds[0], "m2": bounds[1]},
                        "y lies in both balls", str(exc))
            continue
        for z in ball_members(ball, rng, samples):
            report.record()
            in_first, in_second = first.contains(z), second.contains(z)
            if not (in_first and in_second):
                report.fail({"w": w, "y": y, "z": z, "m1": bounds[0], "m2": bounds[1]},
                            "recentered ball lies inside both balls",
                            f"in first: {in_first}, in second: {in_second}")
    return report


def _reference_hausdorff_witnesses(seed, instances, samples):
    rng = random.Random(seed)
    pool = lemmas.constructor_pool()
    report = PropertyReport(lemma="2.11", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        x, y = _element_deck_one(w, rng), _element_deck_one(w, rng)
        if x == y:
            y = y + 1
        m, ball_x, ball_y = separation_witness(w, x, y)
        report.record()
        for own, other in ((ball_x, ball_y), (ball_y, ball_x)):
            for z in ball_members(own, rng, max(1, samples // 2)):
                report.record()
                if other.contains(z):
                    report.fail({"w": w, "x": x, "y": y, "z": z, "m": m},
                                "balls are disjoint", "z lies in both")
    return report


def _reference_clopen_separation(seed, instances, samples):
    rng = random.Random(seed)
    pool = lemmas.constructor_pool()
    report = PropertyReport(lemma="2.12", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        x = _element_deck_one(w, rng)
        m = _random_bound(rng)
        ball_x = Ball(w, x, m, strict=True)
        shift, gauge = shift_below(w, m, strict_ball=True)
        y = x + shift
        report.record()
        if ball_x.contains(y):
            report.fail({"w": w, "x": x, "y": y, "m": m},
                        f"y built with w(y-x) = {gauge} <= m stays outside", "y inside")
            continue
        for z in ball_members(Ball(w, y, m, strict=True), rng, samples):
            report.record()
            if ball_x.contains(z):
                report.fail({"w": w, "x": x, "y": y, "z": z, "m": m},
                            "U_m(y) misses U_m(x) for outside y", "z lies in both")
    return report


def _reference_closed_ball_dichotomy(seed, instances, samples):
    rng = random.Random(seed)
    pool = lemmas.constructor_pool()
    report = PropertyReport(lemma="2.14", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        x = _element_deck_one(w, rng)
        m = _random_bound(rng)
        ball = Ball(w, x, m, strict=False)
        inside_y = x + shift_above(w, m, rng, strict=False)
        outside_y = x + shift_below(w, m, strict_ball=False)[0]
        for y, expected in ((inside_y, Side.INSIDE), (outside_y, Side.OUTSIDE), (x, Side.INSIDE)):
            side, translated = dichotomy(ball, y)
            report.record()
            if side is not expected:
                report.fail({"w": w, "x": x, "y": y, "m": m},
                            f"constructed point classifies as {expected.value}", side.value)
                continue
            for z in ball_members(translated, rng, samples // 2):
                report.record()
                if ball.contains(z) != (side is Side.INSIDE):
                    report.fail({"w": w, "x": x, "y": y, "z": z, "m": m},
                                f"translated ball stays {side.value}",
                                f"member on the {('outside' if side is Side.INSIDE else 'inside')}")
    return report


def _reference_integer_refinement(seed, instances, samples):
    rng = random.Random(seed)
    pool = lemmas.constructor_pool()
    report = PropertyReport(lemma="2.15", seed=seed)
    for _ in range(instances):
        w = _pick(pool, rng)
        x = _element_deck_one(w, rng)
        m = _random_bound(rng)
        ball = Ball(w, x, m, strict=True)
        refinement = integer_refinement(ball)
        report.record()
        for y in ball_members(ball, rng, max(2, samples // 10)):
            try:
                piece = refinement.closed_piece(y)
            except DomainError as exc:
                report.record()
                report.fail({"w": w, "x": x, "y": y, "m": m},
                            "sampled member lies in the strict ball", str(exc))
                continue
            for z in ball_members(piece, rng, 10):
                report.record()
                if not ball.contains(z):
                    report.fail({"w": w, "x": x, "y": y, "z": z, "m": m,
                                 "alpha": refinement.alpha},
                                "closed piece stays inside the strict ball", "member escaped")
    return report


BALL_REFERENCES = {
    "2.2": _reference_recentering,
    "2.11": _reference_hausdorff_witnesses,
    "2.12": _reference_clopen_separation,
    "2.14": _reference_closed_ball_dichotomy,
    "2.15": _reference_integer_refinement,
}


def _corrupt(monkeypatch, setup):
    """Apply one corruption: by value on a pool class, or a corrupted v_2 as the whole pool."""
    if setup is None:
        return
    if isinstance(setup, tuple):
        cls, corruption = setup
        honest = cls.triple_value
        monkeypatch.setattr(cls, "triple_value",
                            lambda self, a, b, q: corruption(honest(self, a, b, q)))
        return
    w = _CorruptedV2(setup)
    monkeypatch.setattr(lemmas, "constructor_pool", lambda extending_only=False: [w])


# _raised_at_odd_multiples_of_3 reads the numerator a of the triple it is given,
# not the element: a row evaluates y − c as (yA·cQ − cA·yQ, ..., yQ·cQ) and
# Ball.contains, like value(), its reduced triple, so the two loops see different
# numbers there.  Its reports are pinned by hash below instead.
@pytest.mark.parametrize("setup", [
    None, (PAdicValuation, _lower_odd), (ExtendedValuation, _lower_two_mod_three),
    _halved, _doubled,
], ids=["honest", "vp-lower-odd", "ext-lower-two-mod-three", "v2-halved", "v2-doubled"])
def test_ball_rows_match_the_element_loops(monkeypatch, setup):
    _corrupt(monkeypatch, setup)
    failures = 0
    for lemma_id, reference in BALL_REFERENCES.items():
        for seed in range(4):
            for instances, samples in ((3, 30), (10, 6), (2, 1), (1, 0)):
                got = run_lemma(lemma_id, seed, instances, samples).to_dict()
                assert got == reference(seed, instances, samples).to_dict(), (lemma_id, seed)
                failures += len(got["failures"])
    assert (failures > 0) == (setup is not None)


@pytest.mark.parametrize("lemma_id", ["2.2", "2.11", "2.14", "2.15"])
def test_ball_checks_make_one_gauge_matrix_per_instance(monkeypatch, lemma_id):
    calls = []

    def recording(w, centers, points):
        calls.append((len(centers), len(points)))
        return gauge_matrix(w, centers, points)

    monkeypatch.setattr(topology, "gauge_matrix", recording)
    for seed in range(4):
        calls.clear()
        report = run_lemma(lemma_id, seed, instances=5, samples=30)
        assert report.passed and len(calls) == 5, (seed, calls)


def test_the_threshold_chain_makes_three_gauge_matrices_per_instance(monkeypatch):
    # the v(a) row, one row of w over the x then the x·a⁻¹, and the ring's row
    calls = []

    def recording(w, centers, points):
        calls.append(len(points))
        return gauge_matrix(w, centers, points)

    monkeypatch.setattr(topology, "gauge_matrix", recording)
    monkeypatch.setattr(batch, "gauge_matrix", recording)
    for seed in range(4):
        calls.clear()
        report = run_lemma("2.17", seed, instances=5, samples=30)
        assert report.passed and calls == [30, 60, 30] * 5, (seed, calls)


def test_one_element_draws_the_last_entry_of_a_deck():
    for w in constructor_pool():
        for seed in range(20):
            rng, deck_rng = random.Random(seed), random.Random(seed)
            deck = deck_triples(w.d, deck_rng, 8, include_zero=False)
            assert _one_element(w, rng) == field_element(deck[-1], w.d), (w, seed)
            assert rng.getstate() == deck_rng.getstate()


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


def _reports_sha256(reports):
    text = "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in reports)
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded with the element-built samplers, before lemma points were carried as
# triples: any change to a draw, a member, a count or a report text shows here.
HONEST_REPORTS_SHA256 = "67ef2873bfa402f2699649b9c7d1fd0bcb0af50a4110c57b4119994929b1b7a7"
CORRUPTED_V2_REPORTS_SHA256 = "a48c460c67e0d3f94b3261dfd730c8a8d5694bbebc7caabc007a5061e0a0413a"


def test_lemma_reports_are_pinned():
    reports = [run_lemma(lemma_id, seed, instances, samples) for lemma_id in sorted(LEMMA_IDS)
               for seed in range(8) for instances, samples in ((3, 30), (10, 6))]
    assert _reports_sha256(reports) == HONEST_REPORTS_SHA256


def test_corrupted_v2_reports_are_pinned(monkeypatch):
    reports = []
    for corruption in (_halved, _doubled, _raised_at_odd_multiples_of_3):
        _corrupt(monkeypatch, corruption)
        reports.extend(run_lemma(lemma_id, seed, 4, 20) for lemma_id in sorted(LEMMA_IDS)
                       if lemma_id != "2.18" for seed in range(6))
    assert _reports_sha256(reports) == CORRUPTED_V2_REPORTS_SHA256
