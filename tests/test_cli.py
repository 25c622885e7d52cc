import json
import random

import pytest

from qval.approximation import dump_problem, ApproxTarget
from qval import cli, topology
from qval.batch import gauge_matrix
from qval.cli import main
from qval.exprparse import parse_element
from qval.quadratic import QuadElem
from qval.qvspec import parse_qv
from qval.report import PropertyReport
from qval.sampling import ball_members
from qval.topology import separation_witness
from qval.triples import QuasiValuation
from qval.valuations import PAdicValuation, hensel_sqrt
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_table(capsys):
    code, out, _ = run(capsys, "eval", "--qv", "min[vp:2|vp:3]", "6")
    assert code == 0
    assert out.strip() == "w(6) = 1"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "eval", "--qv", "nadic:12", "144/5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"qv": "nadic:12", "element": "144/5", "value": "2"}


def test_eval_quadratic(capsys):
    code, out, _ = run(capsys, "eval", "--qv", "ram:2,d=2", "sqrt(2)")
    assert code == 0
    assert "1/2" in out


def test_ball_membership_table(capsys):
    code, out, _ = run(
        capsys, "ball", "--qv", "vp:2", "--center", "0", "--bound", "1",
        "2", "4", "1/2",
    )
    assert code == 0
    assert "out" in out and "in" in out
    code, out, _ = run(
        capsys, "--format", "json", "ball", "--qv", "vp:2", "--center", "0",
        "--bound", "1", "--closed", "2",
    )
    payload = json.loads(out)
    assert payload["members"][0]["member"] is True


def test_axioms_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "axioms", "--qv", "min[vp:2|vp:3]",
                       "--samples", "60", "--seed", "3")
    assert code == 0
    assert "pass" in out


def test_axioms_json_report_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "axioms", "--qv", "nadic:6",
                       "--samples", "40", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lemma", "instances", "failures", "seed"}
    assert payload["seed"] == 1
    assert payload["failures"] == []


def test_separate_command(capsys):
    code, out, _ = run(capsys, "separate", "--qv", "vp:2", "0", "4",
                       "--samples", "30")
    assert code == 0
    assert "m = 2" in out


def test_separate_counts_one_check_per_sample(capsys):
    for samples, checks in (("0", 0), ("1", 2), ("2", 4)):
        code, out, _ = run(capsys, "separate", "--qv", "vp:2", "0", "4", "--samples", samples)
        assert code == 0
        assert out.splitlines()[-1] == f"hausdorff-separation: pass [{checks} checks]"


class _HalvedV2(QuasiValuation):
    """v_2 with its values halved: no quasi-valuation, so the two balls that
    separate 0 and 4 share members."""

    d = None
    extended_prime = 2

    def triple_value(self, a, b, q):
        return PAdicValuation(2).triple_value(a, b, q) // 2

    def __str__(self):
        return "halved-vp:2"


def _separation_by_elements(qv, x, y, samples, seed):
    """The `separate` report from the element loop: every member an element,
    tested with the other ball's scalar ``contains``."""
    _, ball_x, ball_y = separation_witness(qv, x, y)
    rng = random.Random(seed)
    report = PropertyReport(lemma="hausdorff-separation", seed=seed)
    for ball, other in ((ball_x, ball_y), (ball_y, ball_x)):
        for z in ball_members(ball, rng, samples):
            report.record()
            if other.contains(z):
                report.fail({"z": z}, "balls are disjoint", "z lies in both")
    return report


@pytest.mark.parametrize("spec, x, y", [("halved", "0", "4"), ("vp:2", "0", "4"),
                                        ("split1:7,d=2", "0", "1"), ("ram:2,d=-1", "1/2", "sqrt(-1)"),
                                        ("nadic:6", "0", "1/3")])
def test_separate_meets_both_balls_in_one_gauge_matrix(monkeypatch, capsys, spec, x, y):
    qv = _HalvedV2() if spec == "halved" else parse_qv(spec)
    expected = _separation_by_elements(qv, parse_element(x), parse_element(y), 40, 5).to_dict()
    assert bool(expected["failures"]) == (spec == "halved")
    calls = []

    def recording(w, centers, points):
        calls.append((len(centers), len(points)))
        return gauge_matrix(w, centers, points)

    def per_member(self, z):
        raise AssertionError("a member met a ball one at a time")

    monkeypatch.setattr(topology, "gauge_matrix", recording)
    monkeypatch.setattr(topology.Ball, "contains", per_member)
    monkeypatch.setattr(cli, "parse_qv", lambda text: qv)
    code, out, _ = run(capsys, "--format", "json", "separate", "--qv", spec, x, y,
                       "--samples", "40", "--seed", "5")
    assert json.loads(out) == expected
    assert code == (1 if expected["failures"] else 0)
    assert calls == [(2, 80)]


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "lemma", "--id", "2.15",
                       "--instances", "4", "--samples", "20", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma"] == "2.15"
    assert payload["failures"] == []


def test_approx_command(capsys, tmp_path):
    problem = dump_problem(2, [
        ApproxTarget(3, QuadElem(Fraction(1), Fraction(1), 2), Fraction(1)),
        ApproxTarget(5, QuadElem(Fraction(1, 2), Fraction(0), 2), Fraction(2)),
    ])
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "approx", "--problem", str(path))
    assert code == 0
    payload = json.loads(out)
    for cert in payload["certificates"]:
        achieved, required = Fraction(cert["achieved"]), Fraction(cert["required"])
        assert achieved >= required


@pytest.mark.parametrize("n, element, value", [
    ("1000000000000000003", "5000000000000000015", "1"),  # prime; the element is 5n
    ("1000000016000000063", "1000000009/1000000007", "-1"),  # 1000000007 * 1000000009
])
def test_eval_nadic_with_large_prime_factors(capsys, n, element, value):
    code, out, _ = run(capsys, "eval", "--qv", f"nadic:{n}", element)
    assert code == 0
    assert out.strip() == f"w({element}) = {value}"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "eval", "--qv", "vp:4", "6")[0] == 2
    assert run(capsys, "eval", "--qv", "bogus:1", "6")[0] == 2
    assert run(capsys, "eval", "--qv", "vp:2", "sqrt(2)+sqrt(3)")[0] == 2
    assert run(capsys, "eval", "--qv", "vp:2", "sqrt(2)")[0] == 2  # wrong field
    assert run(capsys, "approx", "--problem", "/nonexistent.json")[0] == 2
    assert run(capsys, "approx", "--problem", "/")[0] == 2  # a directory
    assert run(capsys, "ball", "--qv", "vp:2", "--center", "0",
               "--bound", "x", "1")[0] == 2
    assert run(capsys, "eval", "--qv", "vp:2", "1" * 5001)[0] == 2
    assert run(capsys, "eval", "--qv", "vp:2", "(" * 3000 + "1" + ")" * 3000)[0] == 2
    # factorization and primality are deterministic only below 3.3e24
    assert run(capsys, "eval", "--qv", f"nadic:{10**25}", "5")[0] == 2
    assert run(capsys, "eval", "--qv", "inert:3,d=10000000000000000000000002", "1")[0] == 2
    with pytest.raises(SystemExit) as info:
        main(["lemma", "--id", "9.99"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("axioms", "--qv", "vp:2", "--samples", "-5"),
    ("lemma", "--id", "2.2", "--instances", "-1"),
    ("separate", "--qv", "vp:2", "0", "4", "--samples", "-3"),
])
def test_negative_counts_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"must be at least 0, got {argv[-1]}" in captured.err
    # zero is a count too: nothing is drawn, and the run passes
    code, out, _ = run(capsys, *argv[:-1], "0")
    assert code == 0 and "pass" in out


def test_axiom_samples_past_the_limit_exit_two(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an over-limit request must be refused before sampling")

    monkeypatch.setattr(cli, "elements_for", unreachable)
    monkeypatch.setattr(cli, "check_axioms", unreachable)
    over = str(cli.MAX_AXIOM_SAMPLES + 1)
    code, out, err = run(capsys, "axioms", "--qv", "vp:2", "--samples", over)
    assert code == 2 and not out
    assert err == f"error: --samples must be at most {cli.MAX_AXIOM_SAMPLES}, got {over}\n"


@pytest.mark.parametrize("command, flag", [("separate", "samples"), ("lemma", "instances"),
                                           ("lemma", "samples")])
def test_counts_past_their_limits_exit_two(capsys, monkeypatch, command, flag):
    def unreachable(*args, **kwargs):
        raise AssertionError("an over-limit request must be refused before sampling")

    for name in ("run_lemma", "separation_witness", "member_triples"):
        monkeypatch.setattr(cli, name, unreachable)
    limit = cli.COUNT_LIMITS[command, flag]
    head = ["lemma", "--id", "2.2"] if command == "lemma" else ["separate", "--qv", "vp:2", "0", "4"]
    code, out, err = run(capsys, *head, f"--{flag}", str(limit + 1))
    assert code == 2 and not out
    assert err == f"error: --{flag} must be at most {limit}, got {limit + 1}\n"
    with pytest.raises(SystemExit):  # --help states the limit
        main([command, "--help"])
    assert f"at most {limit}" in capsys.readouterr().out


@pytest.mark.parametrize("problem", [
    {"d": 2, "targets": [{"p": 3, "x": {"a": "1/x", "b": "0"}, "m": "1"}]},
    {"d": 2, "targets": [{"p": 3, "x": {"a": "1/0", "b": "0"}, "m": "1"}]},
    {"d": 2, "targets": [{"p": 3, "x": {"a": "1"}, "m": "1"}]},
    [{"d": 2, "targets": []}],
], ids=["non-numeric", "zero-denominator", "missing-b", "top-level-list"])
def test_malformed_problem_file_exits_two(capsys, tmp_path, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "approx", "--problem", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_problem_file_with_a_huge_integer_exits_two(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text('{"d": 2, "targets": [{"p": 3, "x": {"a": "1", "b": "0"}, "m": '
                    + "7" * 5000 + "}]}")
    code, out, err = run(capsys, "approx", "--problem", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("m", ["5000", "100000"])
def test_approx_past_the_digit_limit_exits_two(capsys, tmp_path, m):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"d": 2, "targets": [
        {"p": 3, "x": {"a": "1/7", "b": "3"}, "m": m},
        {"p": 5, "x": {"a": "2", "b": "-1/3"}, "m": m},
    ]}))
    code, out, err = run(capsys, "approx", "--problem", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("eval", "--qv", "scaled:1e5000,vp:2", "4"),
    ("eval", "--qv", "scaled:1e-5000,vp:2", "4"),
    ("ball", "--qv", "vp:2", "--center", "0", "--bound=1e-5000", "2"),
    ("ball", "--qv", "vp:2", "--center", "0", "--bound=1e5000", "2"),
    ("ball", "--qv", "vp:2", "--center", "0", "--bound=1e1_000_000_000", "2"),
])
def test_rationals_past_the_digit_limit_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: bad ") and err.count("\n") == 1


def test_rationals_in_exponent_notation_still_read(capsys):
    assert run(capsys, "eval", "--qv", "scaled:1e3,vp:2", "4")[1] == "w(4) = 2000\n"
    code, out, _ = run(capsys, "ball", "--qv", "vp:2", "--center", "0", "--bound=25e-1", "8")
    assert code == 0 and out.startswith("ball: ") and "5/2" in out


def _deep_split_element():
    # a - sqrt(2) with a ≡ sqrt(2) mod 7^12: precision 8 cannot certify it
    return f"{hensel_sqrt(7, 2, 12, 1)} - 1*sqrt(2)"


def test_deep_split_element_evaluates_exactly(capsys):
    deep = _deep_split_element()
    t, want = int(deep.split()[0]) - hensel_sqrt(7, 2, 40, 1), 0  # A + B·s, 40 digits of s
    while t % 7 == 0:
        t, want = t // 7, want + 1
    assert 12 <= want < 40
    code, out, err = run(capsys, "--format", "json", "eval", "--qv", "split1:7,d=2", deep)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == str(want)
    # the precision cap is gone: its flag is an unknown option
    for cap in (["--precision-cap", "8"], ["--precision-cap=8"]):
        with pytest.raises(SystemExit) as info:
            main([*cap, "eval", "--qv", "split1:7,d=2", deep])
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_reproducible_with_seed(capsys):
    first = run(capsys, "--format", "json", "lemma", "--id", "2.10",
                "--instances", "3", "--samples", "15", "--seed", "42")
    second = run(capsys, "--format", "json", "lemma", "--id", "2.10",
                 "--instances", "3", "--samples", "15", "--seed", "42")
    assert first == second
