"""Tests of the benchmark itself: the independent checker, the seeded
generators, and smoke-sized runs of every workload.

Run with ``python -m pytest bench -q`` from the repository root.
"""

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import checker as ck
from bench import run, workloads
from bench.tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _keep_qval_modules():
    """The runner re-imports qval; give the rest of the test run its own
    module objects back, so deferred imports inside qval stay consistent."""
    saved = {n: m for n, m in sys.modules.items() if n == "qval" or n.startswith("qval.")}
    yield
    for name in [n for n in sys.modules if n == "qval" or n.startswith("qval.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture
def q():
    return run.load_qval()[0]


def _queries_op(q, tmp_path, kind, seed=5):
    wl = workloads.build("queries", q, tmp_path)
    for r in range(20):
        for op in wl.make_round(seed, "test", r):
            if op.kind == kind:
                return wl, op
    raise AssertionError(f"no {kind} op generated")


# ---------------------------------------------------------------------------
# the checker rejects wrong outputs


def test_checker_rejects_mutated_eval_value(q, tmp_path):
    for kind in ("eval", "deep", "nadic"):
        wl, op = _queries_op(q, tmp_path, kind)
        code, stdout, stderr = wl.execute(op)
        assert wl.check(op, (code, stdout, stderr)) is None
        doc = json.loads(stdout)
        value = ck.parse_value(doc["value"])
        wrong = (0, 1) if value is None else ck.make_value(value[0] + value[1], value[1])
        doc["value"] = ck.value_text(wrong)
        assert wl.check(op, (code, json.dumps(doc), stderr)) is not None


@pytest.mark.parametrize("name", ["axioms-int64", "lemmas"])
def test_checker_rejects_report_with_one_assertion_dropped(q, tmp_path, name):
    wl = workloads.build(name, q, tmp_path)
    op = wl.make_round(1, "test", 0)[7]
    passed, instances, text = wl.execute(op)
    assert wl.check(op, (passed, instances, text)) is None
    assert wl.check(op, (passed, instances - 1, text)) is not None


def test_checker_rejects_certificate_one_valuation_short(q, tmp_path):
    wl, op = _queries_op(q, tmp_path, "approx")
    code, stdout, stderr = wl.execute(op)
    assert wl.check(op, (code, stdout, stderr)) is None
    doc = json.loads(stdout)
    p, _, _, m = op.expect[0]
    need = ck.value_floor(m) + 1
    # move the first coordinate by exactly p^(need-1): one valuation short
    step = ck.make_value(p ** (need - 1), 1) if need >= 1 else ck.make_value(1, p ** (1 - need))
    a = ck.parse_rational(doc["x"]["a"])
    doc["x"]["a"] = ck.value_text(ck.make_value(a[0] * step[1] + step[0] * a[1], a[1] * step[1]))
    assert "misses bound" in wl.check(op, (code, json.dumps(doc), stderr))


def test_malformed_requests_must_exit_2(q, tmp_path):
    wl, op = _queries_op(q, tmp_path, "malformed")
    code, stdout, stderr = wl.execute(op)
    assert code == 2 and wl.check(op, (code, stdout, stderr)) is None
    assert wl.check(op, (0, stdout, stderr)) is not None


# ---------------------------------------------------------------------------
# the reference arithmetic agrees with qval on random inputs


def test_reference_values_agree_with_qval(q):
    rng = random.Random(3)
    specs = list(workloads.AXIOM_POOL)
    for _ in range(40):
        specs.append(workloads._field_spec(rng)[0])
    for spec in specs:
        w = q.qval.parse_qv(ck.spec_text(spec))
        d = ck.spec_field(spec)
        for _ in range(20):
            a, c = rng.randint(-10**4, 10**4), rng.randint(1, 10**3)
            b = rng.randint(-10**4, 10**4) if d else 0
            x = q.qval.Rational(a, c)
            if d:
                x = q.qval.QuadElem(x, q.qval.Rational(b, c), d)
            assert ck.parse_value(str(w.value(x))) == ck.evaluate(spec, (a, b, c)), (spec, a, b, c)


def test_deep_split_elements_have_the_constructed_value(q, tmp_path):
    wl = workloads.build("queries", q, tmp_path)
    rng = random.Random(8)
    for level in (20, 60, 200):
        op = wl._deep(rng, level)
        spec, elem, expected = op.expect
        assert ck.evaluate(spec, elem) == expected
        assert wl.check(op, wl.execute(op)) is None


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic(q, tmp_path, name):
    def keys(seed):
        wl = workloads.build(name, q, tmp_path)
        return [run.digest(wl.make_round(seed, "run", r)) for r in range(2)]

    assert keys(4) == keys(4)
    assert keys(4) != keys(5)


# ---------------------------------------------------------------------------
# smoke-sized runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_of_every_workload(tmp_path, name):
    args = argparse.Namespace(workload=name, seed=2, seconds=0, trace=0)
    record, result = run.measure(name, args, tmp_path, setup_samples_wanted=1)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and record["ops"] >= run.MIN_OPS
    assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}

    record, result = run.trace(name, args, tmp_path, n_rounds=1)
    assert result["correct"], record["failures"]
    assert record["same_inputs"] and not record["untraced_targets"]
    assert set(result["metrics"]) == {m[0] for m in PER_LAYER}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
