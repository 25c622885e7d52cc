"""Seeded workloads: inputs, the public-API call each op makes, and the
independent check of its output.

Every workload yields its ops in rounds.  Round r of a stream is a pure
function of (workload, seed, stream, r), so the same seed gives the same
inputs, and each round holds the same mix of op kinds, so a run that
executes whole rounds always measures the same mix.  qval only ever sees
inputs built here; the expected outputs come from ``checker``, which
shares no code with qval.
"""

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import checker as ck


@dataclass
class Op:
    kind: str
    key: str  # canonical text of the inputs, for the input digest
    args: tuple
    expect: object = None
    checks: int = 0  # exact assertions the op reported


def _rng(workload: str, seed: int, stream: str, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}:{r}")


def _report_summary(report) -> tuple:
    return (report.passed, report.instances, json.dumps(report.to_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# the axiom harness: criterion 1's pool of 25 constructors

def _split_pair(p, d):
    return ("min", (("split", p, d, 1), ("split", p, d, 2)))


AXIOM_POOL = (
    ("vp", 2), ("vp", 3), ("vp", 5), ("vp", 7),
    ("inert", 3, -1), ("ram", 2, -1), ("split", 5, -1, 1), _split_pair(5, -1),
    ("inert", 3, 2), ("ram", 2, 2), ("split", 7, 2, 1), _split_pair(7, 2),
    ("inert", 2, 5), ("ram", 5, 5), ("split", 11, 5, 1), _split_pair(11, 5),
    ("inert", 3, -7), ("ram", 7, -7), ("split", 2, -7, 1), _split_pair(2, -7),
    ("nadic", 2, ((2, 1),)), ("nadic", 3, ((3, 1),)), ("nadic", 4, ((2, 2),)),
    ("nadic", 6, ((2, 1), (3, 1))), ("nadic", 12, ((2, 2), (3, 1))),
)


class AxiomsWorkload:
    """One op is one ``check_axioms`` call on one constructor of the pool;
    a round visits all 25 constructors once.

    Each sample set starts with 0, 1, -1 (and sqrt(d)), then elements that
    pin the largest coordinate magnitudes the bounds allow, so that the
    int64 magnitude gate routes a constructor the same way on every seed.
    """

    def __init__(self, q, name, samples, num_bound, den_bound):
        self.q = q
        self.name = name
        self.samples = samples
        self.num_bound = num_bound
        self.den_bound = den_bound
        self.pool = [(spec, q.qval.parse_qv(ck.spec_text(spec))) for spec in AXIOM_POOL]

    def _triples(self, rng, d):
        n_b, d_b = self.num_bound, self.den_bound
        if d is None:
            out = [(0, 0, 1), (1, 0, 1), (-1, 0, 1), (n_b, 0, 1), (1, 0, d_b)]
        else:
            out = [(0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 1),
                   ck.triple(n_b, 1, 1, d_b), ck.triple(1, d_b, n_b, 1),
                   ck.triple(1, d_b - 1, 1, d_b)]
        while len(out) < self.samples:
            a = (rng.randint(-n_b, n_b), rng.randint(1, d_b))
            if d is None:
                g = math.gcd(*a)
                out.append((a[0] // g, 0, a[1] // g))
            else:
                b = (rng.randint(-n_b, n_b), rng.randint(1, d_b))
                out.append(ck.triple(a[0], a[1], b[0], b[1]))
        return out

    def make_round(self, seed, stream, r):
        rng = _rng(self.name, seed, stream, r)
        QuadElem = self.q.qval.QuadElem
        ops = []
        for spec, w in self.pool:
            d = ck.spec_field(spec)
            triples = self._triples(rng, d)
            if d is None:
                samples = [Fraction(a, c) for a, _, c in triples]
            else:
                samples = [QuadElem(Fraction(a, c), Fraction(b, c), d) for a, b, c in triples]
            key = ck.spec_text(spec) + " " + " ".join(f"{a},{b},{c}" for a, b, c in triples)
            ops.append(Op("axioms", key, (w, samples), (spec, triples)))
        return ops

    def execute(self, op):
        w, samples = op.args
        return _report_summary(self.q.qval.check_axioms(w, samples))

    def check(self, op, out):
        passed, instances, _ = out
        op.checks = instances
        if not passed:
            return "axiom report has failures"
        spec, triples = op.expect
        expected = ck.axiom_assertions([ck.evaluate(spec, t) for t in triples])
        if instances != expected:
            return f"{instances} assertions, expected {expected}"
        return None


# ---------------------------------------------------------------------------
# the topology lemma checks

SMALL_LEMMAS = ("2.2", "2.10", "2.11", "2.12", "2.14", "2.15", "2.17")
# (instances, samples) per call.  2.18 runs all ten of its constructor
# pairs; its repeat count below makes it about half of the wall time
# (a uniform mix would be 98 % 2.18 and hide every other check).
SMALL_SIZE = (3, 30)
RING_SIZE = (10, 6)
SMALL_REPEATS = 5


def lemma_assertions(lemma_id: str, instances: int, samples: int) -> int:
    """The number of assertions each check makes when it passes."""
    if lemma_id in ("2.2", "2.10", "2.17"):
        per = samples
    elif lemma_id == "2.11":
        per = 1 + 2 * max(1, samples // 2)
    elif lemma_id == "2.12":
        per = 1 + samples
    elif lemma_id == "2.14":
        per = 3 * (1 + samples // 2)
    elif lemma_id == "2.15":
        per = 1 + max(2, samples // 10) * 10
    elif lemma_id == "2.18":
        # ring check, 11 thresholds per sample, 11 closed balls per center
        # over every sample, and the rejected rescaling
        centers = -(-samples // max(1, samples // 8))
        per = 1 + samples + 11 * samples + centers * 11 * samples + 1
    else:
        raise ValueError(lemma_id)
    return instances * per


class LemmasWorkload:
    """One op is one ``run_lemma`` call with its own seed."""

    name = "lemmas"

    def __init__(self, q):
        self.q = q

    def make_round(self, seed, stream, r):
        rng = _rng(self.name, seed, stream, r)
        plan = [(lid, SMALL_SIZE) for _ in range(SMALL_REPEATS) for lid in SMALL_LEMMAS]
        plan.append(("2.18", RING_SIZE))
        ops = []
        for lemma_id, (instances, samples) in plan:
            op_seed = rng.getrandbits(31)
            ops.append(Op(f"lemma {lemma_id}", f"{lemma_id} {op_seed} {instances} {samples}",
                          (lemma_id, op_seed, instances, samples)))
        return ops

    def execute(self, op):
        lemma_id, seed, instances, samples = op.args
        report = self.q.lemmas.run_lemma(lemma_id, seed=seed, instances=instances,
                                         samples=samples)
        return _report_summary(report)

    def check(self, op, out):
        passed, instances, _ = out
        op.checks = instances
        if not passed:
            return "lemma report has failures"
        expected = lemma_assertions(op.args[0], op.args[2], op.args[3])
        if instances != expected:
            return f"{instances} assertions, expected {expected}"
        return None


# ---------------------------------------------------------------------------
# CLI requests

# One round of requests, by kind; a round is shuffled, never resized.
QUERY_ROUND = (
    ["eval"] * 6 + ["deep"] * 3 + ["nadic"] * 3 + ["ball"] * 2 + ["separate"] * 2
    + ["approx"] * 2 + ["malformed"] * 2
)
# Hensel precision the adversarial split elements need, cycled so every
# round costs about the same.  Their literals stay below 3500 digits:
# Python refuses int strings over 4300 digits, so a 5000-digit literal
# exits 1 instead of 2, a known hostile-input defect that belongs to the
# fuzz tests, not to every benchmark run.
DEEP_LEVELS = (300, 700, 1500, 3000)
DEEP_PER_ROUND = QUERY_ROUND.count("deep")
DEEP_PRIMES = (3, 5, 7, 11, 13)
EVAL_PRIMES = tuple(p for p in range(2, 200) if ck.is_prime(p))
APPROX_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
SEPARATE_SAMPLES = 8
_SEPARATE_SUMMARY = re.compile(r"^hausdorff-separation: pass \[(\d+) checks\]$")


def _squarefree(rng, bound):
    while True:
        d = rng.randint(-bound, bound)
        if d not in (0, 1) and ck.is_squarefree(d):
            return d


def _field_spec(rng):
    """A valuation spec on some Q(sqrt(d)) from a wide spread of (p, d)."""
    p = rng.choice(EVAL_PRIMES)
    d = _squarefree(rng, 500)
    kind = ck.classify(p, d)
    if kind != "split":
        spec = (kind, p, d)
    else:
        spec = rng.choice((("split", p, d, 1), ("split", p, d, 2), _split_pair(p, d)))
    if rng.random() < 0.25:
        spec = ("scaled", rng.choice(((3, 2), (2, 1), (1, 3), (5, 4))), spec)
    return spec, p, d


def _element(rng, p, d, scale=999):
    """(A, B, Q) with p-power factors, so values are not all zero."""
    def part(bound):
        return p ** rng.randint(0, 4) * rng.choice((1, -1)) * rng.randint(1, bound)
    a = part(scale)
    b = part(scale) if d is not None and rng.random() < 0.85 else 0
    return (a, b, p ** rng.randint(0, 3) * rng.randint(1, 99))


def _nested(rng, expr, d, depth):
    """Wrap expr in value-preserving identities: x*u/u, x+u-u, -(-x).
    The result starts with "(" so the CLI never reads it as a flag.
    Callers keep the depth small: nesting 3000 deep makes the recursive
    parser raise RecursionError, a known hostile-input defect."""
    for _ in range(depth):
        u = (rng.randint(1, 50) * rng.choice((1, -1)), rng.randint(0, 9) if d else 0,
             rng.randint(1, 9))
        u_expr = ck.element_expr(u, d)
        form = rng.randrange(4)
        if form == 0:
            expr = f"(({expr}) * ({u_expr})) / ({u_expr})"
        elif form == 1:
            expr = f"(({expr}) + ({u_expr})) - ({u_expr})"
        elif form == 2:
            expr = f"(({expr}) - ({u_expr})) + ({u_expr})"
        else:
            expr = f"(-(-({expr})))"
    return expr


def _random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if ck.is_prime(n):
            return n


class QueriesWorkload:
    """One op is one in-process ``cli.main(argv)`` call with stdout and
    stderr captured; the op succeeds when the exit code is the expected
    one and the output passes the independent check."""

    name = "queries"

    def __init__(self, q, workdir):
        self.q = q
        self.workdir = workdir

    def make_round(self, seed, stream, r):
        rng = _rng(self.name, seed, stream, r)
        kinds = list(QUERY_ROUND)
        rng.shuffle(kinds)
        ops = []
        deep_index = 0
        for slot, kind in enumerate(kinds):
            if kind == "deep":
                level = DEEP_LEVELS[(DEEP_PER_ROUND * r + deep_index) % len(DEEP_LEVELS)]
                deep_index += 1
                ops.append(self._deep(rng, level))
            elif kind == "approx":
                ops.append(self._approx(rng, f"{stream}-{r}-{slot}"))
            else:
                ops.append(getattr(self, "_" + kind)(rng))
        return ops

    # -- generators -------------------------------------------------------

    def _op(self, kind, argv, expect, key=None):
        return Op(kind, key or " ".join(argv), (argv,), expect)

    def _eval(self, rng):
        if rng.random() < 1 / 6:
            p = rng.choice(EVAL_PRIMES)
            spec, d = ("vp", p), None
        else:
            spec, p, d = _field_spec(rng)
        elem = _element(rng, p, d)
        expr = _nested(rng, ck.element_expr(elem, d), d, rng.randint(1, 3))
        argv = ["--format", "json", "eval", "--qv", ck.spec_text(spec), expr]
        return self._op("eval", argv, (spec, elem))

    def _deep(self, rng, level):
        """(a + b*sqrt(d))/den with a = -b*s (mod p^K) for the branch root
        s, built with the checker's own Newton lift: a + b*sqrt(d) has
        value exactly K on that branch, and qval must double its Hensel
        precision past K to certify it."""
        p = rng.choice(DEEP_PRIMES)
        while True:
            d = _squarefree(rng, 3000)
            if ck.classify(p, d) == "split":
                break
        k = level - rng.randrange(level // 10)
        branch = rng.choice((1, 2))
        s = ck.split_root(p, d, k + 1, branch)
        b = rng.randrange(1, p) + p * rng.randint(0, 50)
        a = (-b * s + p**k * rng.randrange(1, p)) % p ** (k + 1)
        den = rng.randint(1, 30)
        if rng.random() < 1 / 3:
            spec, value = _split_pair(p, d), 0
        else:
            spec, value = ("split", p, d, branch), k
        expected = ck.make_value(value - ck.vp_int(p, den))
        elem = (a, b, den)
        argv = ["--format", "json", "eval", "--qv", ck.spec_text(spec), ck.element_expr(elem, d)]
        return self._op("deep", argv, (spec, elem, expected))

    def _nadic(self, rng):
        """nadic:N with N = small primes times a prime near 1e4..1e5 times a
        prime near 1e9..1e10.  qval factors N by trial division, so the
        largest factor stays below 1e10 (about 1e5 steps): N = 10^18 + 3,
        a prime, hangs for over 20 s and belongs to the hostile-input
        tests, not to every benchmark run."""
        small = rng.sample((2, 3, 5, 7), rng.randint(1, 2))
        factors = [(p, rng.randint(1, 2)) for p in small]
        factors.append((_random_prime(rng, 10**4, 10**5), rng.randint(1, 2)))
        factors.append((_random_prime(rng, 10**9, 10**10), 1))
        factors.sort()
        n = math.prod(p**c for p, c in factors)
        num, den = rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 99)
        for p, c in factors:
            e = rng.randint(-1, 2 * c + 1)
            if e > 0:
                num *= p**e
            elif e < 0:
                den *= p
        g = math.gcd(num, den)
        elem = (num // g, 0, den // g)
        spec = ("nadic", n, tuple(factors))
        argv = ["--format", "json", "eval", "--qv", ck.spec_text(spec),
                _nested(rng, ck.element_expr(elem, None), None, 1)]
        return self._op("nadic", argv, (spec, elem))

    def _ball(self, rng):
        spec, p, d = _field_spec(rng)
        center = _element(rng, p, d, scale=50)
        bound = ck.make_value(rng.randint(-4, 8), rng.choice((1, 2)))
        closed = rng.random() < 0.5
        members = []
        for _ in range(rng.randint(3, 4)):
            if rng.random() < 0.5:
                shift = (p ** rng.randint(0, 6) * rng.randint(1, 9),
                         p ** rng.randint(0, 6) * rng.randint(0, 9), 1)
                y = (center[0] + shift[0] * center[2], center[1] + shift[1] * center[2],
                     center[2])
            else:
                y = _element(rng, p, d, scale=50)
            members.append(y)
        argv = ["--format", "json", "ball", "--qv", ck.spec_text(spec),
                "--center", ck.element_expr(center, d), f"--bound={ck.value_text(bound)}"]
        if closed:
            argv.append("--closed")
        argv += [ck.element_expr(y, d) for y in members]
        return self._op("ball", argv, (spec, center, bound, closed, members))

    def _separate(self, rng):
        spec, p, d = _field_spec(rng)
        x = _element(rng, p, d, scale=50)
        while True:
            y = _element(rng, p, d, scale=50)
            if not ck.same_element(x, y):
                break
        argv = ["separate", "--qv", ck.spec_text(spec), ck.element_expr(x, d),
                ck.element_expr(y, d), "--samples", str(SEPARATE_SAMPLES),
                "--seed", str(rng.getrandbits(31))]
        return self._op("separate", argv, (spec, x, y))

    def _approx(self, rng, tag):
        d = _squarefree(rng, 100)
        primes = rng.sample(APPROX_PRIMES, rng.randint(2, 5))
        targets = []
        for p in primes:
            a = (rng.randint(-99, 99), rng.randint(1, 30))
            b = (rng.randint(-99, 99), rng.randint(1, 30))
            m = ck.make_value(rng.randint(-8, 60), 2)  # -4 .. 30 in halves
            targets.append((p, a, b, m))
        problem = {
            "d": d,
            "targets": [
                {"p": p, "x": {"a": ck.value_text(ck.make_value(*a)),
                               "b": ck.value_text(ck.make_value(*b))},
                 "m": ck.value_text(m)}
                for p, a, b, m in targets
            ],
        }
        text = json.dumps(problem)
        path = self.workdir / f"problem-{tag}.json"
        path.write_text(text)
        return self._op("approx", ["approx", "--problem", str(path)], targets,
                        key="approx " + text)

    def _malformed(self, rng):
        p = rng.choice(EVAL_PRIMES[1:])
        inert_d = next(d for d in range(2, 400) if ck.is_squarefree(d)
                       and ck.classify(p, d) == "inert")
        choices = (
            ["eval", "--qv", f"vp:{p * rng.randint(2, 9)}", "3"],
            ["eval", "--qv", f"vp:{p}", f"{rng.randint(1, 99)} + * 2"],
            ["eval", "--qv", f"vp:{p}", f"sqrt({4 * rng.randint(1, 50)})"],
            ["eval", "--qv", f"vp:{p}", f"{rng.randint(1, 99)}/0"],
            ["eval", "--qv", f"split1:{p},d={inert_d}", "1"],
            ["eval", "--qv", f"inert:{p},d={inert_d}", f"1 + sqrt({inert_d + 4 * p})"],
            ["eval", "--qv", "min[]", "1"],
            ["eval", "--qv", "nadic:1", "4"],
            ["ball", "--qv", f"vp:{p}", "--center", "0", "--bound", "1/0", "1"],
            ["approx", "--problem", str(self.workdir / f"missing-{rng.getrandbits(20)}.json")],
            ["eval", str(rng.randint(1, 99))],
        )
        argv = choices[rng.randrange(len(choices))]
        key = " ".join(argv).replace(str(self.workdir), "<work>")
        return self._op("malformed", argv, None, key=key)

    # -- execution and checks --------------------------------------------

    def execute(self, op):
        (argv,) = op.args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.q.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return (code, out.getvalue(), err.getvalue())

    def check(self, op, out):
        code, stdout, stderr = out
        if op.kind == "malformed":
            if code != 2 or not stderr:
                return f"exit {code}, expected 2 with a message"
            return None
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        return getattr(self, "_check_" + op.kind)(op, stdout)

    def _check_eval(self, op, stdout):
        spec, elem = op.expect[:2]
        doc = json.loads(stdout)
        if not ck.same_element(ck.parse_element_text(doc["element"]), elem):
            return "element parsed to a different value"
        expected = op.expect[2] if len(op.expect) > 2 else ck.evaluate(spec, elem)
        got = ck.parse_value(doc["value"])
        if got != expected:
            return f"value {doc['value']}, expected {ck.value_text(expected)}"
        return None

    _check_deep = _check_eval
    _check_nadic = _check_eval

    def _check_ball(self, op, stdout):
        spec, center, bound, closed, members = op.expect
        rows = json.loads(stdout)["members"]
        if len(rows) != len(members):
            return "wrong number of membership rows"
        for row, y in zip(rows, members):
            gauge = ck.evaluate(spec, ck.sub(y, center))
            inside = not ck.value_lt(gauge, bound) if closed else ck.value_lt(bound, gauge)
            if ck.parse_value(row["gauge"]) != gauge or row["member"] != inside:
                return f"row {row}, expected gauge {ck.value_text(gauge)}, member {inside}"
        return None

    def _check_separate(self, op, stdout):
        spec, x, y = op.expect
        lines = stdout.strip().splitlines()
        m = ck.evaluate(spec, ck.sub(y, x))
        if lines[0] != f"witness bound m = {ck.value_text(m)}":
            return f"{lines[0]!r}, expected m = {ck.value_text(m)}"
        summary = _SEPARATE_SUMMARY.match(lines[-1])
        if summary is None or int(summary.group(1)) != 2 * SEPARATE_SAMPLES:
            return f"summary {lines[-1]!r}"
        op.checks = 2 * SEPARATE_SAMPLES
        return None

    def _check_approx(self, op, stdout):
        doc = json.loads(stdout)
        x_a = ck.parse_rational(doc["x"]["a"])
        x_b = ck.parse_rational(doc["x"]["b"])
        certs = doc["certificates"]
        if len(certs) != len(op.expect):
            return "wrong number of certificates"
        for cert, (p, a, b, m) in zip(certs, op.expect):
            # both coordinates of x - x_i over {1, sqrt(d)} reach floor(m)+1;
            # w(sqrt(d)) >= 0, so this implies the certificate
            need = ck.value_floor(m) + 1
            for got, want in ((x_a, ck.make_value(*a)), (x_b, ck.make_value(*b))):
                diff = got[0] * want[1] - want[0] * got[1]
                if diff and ck.vp_int(p, diff) - ck.vp_int(p, got[1] * want[1]) < need:
                    return f"coordinate misses bound {need} at p={p}"
            if cert["p"] != p or ck.parse_rational(cert["required"]) != m:
                return f"certificate {cert} does not match target p={p}"
            if ck.value_lt(ck.parse_value(cert["achieved"]), m):
                return f"certificate {cert} below its bound"
        return None


# ---------------------------------------------------------------------------

WORKLOADS = ("axioms-int64", "axioms-wide", "lemmas", "queries")
PROPERTY_WORKLOADS = ("axioms-int64", "axioms-wide", "lemmas")


def build(name: str, q, workdir):
    if name == "axioms-int64":
        return AxiomsWorkload(q, name, samples=150, num_bound=30, den_bound=12)
    if name == "axioms-wide":
        # numerators near 1e4: ten of the 25 constructors fail the int64
        # magnitude gate and run on the exact object path
        return AxiomsWorkload(q, name, samples=24, num_bound=10**4, den_bound=12)
    if name == "lemmas":
        return LemmasWorkload(q)
    if name == "queries":
        return QueriesWorkload(q, workdir)
    raise ValueError(f"unknown workload {name!r}")
