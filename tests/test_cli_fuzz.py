"""Fuzzing ``cli.main(argv)``: every input ends in exit 0, 1 or 2, in time.

Arguments are built from the real subcommands, quasi-valuation specs,
element expressions and problem files.  One test draws only well-formed
arguments, so that the evaluation code behind the parsers runs; the other
mixes in malformed values and junk tokens.  Every generated number stays
well below the factorization bound and the parser's digit limit, so no
input is slow by design: an input that runs past the deadline is a hang,
not a big instance.  The junk tokens "1e5000" and "1e-5000" are the
exception, kept to check that the digit limit also holds for exponents,
and so are the malformed counts past each command's limit, which must be
refused before any sampling.
"""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qval.cli import COUNT_LIMITS, main
from qval.lemmas import LEMMA_IDS
from qval.valuations import SplitKind, classify

DEADLINE_S = 10.0
COMMANDS = ("eval", "ball", "axioms", "separate", "lemma", "approx")
PRIMES = (2, 3, 5, 7, 11, 13)
NOT_PRIMES = (-3, 0, 1, 4, 9, 15)
DS = (-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13)
NOT_DS = (0, 1, 4, -4, 12, 18)
JUNK = ("", " ", "-", "--", "--qv", "--closed", "x", "sqrt", "()", "[", "|", ",", "d=",
        "1/0", "0/0", "3.5", "1e3", "nan", "inf", "--samples", "-1", "é", "min[]",
        "1e5000", "1e-5000")

junk = st.sampled_from(JUNK)
any_primes = st.sampled_from(PRIMES + NOT_PRIMES)
any_ds = st.sampled_from(DS + NOT_DS)
any_rationals = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 12)),
    junk,
)
positive_rationals = st.builds("{}/{}".format, st.integers(1, 12), st.integers(1, 12))


def _extension_kinds(p, d):
    kind = classify(p, d)
    if kind is SplitKind.SPLIT:
        return ("split1", "split2")
    return ("inert" if kind is SplitKind.INERT else "ram", "ext")


def _atom(kind, p, d):
    return f"vp:{p}" if kind == "vp" else f"{kind}:{p},d={d}"


def _min_of(parts):
    return "min[" + "|".join(parts) + "]"


def specs(p, d, well_formed):
    """Quasi-valuation specs over Q(√d) at the prime p, or anything like them."""
    if well_formed:
        atoms = st.builds(_atom, st.sampled_from(_extension_kinds(p, d)), st.just(p), st.just(d))
        leaves = st.one_of(atoms, st.builds(_min_of, st.lists(atoms, min_size=1, max_size=3)),
                           st.builds("nadic:{}".format, st.integers(2, 10**6)))
        factors = positive_rationals
    else:
        atoms = st.builds(_atom, st.sampled_from(("vp", "inert", "ram", "split1", "split2",
                                                  "ext")), any_primes, any_ds)
        leaves = st.one_of(atoms, st.builds(_min_of, st.lists(st.one_of(atoms, junk), max_size=3)),
                           st.builds("nadic:{}".format, st.integers(-5, 10**6)), junk)
        factors = any_rationals
    return st.recursive(leaves, lambda inner: st.builds("scaled:{},{}".format, factors, inner),
                        max_leaves=3)


def expressions(d, well_formed):
    """Element expressions in Q(√d), or with zeros to divide by, nested and
    foreign roots and junk; parenthesised, as the CLI expects, since a
    leading "-" would read as a flag."""
    if well_formed:
        leaves = st.one_of(st.integers(1, 10**6).map(str), st.just(f"sqrt({d})"))
        unary = ("-({})",)
    else:
        leaves = st.one_of(st.integers(0, 10**6).map(str), st.builds("sqrt({})".format, any_ds),
                           junk)
        unary = ("-{}", "sqrt({})")
    tree = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds("({}) {} ({})".format, children, st.sampled_from("+-*/"), children),
            *(children.map(form.format) for form in unary),
        ),
        max_leaves=6,
    )
    return tree.map("({})".format)


def _problem(draw, d, well_formed):
    """A weak-approximation problem file's JSON text."""
    rationals = st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 30))
    targets = [
        {"p": p, "x": {"a": draw(rationals), "b": draw(rationals)},
         "m": draw(st.integers(-8, 60).map(lambda m: f"{m}/2"))}
        for p in draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=4, unique=True))
    ]
    problem = {"d": d, "targets": targets}
    if well_formed:
        return json.dumps(problem)
    breakage = draw(st.sampled_from(("p", "x", "m", "d", "targets", "list", "text")))
    if breakage in ("p", "x", "m"):
        targets[0][breakage] = draw(st.sampled_from(("7", None, [2], 2.0, {}, "1/0", 4)))
    elif breakage in ("d", "targets"):
        problem[breakage] = draw(st.sampled_from(("2", None, 2.5, 0, 4, [])))
    elif breakage == "list":
        problem = [problem]
    else:
        return json.dumps(problem)[: draw(st.integers(0, 40))]
    return json.dumps(problem)


@st.composite
def argvs(draw, workdir, well_formed):
    if well_formed:
        p, d = draw(st.sampled_from(PRIMES)), draw(st.sampled_from(DS))
        formats = ("json", "table")
        counts = st.integers(0, 8).map(str)
        lemma_ids, instances = sorted(LEMMA_IDS), st.sampled_from(("0", "1", "2"))
        bounds = st.one_of(st.integers(-6, 12).map(str), positive_rationals)
    else:
        p, d = draw(any_primes), draw(any_ds)
        formats = ("json", "xml", "")
        counts = st.one_of(st.integers(-2, 8).map(str), junk)
        lemma_ids = sorted(LEMMA_IDS) + ["2.99", ""]
        instances = st.sampled_from(("-1", "0", "2", "x"))
        bounds = any_rationals
    spec, expr = specs(p, d, well_formed), expressions(d, well_formed)
    seeds = st.integers(0, 2**31).map(str)

    def counted(command, flag, values):
        """A count for the flag: malformed ones also run past its limit."""
        if well_formed:
            return values
        return st.one_of(values, st.integers(COUNT_LIMITS[command, flag] + 1, 10**12).map(str))

    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(formats))]
    command = draw(st.sampled_from(COMMANDS))
    argv.append(command)
    if command == "eval":
        argv += ["--qv", draw(spec), draw(expr)]
    elif command == "ball":
        argv += ["--qv", draw(spec), "--center", draw(expr), f"--bound={draw(bounds)}"]
        if draw(st.booleans()):
            argv.append("--closed")
        argv += draw(st.lists(expr, min_size=1, max_size=3))
    elif command == "axioms":
        argv += ["--qv", draw(spec), "--samples", draw(counted("axioms", "samples", counts)),
                 "--seed", draw(seeds)]
    elif command == "separate":
        argv += ["--qv", draw(spec), draw(expr), draw(expr),
                 "--samples", draw(counted("separate", "samples", counts)), "--seed", draw(seeds)]
    elif command == "lemma":
        argv += ["--id", draw(st.sampled_from(lemma_ids)),
                 "--instances", draw(counted("lemma", "instances", instances)),
                 "--samples", draw(counted("lemma", "samples", counts)), "--seed", draw(seeds)]
    else:
        path = workdir / f"problem-{draw(st.integers(0, 20))}.json"
        path.write_text(_problem(draw, d, well_formed), encoding="utf-8")
        if not well_formed and draw(st.booleans()):
            path = draw(st.sampled_from((workdir, workdir / "missing.json")))
        argv += ["--problem", str(path)]
    if not well_formed:
        for _ in range(draw(st.integers(0, 2))):
            argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


class _Overran(BaseException):
    """Raised by the alarm; a BaseException, so no handler in qval catches it."""


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise _Overran(f"input ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_cli(argv):
    """(exit code, stderr) of one in-process call, within the deadline."""
    out, err = io.StringIO(), io.StringIO()
    with _deadline(DEADLINE_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --help
            code = 0 if exc.code is None else exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="the per-input deadline needs SIGALRM timers")
@pytest.mark.parametrize("well_formed", [True, False], ids=["well-formed", "malformed"])
def test_every_input_exits_0_1_or_2_in_time(workdir, well_formed):
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(argv=argvs(workdir, well_formed))
    def run(argv):
        code, err = _run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.strip(), argv  # a usage error says what was wrong

    run()
