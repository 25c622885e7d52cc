"""Command-line interface.

Exit codes are stable for CI use: 0 on success / all properties pass,
1 when a property check fails (the counterexample report is printed as
JSON), 2 on usage errors (bad flags, malformed expressions or specs).
"""

import argparse
import json
import random
import sys
from functools import lru_cache

from .approximation import solve_problem_file
from .errors import DomainError, ParseError
from .exprparse import format_element, parse_element, parse_rational
from .lemmas import LEMMA_IDS, run_lemma
from .quasi import check_axioms
from .qvspec import GRAMMAR_HELP, parse_qv
from .report import PropertyReport
from .sampling import elements_for, member_triples
from .topology import Ball, separation_witness, shared_members
from .triples import field_element


# Counts past these are refused (exit 2) before any sampling.  Measured at the limits on a 2-core
# Xeon: axioms 0.6 s and a 65 MB peak, the pair triangle's 32 MB included; separate 0.8–0.9 s and
# 81 MB; lemma 2.18, the slowest check, 8.7 s with both counts at 1000 (2.15 5.6 s).
MAX_AXIOM_SAMPLES = 2000
COUNT_LIMITS = {("axioms", "samples"): MAX_AXIOM_SAMPLES, ("separate", "samples"): 100_000,
                ("lemma", "instances"): 1000, ("lemma", "samples"): 1000}


def count(text: str) -> int:
    """A --samples or --instances value: an integer ≥ 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@lru_cache(maxsize=1)  # built once, on first use; parse_args never writes to it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qval",
        description="Exact quasi-valuations, their ultrametric balls, and "
        "simultaneous approximation over Q and Q(sqrt(d)).",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="human-readable tables or machine-readable JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quasi-valuation at an element")
    p_eval.add_argument("--qv", required=True, help=f"spec: {GRAMMAR_HELP}")
    p_eval.add_argument("expr", help="element expression, e.g. '3/4 + 5*sqrt(2)'")
    p_eval.set_defaults(handler=cmd_eval)

    p_ball = sub.add_parser("ball", help="membership table for an ultrametric ball")
    p_ball.add_argument("--qv", required=True)
    p_ball.add_argument("--center", required=True)
    p_ball.add_argument("--bound", required=True, help="rational bound, e.g. 1 or 3/2")
    p_ball.add_argument("--closed", action="store_true",
                        help="closed ball (w >= bound) instead of strict (w > bound)")
    p_ball.add_argument("members", nargs="+", help="elements to test")
    p_ball.set_defaults(handler=cmd_ball)

    p_axioms = sub.add_parser("axioms", help="run the quasi-valuation axiom harness")
    p_axioms.add_argument("--qv", required=True)
    p_axioms.add_argument("--samples", type=count, default=200,
                          help=f"samples to draw, at most {MAX_AXIOM_SAMPLES}; every pair is checked")
    p_axioms.add_argument("--seed", type=int, default=0)
    p_axioms.set_defaults(handler=cmd_axioms)

    p_sep = sub.add_parser("separate", help="disjoint balls separating two points")
    p_sep.add_argument("--qv", required=True)
    p_sep.add_argument("x")
    p_sep.add_argument("y")
    p_sep.add_argument("--samples", type=count, default=100,
                       help=f"members drawn per ball, at most {COUNT_LIMITS['separate', 'samples']}")
    p_sep.add_argument("--seed", type=int, default=0)
    p_sep.set_defaults(handler=cmd_separate)

    p_approx = sub.add_parser("approx", help="solve a weak-approximation problem file")
    p_approx.add_argument("--problem", required=True, help="JSON problem file")
    p_approx.set_defaults(handler=cmd_approx)

    p_lemma = sub.add_parser("lemma", help="run one property check by id")
    p_lemma.add_argument("--id", required=True, choices=sorted(LEMMA_IDS),
                         dest="lemma_id")
    for flag, default in (("instances", 20), ("samples", 100)):
        p_lemma.add_argument(f"--{flag}", type=count, default=default,
                             help=f"at most {COUNT_LIMITS['lemma', flag]}")
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.set_defaults(handler=cmd_lemma)

    return parser


def cmd_eval(args) -> int:
    qv = parse_qv(args.qv)
    element = parse_element(args.expr)
    value = qv.value(element)
    if args.format == "json":
        print(json.dumps({
            "qv": str(qv),
            "element": format_element(element),
            "value": str(value),
        }))
    else:
        print(f"w({format_element(element)}) = {value}")
    return 0


def cmd_ball(args) -> int:
    qv = parse_qv(args.qv)
    center = parse_element(args.center)
    ball = Ball(qv, center, parse_rational(args.bound, "bound"), strict=not args.closed)
    rows = []
    for text in args.members:
        element = parse_element(text)
        rows.append({
            "element": format_element(element),
            "gauge": str(ball.gauge(element)),
            "member": ball.contains(element),
        })
    if args.format == "json":
        print(json.dumps({"ball": str(ball), "members": rows}))
    else:
        print(f"ball: {ball}")
        width = max(len(r["element"]) for r in rows)
        for r in rows:
            mark = "in " if r["member"] else "out"
            print(f"  {r['element']:<{width}}  w(y-x) = {r['gauge']:<8} {mark}")
    return 0


def _emit_report(report: PropertyReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json(indent=2))
    else:
        print(report.summary())
        if not report.passed:
            print("counterexamples:")
            print(report.to_json(indent=2))
    return 0 if report.passed else 1


def cmd_axioms(args) -> int:
    qv = parse_qv(args.qv)
    rng = random.Random(args.seed)
    samples = elements_for(qv, rng, args.samples)
    report = check_axioms(qv, samples, seed=args.seed)
    return _emit_report(report, args.format)


def cmd_separate(args) -> int:
    qv = parse_qv(args.qv)
    x = parse_element(args.x)
    y = parse_element(args.y)
    m, ball_x, ball_y = separation_witness(qv, x, y)
    rng = random.Random(args.seed)
    report = PropertyReport(lemma="hausdorff-separation", seed=args.seed)
    in_x, in_y = (member_triples(ball, rng, args.samples) for ball in (ball_x, ball_y))
    report.record(len(in_x) + len(in_y))
    for z in shared_members(ball_x, ball_y, in_x, in_y):
        report.fail({"z": field_element(z, qv.d)}, "balls are disjoint", "z lies in both")
    if args.format == "table":
        print(f"witness bound m = {m}")
        print(f"  {ball_x}")
        print(f"  {ball_y}")
    return _emit_report(report, args.format)


def cmd_approx(args) -> int:
    solution = solve_problem_file(args.problem)
    print(solution.to_json(indent=2))
    return 0


def cmd_lemma(args) -> int:
    report = run_lemma(args.lemma_id, seed=args.seed,
                       instances=args.instances, samples=args.samples)
    return _emit_report(report, args.format)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for (command, flag), limit in COUNT_LIMITS.items():
            if args.command == command and getattr(args, flag) > limit:
                raise DomainError(f"--{flag} must be at most {limit}, got {getattr(args, flag)}")
        return args.handler(args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
