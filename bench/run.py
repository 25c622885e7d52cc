"""qval benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload

With a workload, one process runs it as a closed loop with one client:
set up (import qval from src/, build constructors and inputs from the
seed, warm up on inputs from another stream), then execute whole rounds of
ops until --seconds have passed and at least 100 ops ran, checking every
output independently between rounds, outside the timed calls.  It prints
a run record line and, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s, the median of five
set-ups (this process and four fresh ones); ops_per_s, the ops of the
whole run per second of timed call time; op_p50_ms and op_p90_ms over
every op of the run; peak_rss_mb of this process.  The run record adds
checks_per_s, error_rate and the run's provenance.

--trace 1 runs a fixed number of rounds untraced, then the same rounds
again with spans around qval's public functions (bench/tracer.py), checks
that both passes agree, and reports the per-layer metrics; spans go to
bench/out/.

Without a workload, each workload runs in its own process and a table of
every metric is printed; the exit code is 1 if any output check failed.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
# qval never calls BLAS, but numpy's OpenBLAS starts a worker thread per core
# when it is imported: on a small shared machine that thread pool doubles the
# import time and makes set-up time swing from run to run.  The benchmark is
# one client in one thread, so it runs with a single BLAS thread (set before
# numpy is imported here or in a set-up process, which inherits it).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from bench import workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# a run goes on past --seconds until it has this many ops, so that p90 has
# at least ten samples beyond it
MIN_OPS = 100
# set-up is measured this many times (this process plus fresh processes)
# and reported as the median
SETUP_SAMPLES = 5
# rounds per pass of a traced run: fixed, so counts repeat exactly per seed
TRACE_ROUNDS = {"axioms-int64": 10, "axioms-wide": 10, "lemmas": 5, "queries": 30}
QVAL_MODULES = ("qval", "qval.batch", "qval.cli", "qval.lemmas", "qval.sampling")
CHILD_TIMEOUT_S = 170


class SetupError(Exception):
    pass


def load_qval():
    """A fresh import of qval from src/, never from an installed copy."""
    if not (SRC / "qval" / "__init__.py").is_file():
        raise SetupError(f"no qval sources under {SRC}")
    for name in [m for m in sys.modules if m == "qval" or m.startswith("qval.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    loaded = {name: importlib.import_module(name) for name in QVAL_MODULES}
    if Path(loaded["qval"].__file__).resolve().parent != (SRC / "qval").resolve():
        raise SetupError(f"qval was imported from {loaded['qval'].__file__}")
    modules = {n: m for n, m in sys.modules.items() if n == "qval" or n.startswith("qval.")}
    q = types.SimpleNamespace(qval=loaded["qval"], cli=loaded["qval.cli"],
                              lemmas=loaded["qval.lemmas"])
    return q, modules


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode())
        h.update(b"\n")
    return h.hexdigest()


def execute(wl, ops, tracer=None):
    """Run ops in order, timing each call alone: [(op, output, error, ns)]."""
    executed = []
    for op in ops:
        call = (lambda op=op: wl.execute(op))
        start = time.perf_counter_ns()
        try:
            out = tracer.op_span(len(executed), call) if tracer else call()
            err = None
        except Exception as exc:  # an escaping exception fails the op
            out, err = None, f"{type(exc).__name__}: {exc}"
        executed.append((op, out, err, time.perf_counter_ns() - start))
    return executed


class Tally:
    """What a run keeps of its ops once they are checked: latencies, the
    input digest, assertion counts and failures (and, for comparing two
    passes, the outputs)."""

    def __init__(self, keep_outputs=False):
        self.latencies_ns: list = []
        self.round_rates: list = []  # ops per busy second, per round
        self.by_kind: dict = {}
        self.inputs = hashlib.sha256()
        self.checks = 0
        self.failures: list = []
        self.outputs = [] if keep_outputs else None

    def add(self, wl, executed) -> None:
        busy = 0
        for op, out, err, ns in executed:
            if err is None:
                try:
                    err = wl.check(op, out)
                except Exception as exc:  # a malformed output fails the op
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
            if err:
                self.failures.append(f"{op.kind} [{op.key[:60]}]: {err}")
            self.latencies_ns.append(ns)
            self.by_kind.setdefault(op.kind, []).append(ns)
            self.inputs.update(op.key.encode() + b"\n")
            self.checks += op.checks
            if self.outputs is not None:
                self.outputs.append((out, err, op.checks))
            busy += ns
        self.round_rates.append(len(executed) / (busy / 1e9))

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def kinds(self) -> dict:
        return {k: {"ops": len(v), "p50_ms": statistics.median(v) / 1e6}
                for k, v in sorted(self.by_kind.items())}


def setup(name, seed, workdir):
    """Import qval, build the workload and its first round, and warm up on
    one op of each kind from another stream.

    Returns (seconds taken, workload, qval modules, first round, warm-up
    tally)."""
    started = time.perf_counter()
    q, modules = load_qval()
    wl = workloads.build(name, q, workdir)
    first = wl.make_round(seed, "run", 0)
    warm, seen = [], set()
    for op in wl.make_round(seed, "warmup", 0):
        if op.kind not in seen:
            seen.add(op.kind)
            warm.append(op)
    tally = Tally()
    tally.add(wl, execute(wl, warm))
    return time.perf_counter() - started, wl, modules, first, tally


def run_record(name, args, extra) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qval_commit": git_commit(),
        "qval_source_sha256": source_digest(),
        "reference_loop_ms": reference_loop_ms(),
        **extra,
    }


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop.  The shared machine runs
    faster or slower for minutes at a time; this records how fast it was
    during the run, for reading metrics across runs.  No metric uses it."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qval").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(name, args, workdir, setup_samples_wanted=SETUP_SAMPLES):
    """The untraced run: end-to-end metrics."""
    setup_s, wl, _, first, warm = setup(name, args.seed, workdir)
    setup_samples = [setup_s]
    for _ in range(setup_samples_wanted - 1):
        setup_samples.append(child_setup_seconds(name, args.seed))

    tally = Tally()
    ops = first
    loop_start = time.perf_counter()
    while True:
        tally.add(wl, execute(wl, ops))  # checked between rounds, untimed
        if time.perf_counter() - loop_start >= args.seconds and tally.ops >= MIN_OPS:
            break
        ops = wl.make_round(args.seed, "run", len(tally.round_rates))
    wall = time.perf_counter() - loop_start

    latencies = sorted(ns / 1e6 for ns in tally.latencies_ns)
    failures = warm.failures + tally.failures
    attempted = warm.ops + tally.ops
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": tally.ops / tally.busy_s,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    record = run_record(name, args, {
        "input_digest": digest(first),
        "run_digest": tally.inputs.hexdigest(),
        "ops": tally.ops,
        "rounds": len(tally.round_rates),
        "busy_s": tally.busy_s,
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "round_ops_per_s": tally.round_rates,
        "checks": tally.checks,
        "checks_per_s": (tally.checks / tally.busy_s
                         if name in workloads.PROPERTY_WORKLOADS else None),
        "error_rate": len(failures) / attempted,
        "op_kinds": tally.kinds(),
        "failures": failures[:5],
    })
    return record, {"correct": not failures, "attempted": attempted,
                    "failed": len(failures), "metrics": metrics}


def child_setup_seconds(name, seed) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def trace(name, args, workdir, n_rounds=None):
    """The traced run: the same rounds untraced, then traced."""
    n_rounds = n_rounds or TRACE_ROUNDS[name]
    tracer = Tracer()
    passes = []
    for traced in (False, True):
        _, wl, modules, first, warm = setup(name, args.seed, workdir)
        ops = first + [op for r in range(1, n_rounds) for op in wl.make_round(args.seed, "run", r)]
        if traced:
            tracer.install(modules)
        try:
            executed = execute(wl, ops, tracer if traced else None)
        finally:
            tracer.uninstall()
        tally = Tally(keep_outputs=True)
        tally.add(wl, executed)
        passes.append((warm, tally))

    (plain_warm, plain), (traced_warm, traced) = passes
    mismatches = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
    same_inputs = plain.inputs.digest() == traced.inputs.digest()
    failures = plain_warm.failures + plain.failures + traced_warm.failures + traced.failures
    metrics = tracer.metrics(assertions=traced.checks,
                             overhead_ratio=traced.busy_s / plain.busy_s)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    record = run_record(name, args, {
        "input_digest": digest(first),
        "run_digest": traced.inputs.hexdigest(),
        "ops": traced.ops,
        "rounds": n_rounds,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": traced.busy_s,
        "checks": traced.checks,
        "same_inputs": same_inputs,
        "traced_outputs_differing": mismatches,
        "untraced_targets": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures[:5],
    })
    return record, {"correct": not failures and not mismatches and same_inputs,
                    "attempted": plain_warm.ops + plain.ops + traced_warm.ops + traced.ops,
                    "failed": len(failures) + mismatches, "metrics": metrics}


def run_one(args) -> int:
    os.environ.pop("QVAL_PRECISION_CAP", None)  # qval's default cap, always
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[0]}))
            return 0
        record, result = (trace if args.trace else measure)(args.workload, args, workdir)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    ok = True
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}", file=sys.stderr)
            ok = False
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        print(json.dumps({"record": record}))
        ok = ok and proc.returncode == 0 and result["correct"]
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
        if not args.trace:
            if record["checks_per_s"] is not None:
                rows.append((name, "checks_per_s", record["checks_per_s"], "checks/s"))
            rows.append((name, "error_rate", record["error_rate"], "ratio"))
        rows.append((name, "op_samples", record["ops"], "count"))
    width = max((len(r[1]) for r in rows), default=10)
    for name, key, value, unit in rows:
        print(f"{name:<13} {key:<{width}} {value:>16.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
