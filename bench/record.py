"""Run every workload over several seeds and write the summary as JSON.

    python3 bench/record.py --seeds 101-110 --out bench/results/NAME.json

For each workload and end-to-end metric the file holds the value per seed,
the median and quartiles, and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.  It also holds the
per-layer metrics of one traced run per workload and every run record
(machine, versions, qval commit, seed, input digest, op count).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(values, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else None, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def parse_seeds(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=list(range(101, 111)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        records = []
        for seed in args.seeds:
            record, result = run(workload, seed, args.seconds, 0)
            correct = correct and result["correct"]
            del record["round_ops_per_s"]  # bulky
            records.append(record)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name in ("checks_per_s", "error_rate"):
                if record[name] is not None:
                    values.setdefault(name, []).append(record[name])
        traced_record, traced = run(workload, args.seeds[0], args.seconds, 1)
        correct = correct and traced["correct"]
        doc["workloads"][workload] = {
            "end_to_end": {n: summary(v, bounds.get(n)) for n, v in values.items()},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "records": records + [traced_record],
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:<13} {name:<13} median {s['median']:<14.6g} spread {spread}"
                  f"  bound {s.get('bound', '-')}", flush=True)

    first = doc["workloads"][next(iter(doc["workloads"]))]["records"][0]
    doc["machine"] = {k: first[k] for k in ("nproc", "cpu_model", "python", "numpy")}
    doc["qval_commit"] = first["qval_commit"]
    doc["qval_source_sha256"] = first["qval_source_sha256"]
    doc["correct"] = correct
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
