"""Record a benchmark point: every workload over several seeds.

    python3 bench/record.py --label seed --seeds 1-10
    python3 bench/record.py --label seed-ungated --workloads presence,demand

For each workload that ``BENCHMARK.json`` names (or each one ``--workloads``
names), this makes one untraced run per seed, one untraced run
on the held-out seed of the first seed, and one traced run on the first
seed (whose self-checks also cover its held-out seed).  Runs last
``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` says otherwise.  It writes
``bench/results/BENCH_<label>.json`` with every run's metrics and, per
end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCH, HELD_OUT


def gate() -> dict:
    """The repository's ``BENCHMARK.json``: the gated workloads and run length."""
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(out.stdout.splitlines()[-1])
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", help="comma-separated; default: those BENCHMARK.json gates")
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    benchmark = gate()
    seconds = args.seconds or benchmark["run_seconds"]

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, seconds, 0))
            print(workload, runs[-1], file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "runs": runs,
            "summary": summarize(runs),
            "held_out": run(workload, seeds[0] + HELD_OUT, seconds, 0),
            "traced": run(workload, seeds[0], seconds, 1),
        }
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results", f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
