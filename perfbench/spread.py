"""Repeat each workload and print every end-to-end metric's spread against its bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads figures,ber]

Run from the repository root. Each run gets its own seed. The spread is the
distance between the first and third quartiles of the runs, as a share of
their median; the benchmark needs it within the metric's bound in
BENCHMARK.json (setup_s excepted), and aims for a third of it. Also prints
the failed share of each run, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("error: need --runs >= 2 to measure a spread")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            print(f"  {workload}/{name}: median {med:.4f} spread {spread:.4f} "
                  f"bound {bounds[name]} -> {verdict}")
        print(f"  {workload}: failed shares {sorted(str(s) for s in shares)} -> "
              f"{'same' if len(shares) == 1 else 'DIFFER'}")


if __name__ == "__main__":
    main()
