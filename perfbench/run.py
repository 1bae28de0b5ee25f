"""Benchmark entry point: one workload, its set-up timed several times, one result line.

    python3 perfbench/run.py --workload figures|receivers|ber --seed N \
        --seconds S --trace 0|1

Run from the repository root. The workload runs in a single worker process
with the BLAS thread count fixed; set-up (interpreter start, imports and
building the inputs) is timed in that worker and, in an untraced run, in
SETUP_PROBES more processes that stop after set-up; the median is reported. The last line
of standard output is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "receivers", "ber")
BLAS_THREADS = 1            # at most nproc; one thread keeps passes steady
SETUP_PROBES = 4


def timeout_s(seconds):
    """Time allowed for a whole run: the set-up probes, a warm-up pass, at
    least two timed passes and the checks, with room for passes several
    times slower than the README's reference figures."""
    return 110 + 3 * seconds


def end_to_end(setup_s, result):
    return {"wall_s": (result["wall_s"], "s"), "cpu_s": (result["cpu_s"], "s"),
            "setup_s": (setup_s, "s"), "peak_rss_mb": (result["peak_rss_mb"], "MB")}


LAYER_UNITS = {"calls": "count", "iterations": "count", "trials": "count",
               "zero_error_points": "count", "trials_per_s": "1/s"}


def per_layer(result):
    return {name: (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
            for name, value in result["layers"].items()}


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, extra, deadline):
    """Start a worker; return (process, seconds from spawn to its ready line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        sys.exit(f"error: worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "jdrcap" / "cli.py").is_file():
        sys.exit("error: jdrcap sources not found under src/; run from a checkout of the repo")
    deadline = time.perf_counter() + timeout_s(args.seconds)

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):  # a traced run reports no setup_s
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited {proc.returncode}")
        setups.append(setup)
    proc, setup = start_worker(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(setup)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("error: worker did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"error: worker exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    info = {"workload": args.workload, "seed": args.seed, "passes": result["passes"],
            "warmup_wall_s": result["warmup_wall_s"], "pass_wall_s": result["pass_wall_s"],
            "mpe_solves_audited": result["mpe_solves_audited"],
            "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"], "setup_samples_s": setups,
            "failures": result["failures"]}
    if args.trace:
        metrics = per_layer(result)
        info["layer_self_s"] = result["layer_self_s"]
        info["traced_wall_s"] = result["traced_wall_s"]
        info["untraced_wall_s"] = result["wall_s"]
        info["spans_per_pass"] = result["spans_per_pass"]
    else:
        metrics = end_to_end(statistics.median(setups), result)
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
