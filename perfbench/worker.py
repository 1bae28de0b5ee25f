"""One workload in one process: set up, run whole passes for a time, check outputs.

Started by run.py, which fixes the BLAS thread count in the environment and
times the set-up from process start to the ``ready`` line. Prints one JSON
object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from audit import MpeAudit  # noqa: E402
from tracer import Tracer, observing  # noqa: E402


def timed_pass(workload, scratch):
    """Run one pass; return its wall and CPU time and its outputs."""
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        outputs = workload.run(workdir)
        return time.perf_counter() - wall, time.process_time() - cpu, outputs
    finally:
        shutil.rmtree(workdir)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=out_dir, prefix=f"{args.workload}-")
    tracer = Tracer() if args.trace else None

    # An untimed warm-up pass takes the first calls and page faults; every
    # minimum-error solve in it is audited, and its outputs are the ones checked.
    # Then whole timed passes while the next one would end nearer to --seconds
    # than the last did, and at least two. A traced run alternates untraced
    # and traced passes, so that the tracing overhead is measured in the same process.
    audit = MpeAudit()
    try:
        with observing("discrimination", "mpe_solve", audit):
            warmup_wall_s, _, checked_outputs = timed_pass(workload, scratch)
        reference_digest = workloads.digest(checked_outputs)
        passes = []             # (traced, wall, cpu, digest)
        layer_metrics, layer_self = [], []
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, cpu, outputs = timed_pass(workload, scratch)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layer_metrics.append(tracer.metrics())
                layer_self.append(tracer.layer_self())
                spans_per_pass = len(tracer.spans)
            passes.append((traced, wall, cpu, workloads.digest(outputs)))
            del outputs             # keep only the checked outputs alive: peak RSS is per pass
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed + wall / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.write(out_dir / f"trace_{args.workload}.json")   # the last traced pass

    import checks  # after timing: mpmath and scipy.stats are the checker's own cost

    # one set of checks per run, whatever the number of passes, so that
    # attempted and failed do not depend on the speed of the host or the program
    results = checks.CHECKS[args.workload](workload.inputs, checked_outputs)
    if audit.solves:
        results.append(checks.check_mpe_audit(audit))
    results.append(checks.Check("all_passes_identical",
                                all(p[3] == reference_digest for p in passes)))
    attempted, failed, correct = checks.tally(results)
    failures = {c.name: {"fault": c.fault, "detail": c.detail} for c in results if not c.ok}

    # The fastest pass: other tenants' load on this kind of shared host only
    # adds time, and it comes and goes within seconds, so the minimum tracks
    # the program's own cost far more steadily than the median does.
    untraced = [p for p in passes if not p[0]]
    result = {
        "passes": len(passes),
        "warmup_wall_s": round(warmup_wall_s, 4),
        "mpe_solves_audited": audit.solves,
        "pass_wall_s": [round(p[1], 4) for p in passes],
        "wall_s": min(p[1] for p in untraced),
        "cpu_s": min(p[2] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
    }
    if tracer:
        traced_wall = min(p[1] for p in passes if p[0])
        # median_low: a count stays a whole number with an even number of passes
        result["layers"] = {k: statistics.median_low(m[k] for m in layer_metrics)
                            for k in layer_metrics[0]}
        result["layers"]["trace.overhead_s"] = traced_wall - result["wall_s"]
        result["layer_self_s"] = {k: statistics.median(m.get(k, 0.0) for m in layer_self)
                                  for k in set().union(*layer_self)}
        result["traced_wall_s"] = traced_wall
        result["spans_per_pass"] = spans_per_pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
