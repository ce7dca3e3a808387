"""Benchmark of zecap: runs one workload in this process and prints metrics.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; zecap is imported from ``src/``.  A run is
one round of the workload's jobs, one at a time on one thread (a closed loop
with one client), each a ``zecap`` CLI invocation through ``zecap.cli.main``
with its output captured, or a library call where the CLI has no switch.
Jobs run in-process so that interpreter start-up, paid once, is reported as
``setup_s`` and does not swamp the job times.  The job list depends on the
workload and the seed only, so every run attempts the same operations; it is
sized so that a round takes about the 25 s of ``run_seconds`` in
BENCHMARK.json on a 2-core x86 machine under Python 3.11.  ``--seconds`` is
accepted for that interface and does not change the list.  The seed changes
the inputs but not their sizes.

The answers are checked after the timed loop.  The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a run
whose layer calls are wrapped in spans; the spans go to
``perfbench/results/``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7


def setup(workload: str, seed: int, work: Path):
    """Import zecap from the checkout and build the workload's jobs."""
    sys.path.insert(0, str(ROOT / "src"))
    import zecap  # noqa: F401
    import zecap.cli
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return zecap, workloads, workloads.WORKLOADS[workload](rng, work, zecap)


def time_setup(args) -> float:
    """Median wall time of fresh interpreters that only set up this run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def execute(job, zecap, workloads, tracer):
    out, err = io.StringIO(), io.StringIO()
    code, error, value = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.argv is not None:
                run = lambda: zecap.cli.main(job.argv)  # noqa: E731
            else:
                run = job.call
            result = tracer.span("job", run) if tracer else run()
            if job.argv is not None:
                code = result
            else:
                code, value = 0, result
        except Exception:  # the program's fault: count it and go on
            error = traceback.format_exc()
    return workloads.Outcome(code, out.getvalue(), err.getvalue(), error, value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["capacity", "codes", "expressions"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "zecap" / "cli.py").is_file():
        print(f"error: no zecap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        zecap, workloads, jobs = setup(args.workload, args.seed, work)
        if args.setup_only:
            return 0
        setup_s = None if args.trace else time_setup(args)

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()

        outcomes, times = [], []
        for job in jobs:
            gc.collect()
            t0 = time.perf_counter()
            outcomes.append(execute(job, zecap, workloads, tracer))
            times.append(time.perf_counter() - t0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, correct = 0, True
    for job, outcome, t in zip(jobs, outcomes, times):
        try:
            job.check(outcome)
        except Exception as ex:  # a wrong answer, or output the check cannot read
            failed += 1
            correct = correct and job.known_fault
            tag = "known fault" if job.known_fault else "FAILED"
            print(f"{tag}: {job.name} ({t:.3f}s): {type(ex).__name__}: {ex}",
                  file=sys.stderr)

    wall_s = sum(times)
    if tracer:
        metrics = {k: (v, unit_of(k)) for k, v in tracer.layer_metrics().items()}
        tracer.write(HERE / "results" / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "wall_s": wall_s,
                      "jobs": [[j.name, t] for j, t in zip(jobs, times)]})
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "hardest_job_s": (max(times), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
