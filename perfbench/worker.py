"""Run one workload in this process and print its raw measurements as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--min-jobs K]
                                [--traced] [--setup-only]

`setup_s` runs from the first line of this file (before numpy is imported)
through fixture construction.  One warm-up job follows, untimed by the
statistics; then jobs run back to back until `--seconds` have passed and at
least `--min-jobs` jobs have run.  Every job, the warm-up too, is timed, gated
and digested, and a job that raises counts as failed.
With `--traced` the jobs run under the span tracer, and the second job also
under tracemalloc; span times come from the other jobs, which it does not
slow.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_job(workload, tracer: Tracer) -> dict:
    """Run, time and check one job; a job that raises is a failed job, never retried."""
    started = time.perf_counter()
    try:
        with tracer.span("bench.job"):
            result = workload.job(tracer)
        record = {"digest": result.digest, "roots": repr(result.roots),
                  "nodes": result.nodes, "failures": result.failures}
    except Exception as exc:
        record = {"digest": None, "roots": None, "nodes": 0,
                  "failures": [f"{type(exc).__name__}: {exc}"]}
    record["ms"] = (time.perf_counter() - started) * 1e3
    record["alloc"] = tracer.alloc
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - STARTED
    out = {"setup_s": setup_s, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    # The warm-up job pays first-touch page faults and lazy set-up once; it is
    # checked like every job but left out of the timed loop.
    warmup = run_job(workload, Tracer(False))
    tracer = Tracer(args.traced)
    jobs = []
    began = time.perf_counter()
    while len(jobs) < args.min_jobs or time.perf_counter() - began < args.seconds:
        tracer.job = len(jobs)
        tracer.alloc = args.traced and len(jobs) == 1
        if tracer.alloc:
            tracemalloc.start()
        jobs.append(run_job(workload, tracer))
        if tracer.alloc:
            tracemalloc.stop()
    out.update(warmup=[warmup], jobs=jobs, spans=tracer.spans,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
