"""glattice benchmark: a workload (or all of them), one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metric names and units come from
BENCHMARK.json next to this directory; `--workload all` runs every workload in
turn and prefixes each metric of the final JSON with the workload's name.
Each workload runs in its own
single-threaded subprocess as a closed loop (one client; the next job starts
when the previous one has finished).

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median over several fresh processes), median and tail job time, time per
node swept, and the peak RSS of the workload's process.  --trace 1 runs the
workload untraced for half the time and traced for the other half (spans on
every job, tracemalloc on the second one), derives the per-layer metrics from
the spans and reports the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Raw results and
spans go to perfbench/out/.  Exits 2 without a result when the library source
is missing and 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import layer_metric, self_seconds  # noqa: E402

SETUP_PROBES = 14         # extra set-up-only processes; setup_s is the median
TAIL_JOBS = 11            # the measuring run goes on until job_tail_ms has ten jobs beyond it
TIME_LIMIT_S = 170.0      # whole run, every process included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, deadline: float,
               *flags: str) -> dict:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), *flags]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerError(f"{workload} worker passed the {TIME_LIMIT_S:g} s limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"{workload} worker printed no result:\n{proc.stdout}") from None


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with ten jobs beyond it, and its percentile."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_JOBS
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def cache_sizes() -> str:
    sizes = []
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}={size}")
    return ",".join(sizes) or "unknown"


def tally(workers: list[dict]) -> tuple[list[dict], int, collections.Counter]:
    """All jobs in run order, warm-ups included, how many failed, and the failure messages.

    A job fails when it breaks a check or raises, or when its digest differs
    from the first digest of the run.
    """
    jobs = [job for worker in workers
            for key in ("warmup", "jobs") for job in worker.get(key, ())]
    reference = next((job["digest"] for job in jobs if job["digest"]), None)
    failed = 0
    messages: collections.Counter = collections.Counter()
    for job in jobs:
        reasons = list(job["failures"])
        if job["digest"] and job["digest"] != reference:
            reasons.append("digest differs from the run's first digest")
        failed += bool(reasons)
        messages.update(reasons)
    return jobs, failed, messages


def end_to_end(jobs: list[dict], setups: list[float], rss_mb: float) -> tuple[dict, dict]:
    times = [job["ms"] for job in jobs]
    value, pct = tail(times)
    nodes = [job for job in jobs if job["nodes"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_ms": statistics.median(times),
        "job_tail_ms": value,
        "ns_per_node": statistics.median(job["ms"] * 1e6 / job["nodes"] for job in nodes)
        if nodes else 0.0,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "job_tail_ms": f"p{pct:.1f} of {len(times)} jobs, {TAIL_JOBS - 1} beyond it",
        "ns_per_node": f"{jobs[0]['nodes']} nodes per job, computed from shapes",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def per_layer(names: list[str], plain: dict, traced: dict) -> tuple[dict, dict]:
    spans = traced["spans"]
    own = self_seconds(spans)
    untraced_p50 = statistics.median(job["ms"] for job in plain["jobs"])
    span_jobs = [job["ms"] for job in traced["jobs"] if not job["alloc"]]
    alloc_jobs = [job["ms"] for job in traced["jobs"] if job["alloc"]]
    traced_p50 = statistics.median(span_jobs)
    special = {"trace.job_p50_ms": traced_p50, "trace.untraced_job_p50_ms": untraced_p50,
               "trace.overhead_ms": traced_p50 - untraced_p50,
               "trace.alloc_job_p50_ms": statistics.median(alloc_jobs) if alloc_jobs else 0.0}
    metrics = {name: special[name] if name in special else layer_metric(name, spans, own)
               for name in names}
    notes = {"trace.overhead_ms": f"span-traced job p50 minus untraced job p50, "
                                  f"{len(span_jobs)} and {len(plain['jobs'])} jobs",
             "trace.alloc_job_p50_ms": f"jobs traced with spans and tracemalloc, "
                                       f"{len(alloc_jobs)} jobs"}
    return metrics, notes


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, write its raw record, print its lines; return the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        plain = run_worker(workload, seed, seconds / 2, deadline)
        traced = run_worker(workload, seed, seconds / 2, deadline, "--traced")
        workers = [plain, traced]
        declared = spec["per_layer"]
        metrics, notes = per_layer([m["name"] for m in declared], plain, traced)
    else:
        # Set-up probes run before and after the measuring process, so that
        # they do not all fall into one slow spell of a shared machine.
        probe = ("--setup-only",)
        before = [run_worker(workload, seed, 0.0, deadline, *probe)
                  for _ in range(SETUP_PROBES // 2)]
        main_worker = run_worker(workload, seed, seconds, deadline, "--min-jobs", str(TAIL_JOBS))
        after = [run_worker(workload, seed, 0.0, deadline, *probe)
                 for _ in range(SETUP_PROBES - len(before))]
        workers = [main_worker, *before, *after]
        declared = spec["end_to_end"]
        metrics, notes = end_to_end(main_worker["jobs"], [w["setup_s"] for w in workers],
                                    main_worker["peak_rss_mb"])

    jobs, failed, messages = tally(workers)
    env = {"nproc": len(os.sched_getaffinity(0)), "caches": cache_sizes(),
           "python": platform.python_version(), "numpy": workers[0]["numpy"]}
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{trace}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "result": result, "notes": notes,
              "failed_frac": failed / len(jobs), "failures": messages,
              "digest": jobs[0]["digest"], "roots": jobs[0]["roots"],
              "setups_s": [w["setup_s"] for w in workers], "jobs": jobs}
    (OUT / f"result_{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT / f"spans_{stem}.json").write_text(json.dumps(traced["spans"]))

    print(f"# glattice benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# digest: sha256:{jobs[0]['digest']} (repr of the first job's root values)")
    for message, count in messages.items():
        print(f"# failed check ({count} jobs): {message}")
    print(f"{'failed_frac':<40} {failed / len(jobs):<24.6g} ratio  ({failed} of {len(jobs)} jobs)")
    for m in declared:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:<40} {metrics[m['name']]!r:<24} {m['unit']}{note}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "glattice" / "__init__.py").is_file():
        print(f"benchmark: no glattice source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run raises SystemExit, so subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        if args.workload != "all":
            print(json.dumps(run_one(spec, args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {name: run_one(spec, name, args.seed, args.seconds, args.trace)
                   for name in names}
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
