"""Benchmark of the invar command line: three closed-loop workloads.

    python3 bench/run.py --workload arrangements|engine|fans|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload is one client in one process
sending its next job when the previous one has finished (a closed loop, no
extra threads).  A run repeats passes over the fixed job list, each pass in
a fresh worker process, until --seconds are used up (at least three passes).
It times the set-up (a fresh interpreter that imports invar, generates the
seeded inputs and writes them) once before the first pass and twice after
each.  Every time is scaled to a fixed machine speed by a reference
computation timed next to it (see speed.py).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the passes alternate untraced and traced (at least
two of each), and the JSON carries the per-layer metrics and the tracing
overhead.  Lines before
it repeat every metric by name and unit, plus failed_frac, the tail
percentile used, the Python version, nproc and the seed.

Exit codes: 0 on a complete run (whether or not every answer was correct;
see "correct"), 1 when a worker failed, 2 when the checkout has no invar
source to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("arrangements", "engine", "fans")
DEFAULT_SEED = 0
SETUP_REPEATS = 15  # at least; one before the first pass, two after each
MIN_PASSES = 3  # a job's time is the median of three or more (of two or more when traced)
RUN_LIMIT_S = 170.0  # a run must finish well inside 180 s

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(BENCH_DIR))
from spans import layer_metrics, metric_unit  # noqa: E402
from speed import REFERENCE_MS, reference_ms, job_scales  # noqa: E402


class WorkerError(RuntimeError):
    pass


def pinned_env() -> dict:
    """The environment every worker runs in.

    Drops INVAR_SEARCH_LIMIT (so the default limit of 10**7 applies) and any
    PYTHON* setting, fixes PYTHONHASHSEED and puts the checkout's src/ first.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "INVAR_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, env, deadline):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + [str(a) for a in args]
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerError(f"worker {args[0]} exited with {proc.returncode}: {tail}")


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least 10 jobs of a pass beyond it."""
    for p in range(99, 0, -1):
        if jobs_per_pass - math.ceil(p * jobs_per_pass / 100) >= 10:
            return p
    return 50


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def per_job_median(reports) -> list[float]:
    """Each job's scaled time in ms, at its median over the passes."""
    scaled = [[t * f for t, f in zip(r["job_ms"], job_scales(r["reference_ms"]))]
              for r in reports]
    return [statistics.median(times) for times in zip(*scaled)]


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """One benchmark run of one workload; returns a result dict."""
    env = pinned_env()
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    setup_times = []
    raw_setup_times = []

    def timed_setup():
        before = reference_ms()
        t0 = perf_counter()
        run_worker(["setup", "--workload", workload, "--seed", seed, "--work", work / "in"],
                   env, deadline)
        elapsed = perf_counter() - t0
        raw_setup_times.append(elapsed)
        setup_times.append(elapsed * 2.0 * REFERENCE_MS / (before + reference_ms()))

    try:
        timed_setup()

        kinds = ["plain", "traced"] if trace else ["plain"]
        reports = {kind: [] for kind in kinds}
        durations = []
        pass_start = perf_counter()
        while True:
            kind = kinds[len(durations) % len(kinds)]
            report_path = work / f"report-{len(durations)}.json"
            args = ["pass", "--work", work / "in", "--report", report_path]
            if kind == "traced":
                trace_dir = WORK_ROOT / "traces"
                trace_dir.mkdir(exist_ok=True)
                args += ["--trace", trace_dir / f"{workload}.csv"]
            t0 = perf_counter()
            run_worker(args, env, deadline)
            durations.append(perf_counter() - t0)
            reports[kind].append(json.loads(report_path.read_text(encoding="utf-8")))
            # set-ups spread over the run sample its slow and fast phases alike
            timed_setup()
            timed_setup()
            if len(durations) % len(kinds):
                continue  # a traced run has as many traced passes as untraced ones
            # start another pass only if it should end within the run time
            expected = statistics.mean(durations)
            now = perf_counter()
            if now + expected > deadline - 5:
                break
            if len(durations) >= MIN_PASSES and now - pass_start + expected > seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = reports["plain"]
    jobs_per_pass = plain[0]["jobs"]
    # a job's time is scaled to the reference machine speed by the reference
    # runs on either side of it, then taken at its median over the passes
    job_ms = per_job_median(plain)
    raw_job_ms = [statistics.median(ts) for ts in zip(*(r["job_ms"] for r in plain))]
    pct = tail_percentile(jobs_per_pass)
    every = [r for rs in reports.values() for r in rs]
    failures = {}
    for r in every:
        failures.update(r["failures"])
    result = {
        "workload": workload,
        "passes": {kind: len(rs) for kind, rs in reports.items()},
        "jobs_per_pass": jobs_per_pass,
        "tail_percentile": pct,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(len(r["failures"]) for r in every),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(job_ms) / 1000.0,
            "job_p50_ms": statistics.median(job_ms),
            "job_tail_ms": nearest_rank(job_ms, pct),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        },
        "rss_before_jobs_mb": statistics.median(r["rss_before_jobs_mb"] for r in plain),
        "raw_wall_s": sum(raw_job_ms) / 1000.0,
        "raw_setup_s": statistics.median(raw_setup_times),
        "reference_ms": statistics.median(x for r in plain for x in r["reference_ms"]),
    }
    if trace:
        traced = reports["traced"]
        layer = layer_metrics([r["trace"] for r in traced],
                              [job_scales(r["reference_ms"]) for r in traced])
        traced_ms = per_job_median(traced)
        layer["trace.overhead_s"] = (sum(traced_ms) - sum(job_ms)) / 1000.0
        result["layer"] = layer
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invar" / "__init__.py").is_file():
        print(f"error: no invar source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)  # what `nproc` reports
    # every process of the run on one CPU, the last one allowed: a worker
    # cannot then migrate between a job and the reference timed next to it,
    # and the parent's reference runs around a set-up see the same CPU
    os.sched_setaffinity(0, {max(cpus)})
    print(f"# invar benchmark: python {platform.python_version()}, nproc {nproc}, "
          f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}, "
          f"PYTHONHASHSEED=0, INVAR_SEARCH_LIMIT unset (default 10**7), "
          f"pinned to CPU {max(cpus)}")
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(res)
        passes = ", ".join(f"{n} {kind}" for kind, n in res["passes"].items())
        print(f"# {name}: {passes} passes of {res['jobs_per_pass']} jobs; "
              f"times are scaled to a reference speed of {REFERENCE_MS} ms; the reference "
              f"took {res['reference_ms']:.3f} ms (median), so unscaled wall_s was "
              f"{res['raw_wall_s']:.4g} s and setup_s {res['raw_setup_s']:.4g} s; "
              f"a job's time is its median over the passes; wall_s is their sum; "
              f"job_tail_ms is p{res['tail_percentile']} over {res['jobs_per_pass']} jobs, "
              f"with at least 10 beyond it; of peak_rss_mb, "
              f"{res['rss_before_jobs_mb']:.2f} MB were resident before the first job")
        for metric, unit in E2E_UNITS.items():
            print(f"{name} {metric} {_fmt(res['metrics'][metric])} {unit}")
        print(f"{name} failed_frac {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']})")
        for job_id, reason in sorted(res["failures"].items())[:10]:
            print(f"# FAILED {name}/{job_id}: {reason}", file=sys.stderr)
        if args.trace:
            for metric, value in res["layer"].items():
                print(f"{name} {metric} {_fmt(value)} {metric_unit(metric)}")

    def metric_block(res):
        if args.trace:
            return {m: {"value": v, "unit": metric_unit(m)} for m, v in res["layer"].items()}
        return {m: {"value": res["metrics"][m], "unit": u} for m, u in E2E_UNITS.items()}

    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{res['workload']}.{m}": v
                   for res in results for m, v in metric_block(res).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
