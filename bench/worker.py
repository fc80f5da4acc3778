"""Child process of the benchmark: set-up, or one pass over a workload's jobs.

    worker.py setup --workload NAME --seed N --work DIR
    worker.py pass --work DIR --report FILE [--trace FILE]

`setup` imports invar, generates the seeded inputs and writes them with a
manifest into DIR.  `pass` runs every job of the manifest once, in this one
process, as an in-process `invar.cli.main([..., "--format", "json"])` call
with stdout and stderr captured; only the jobs are timed.  Before the first
job and after each one it times the reference computation of speed.py, so
that run.py can scale each job to a fixed machine speed.  After the loop
it checks every answer and writes a JSON report.  With --trace it records
per-layer spans during the loop, summarises them per job and writes them
to FILE.

run.py starts this script with a pinned environment and PYTHONPATH pointing
at the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RECORDED = BENCH_DIR / "recorded.json"

import invar  # noqa: E402  (part of what set-up measures)
import invar.cli  # noqa: E402
from speed import reference_ms  # noqa: E402

# the benchmark's own modules are imported where they are used, and in a
# pass only after the peak memory is read, so that the peak is that of the
# interpreter, invar and the jobs, as a command-line user would see it


def _check_source():
    found = Path(invar.__file__).resolve()
    if SRC_DIR.resolve() not in found.parents:
        raise SystemExit(f"imported invar from {found}, not from {SRC_DIR}")


def setup(workload: str, seed: int, work: Path):
    import workloads

    jobs = workloads.build(workload, seed)
    probes = workloads.probe_jobs()
    work.mkdir(parents=True, exist_ok=True)
    for job in jobs + probes:
        (work / job["input"]).write_text(json.dumps(job.pop("doc")), encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "jobs": jobs, "probes": probes}
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def run_job(argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = invar.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = "exception"
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def _argv(work: Path, job) -> list[str]:
    return job["cmd"] + ["--input", str(work / job["input"])] + job["extra"] + ["--format", "json"]


def run_pass(work: Path, trace_file: str | None):
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    jobs = manifest["jobs"]
    argvs = [_argv(work, j) for j in jobs]
    tracer = None
    if trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    times = []
    outputs = []
    # the machine's speed next to every job: refs[j] is taken just before
    # job j and refs[j + 1] just after it (see speed.py)
    gc.collect()
    refs = [reference_ms()]
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_one(argv):
        if tracer:
            tracer.start_job()
        t0 = perf_counter()
        outputs.append(run_job(argv))
        elapsed = perf_counter() - t0
        if tracer:
            tracer.end_job()
        # each job starts from a collected heap, as it would in a fresh
        # process; otherwise a collection triggered by earlier jobs'
        # garbage lands on whichever job happens to follow
        gc.collect()
        refs.append(reference_ms())
        return elapsed

    try:
        for argv in argvs:
            times.append(run_one(argv))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            jobs = jobs + manifest["probes"]
            for job in manifest["probes"]:
                run_one(_argv(work, job))
    finally:
        if tracer:
            tracer.uninstall()

    import oracles

    results = {}
    stderr = {}
    for job, (code, out, err) in zip(jobs, outputs):
        job["doc"] = json.loads((work / job["input"]).read_text(encoding="utf-8"))
        results[job["id"]] = (code, out)
        stderr[job["id"]] = err
    # answers of the commit that introduced the benchmark, frozen: nothing
    # in the benchmark writes this file
    rec = json.loads(RECORDED.read_text(encoding="utf-8"))
    recorded = None
    if rec["seed"] == manifest["seed"]:
        recorded = rec["outputs"].get(manifest["workload"], {})
    failures = oracles.check_pass(jobs, results, recorded)
    for job_id in failures:
        if stderr[job_id]:
            failures[job_id] += " | stderr: " + stderr[job_id].strip().splitlines()[-1]
    report = {
        "rss_mb": peak_kb / 1024.0,
        "rss_before_jobs_mb": base_kb / 1024.0,
        "job_ms": [t * 1000.0 for t in times],
        "reference_ms": refs,
        "jobs": len(times),
        "attempted": len(jobs),
        "failures": failures,
    }
    if tracer:
        report["trace"] = tracer.job_stats
        tracer.write(trace_file)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--work", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--work", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    _check_source()
    if args.mode == "setup":
        setup(args.workload, args.seed, Path(args.work))
        return 0
    report = run_pass(Path(args.work), args.trace)
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
