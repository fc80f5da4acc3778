"""Compare the command line of this tree with that of a git revision.

    python3 scripts/parity.py <git-rev>

Exports <git-rev> with the local `git archive` into a temporary directory,
so it needs no network.  Generates every job and probe of the benchmark
workloads with this tree's `bench/workloads.py` at seeds 0, 1 and 2, and
runs each input file under every subcommand of its group that reads a file,
in json and in pretty; a job's own command also gets the job's extra
arguments.  Each tree runs all of them in one subprocess, in-process
through its own `invar.cli.main`, with a fixed hash seed.  Prints the runs
and the differences in stdout, stderr or exit code per command, then the
first differing case, and exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
FORMATS = ("json", "pretty")

# runs in a fresh interpreter: argv is the tree's src directory and the case
# file; prints one [exit code, stdout, stderr] per case as a JSON list
RUNNER = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
src, cases = sys.argv[1:]
sys.path.insert(0, src)
import invar.cli
if not invar.cli.__file__.startswith(src):
    sys.exit(f"imported invar from {invar.cli.__file__}, not from {src}")
results = []
for argv in json.load(open(cases, encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = invar.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash: {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def file_commands() -> dict[str, list[str]]:
    """group -> its subcommands that read an input file, in this tree's cli."""
    sys.path.insert(0, str(ROOT / "src"))
    from invar.cli import _GROUPS

    return {group: [c for c, args in commands.items() if any(f == "--input" for f, _ in args)]
            for group, (_, _, commands) in _GROUPS.items()}


def workload_jobs(seeds=SEEDS) -> dict[str, dict]:
    """file name -> job, for every job of every workload at `seeds` and every probe."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    jobs = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for job in workloads.build(workload, seed):
                jobs[f"{workload}-{seed}-{job['input']}"] = job
    for job in workloads.probe_jobs():
        jobs[job["input"]] = job
    return jobs


def write_cases(work: Path, jobs: dict[str, dict]) -> list[list[str]]:
    """Writes each job's input under `work` and returns the argvs to run."""
    commands = file_commands()
    argvs = []
    for name, job in jobs.items():
        path = work / name
        path.write_text(json.dumps(job["doc"]), encoding="utf-8")
        group = job["cmd"][0]
        for command in commands[group]:
            extra = job["extra"] if job["cmd"] == [group, command] else []
            for fmt in FORMATS:
                argvs.append([group, command, "--input", str(path), *extra, "--format", fmt])
    return argvs


def run_tree(src: Path, cases: Path) -> list:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("INVAR_SEARCH_LIMIT", None)
    done = subprocess.run([sys.executable, "-c", RUNNER, str(src), str(cases)],
                          capture_output=True, text=True, env=env)
    if done.returncode:
        raise SystemExit(f"the runner failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(src_a: Path, src_b: Path, argvs: list[list[str]], work: Path):
    """(exit codes of tree b per command, differences per command, first
    difference or None) of every argv run under both trees' `src` directories."""
    cases = work / "cases.json"
    cases.write_text(json.dumps(argvs), encoding="utf-8")
    results_a, results_b = run_tree(src_a, cases), run_tree(src_b, cases)
    codes, differ, first = {}, Counter(), None
    for argv, a, b in zip(argvs, results_a, results_b):
        command = " ".join(argv[:2])
        codes.setdefault(command, Counter())[b[0]] += 1
        if a != b:
            differ[command] += 1
            first = first or (argv, a, b)
    return codes, differ, first


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/parity.py <git-rev>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        other = tmp / "tree"
        other.mkdir()
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive.stdout, check=True)
        work = tmp / "inputs"
        work.mkdir()
        argvs = write_cases(work, workload_jobs())
        codes, differ, first = compare(other / "src", ROOT / "src", argvs, work)
    for command, counts in sorted(codes.items()):
        exits = ", ".join(f"exit {code}: {n}" for code, n in sorted(counts.items(), key=str))
        print(f"{command}: {sum(counts.values())} runs ({exits}), {differ[command]} differ")
    print(f"total: {len(argvs)} runs, {sum(differ.values())} differ")
    if first is None:
        return 0
    case, theirs, ours = first
    print(f"first difference: invar {' '.join(case)}")
    for label, (code, out, err) in ((argv[0], theirs), ("this tree", ours)):
        print(f"  {label}: exit {code}\n    stdout: {out[:500]!r}\n    stderr: {err[:500]!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
