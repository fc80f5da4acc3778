"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. The oracles can fail: for every kind of expectation, real outputs of the
   program pass, and deliberately corrupted outputs (a wrong number, a wrong
   exit code, a broken witness, a missing identity) are rejected.
2. The counts are exact: two traced passes over the same seed report
   identical flats, order pairs, simplices, boundary entries, search nodes,
   feasible counts, convergence checks and Fourier-Motzkin calls.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import layer_metrics  # noqa: E402
from speed import job_scales  # noqa: E402
from worker import run_job  # noqa: E402

SEED = 3
EXACT_COUNTS = [
    "arrangements.build_lattice.flats",
    "arrangements.build_lattice.order_pairs",
    "posets.order_complex.simplices",
    "posets.boundary_matrix.entries",
    "qlinalg.QMatrix.rank.calls",
    "tables.deduce_lambda.nodes",
    "tables.deduce_lambda.feasible_count",
    "tables.validate_lambda.calls",
    "tables.check_convergence_lambda.calls",
    "fans.fm_feasible.calls",
    "fans.fm_feasible.inequalities",
    "trace.spans",
]


def _bump_first(values, path=()):
    """Path to the first nonzero integer inside a nested list, or None."""
    for i, v in enumerate(values):
        if isinstance(v, list):
            found = _bump_first(v, path + (i,))
            if found:
                return found
        elif isinstance(v, int) and not isinstance(v, bool) and v:
            return path + (i,)
    return None


def _bumped(res: dict, key: str) -> dict:
    res = copy.deepcopy(res)
    path = _bump_first(res[key])
    target = res[key]
    for i in path[:-1]:
        target = target[i]
    target[path[-1]] += 1
    return res


def corruptions(kind: str, code, res: dict):
    """Wrong variants of a correct (code, parsed output) pair."""
    wrong_code = 0 if code == 3 else 3
    yield "exit code", wrong_code, res
    if kind in ("betti", "mixed_betti"):
        yield "betti number", code, _bumped(res, "betti")
    elif kind in ("cdr_table", "mixed_cdr"):
        yield "table entry", code, _bumped(res, "entries")
    elif kind == "deduce":
        bad = copy.deepcopy(res)
        count = int(bad["notes"][0].split(": ")[1])
        bad["notes"][0] = f"feasible completions: {count + 1}"
        yield "completion count", code, bad
        bad = copy.deepcopy(res)
        bad["notes"] = [n for n in bad["notes"] if not n.startswith("identity")] + [
            n for n in bad["notes"] if n.startswith("identity")][:-1]
        yield "missing identity", code, bad
    elif kind == "contradiction":
        yield "no contradiction note", code, dict(res, notes=["feasible completions: 1"])
    elif kind == "lambda_feasible":
        bad = copy.deepcopy(res)
        bad["notes"] = [n for n in bad["notes"] if not n.startswith("witness")]
        if len(bad["notes"]) != len(res["notes"]):
            yield "dropped witness", code, bad
        bad = copy.deepcopy(res)
        bad["notes"][1] = "convergence: infeasible"
        yield "verdict", code, bad
    elif kind == "lambda_infeasible":
        yield "verdict", code, dict(res, notes=["euler sum: 1", "convergence: feasible"])
    elif kind == "cdr_feasible":
        bad = copy.deepcopy(res)
        bad["notes"] = ["abutment: feasible", "degenerate solution matches: maybe"]
        yield "degenerate note", code, bad
    elif kind == "cdr_infeasible":
        yield "verdict", code, dict(res, notes=["abutment: feasible"])
    elif kind == "fan_validate":
        yield "wall count", code, dict(res, walls=res["walls"] + 1)
    elif kind == "fan_picard":
        yield "picard rank", code, dict(res, picard_rank=res["picard_rank"] + 1)
    elif kind == "fan_lyubeznik":
        yield "table entry", code, _bumped(res, "entries")


def test_oracles_can_fail(workdir: Path) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, SEED)
        picked: dict = {}
        # the probes first, so that each of their kinds is among the two tried
        for job in (workloads.probe_jobs() if workload == "engine" else []) + jobs:
            picked.setdefault(job["expect"]["kind"], []).append(job)
        for kind, group in sorted(picked.items()):
            for job in group[:2]:
                path = workdir / job["input"]
                path.write_text(json.dumps(job["doc"]), encoding="utf-8")
                argv = job["cmd"] + ["--input", str(path)] + job["extra"] + ["--format", "json"]
                code, out, _ = run_job(argv)
                reason = oracles.check_job(job, code, out)
                if reason:
                    problems.append(f"{job['id']}: correct output rejected: {reason}")
                    continue
                for label, bad_code, bad in corruptions(kind, code, json.loads(out)):
                    if oracles.check_job(job, bad_code, json.dumps(bad)) is None:
                        problems.append(f"{job['id']}: corrupted {label} accepted")
        if workload == "arrangements":
            problems += _pair_checks_can_fail(jobs, workdir)
    return problems


def _pair_checks_can_fail(jobs, workdir: Path) -> list[str]:
    """The betti/cdr agreement and the recorded answers catch what the
    per-job oracles cannot: a betti vector with two same-parity degrees
    swapped keeps its Euler characteristic."""
    problems = []
    for pair in sorted({j["expect"]["pair"] for j in jobs if "pair" in j["expect"]}):
        both = [j for j in jobs if j["expect"].get("pair") == pair]
        results = {}
        for job in both:
            path = workdir / job["input"]
            path.write_text(json.dumps(job["doc"]), encoding="utf-8")
            argv = job["cmd"] + ["--input", str(path), "--format", "json"]
            code, out, _ = run_job(argv)
            results[job["id"]] = (code, out)
        betti_id = both[0]["id"]
        res = json.loads(results[betti_id][1])
        b = res["betti"]
        k = next((k for k in range(1, len(b) - 2) if b[k] != b[k + 2]), None)
        if k is None:
            continue
        if oracles.check_pass(both, results):
            problems.append(f"{pair}: correct pair rejected")
        b[k], b[k + 2] = b[k + 2], b[k]
        swapped = dict(results, **{betti_id: (0, json.dumps(res))})
        if set(oracles.check_pass(both, swapped)) != {both[1]["id"]}:
            problems.append(f"{pair}: betti/cdr disagreement accepted")
        if not oracles.check_pass(both, results, {betti_id: "{}"}):
            problems.append(f"{pair}: recorded-answer mismatch accepted")
        return problems
    return ["no mixed pair with a swappable betti vector"]


def test_exact_counts(workdir: Path) -> list[str]:
    problems = []
    env = run.pinned_env()
    deadline = perf_counter() + 600
    for workload in workloads.WORKLOADS:
        work = workdir / workload
        run.run_worker(["setup", "--workload", workload, "--seed", SEED, "--work", work],
                       env, deadline)
        seen = []
        for i in range(2):
            report = workdir / f"{workload}-{i}.json"
            run.run_worker(["pass", "--work", work, "--report", report,
                            "--trace", workdir / f"{workload}-{i}.csv"], env, deadline)
            data = json.loads(report.read_text(encoding="utf-8"))
            trace = layer_metrics([data["trace"]], [job_scales(data["reference_ms"])])
            seen.append({k: trace[k] for k in EXACT_COUNTS})
        if seen[0] != seen[1]:
            diff = {k: (seen[0][k], seen[1][k]) for k in EXACT_COUNTS if seen[0][k] != seen[1][k]}
            problems.append(f"{workload}: counts differ between two runs: {diff}")
        print(f"{workload}: " + ", ".join(f"{k}={v}" for k, v in seen[0].items() if v))
    return problems


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        problems = test_oracles_can_fail(Path(tmp))
        print(f"oracles: {'ok' if not problems else 'FAILED'}")
        problems += test_exact_counts(Path(tmp))
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
