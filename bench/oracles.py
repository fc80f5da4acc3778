"""Correctness oracles: one verdict per job, from its exit code and JSON output.

Wherever an independent reference exists it is used:

* boolean, braid and generic central hyperplane arrangements: Kuenneth
  binomials, prod(1 + k t) and the Whitney numbers of a generic arrangement;
* random mixed arrangements: the Euler characteristic of the complement by
  inclusion-exclusion over component subsets, the diagonal of the Cech-de
  Rham table from an independent count of maximal components, agreement of
  the `betti` and `cdr` jobs on two coordinate systems, and, for the default
  seed, the answers recorded in `recorded.json`;
* deductions: the identities of acceptance criterion 6 must lie in the span
  of the reported ones, plus the recorded feasible-completion counts;
  contradictions: a frozen-cell certificate computed from the input;
* Lyubeznik checks: the witness is replayed through `SpectralState.apply_page`
  down to a single diagonal 1; infeasible tables carry a certificate;
* Cech-de Rham checks: feasible by construction, infeasible by a degree
  whose antidiagonal holds fewer classes than the Betti number asks;
* fans: the Picard rank of the untransformed fan (it is invariant under the
  coordinate change), #rays - 3 for the class group, and the wall count.

`check_job` returns None for a correct job and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, product

from workloads import int_rank, antidiagonal_sums, frozen_certificate, lambda_certificate

CONTRADICTION_NOTE = "contradiction: no completion satisfies the constraints"
CDR_INFEASIBLE_NOTE = "abutment: infeasible against the given Betti numbers"


# ---------------------------------------------------------------------------
# independent references


def _consistent(rows) -> bool:
    """Whether coeffs . x + const = 0 has a solution for every row."""
    return int_rank([r[:-1] for r in rows]) == int_rank(rows)


def complement_reduced_euler(doc) -> int:
    """Sum of (-1)^k b~_k of the complement, by inclusion-exclusion.

    chi(C^n minus the union) = 1 - chi(union), and chi of a nonempty affine
    space is 1, so the reduced Euler characteristic is the sum of (-1)^|S|
    over the nonempty subsets S of components whose intersection is nonempty.
    """
    comps = [s["equations"] for s in doc["subspaces"]]
    total = 0
    for size in range(1, len(comps) + 1):
        for subset in combinations(comps, size):
            if _consistent([row for c in subset for row in c]):
                total += (-1) ** size
    return total


def maximal_component_dims(doc) -> list[int]:
    """Dimensions of the distinct components not contained in another one."""
    n = doc["ambient_dim"]
    comps = [s["equations"] for s in doc["subspaces"]]
    ranks = [int_rank(c) for c in comps]

    def contained(i, j):
        return int_rank(comps[i] + comps[j]) == ranks[i]

    distinct = []
    for i in range(len(comps)):
        if not any(contained(i, j) and contained(j, i) for j in distinct):
            distinct.append(i)
    return [
        n - ranks[i]
        for i in distinct
        if not any(j != i and contained(i, j) and not contained(j, i) for j in distinct)
    ]


_TERM = re.compile(r"^(?:(\d+)\*)?\((\d+),(\d+)\)$")


def parse_identity(text: str):
    """Parse a rendered relation such as '(0,3) = -(1,4) + (3,5)' into
    ({cell: coeff}, const) meaning sum(coeff * entry) + const = 0."""
    lhs, rhs = text.split(" = ")
    coeffs: dict = {}
    const = 0

    def add(term: str, sign: int):
        nonlocal const
        term = term.strip()
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        m = _TERM.match(term)
        if m:
            cell = (int(m.group(2)), int(m.group(3)))
            coeffs[cell] = coeffs.get(cell, 0) + sign * int(m.group(1) or 1)
        else:
            const += sign * int(term)

    add(lhs, 1)
    for term in rhs.replace(" - ", " + -").split(" + "):
        add(term, -1)
    return coeffs, const


def identities_implied(reported, wanted) -> bool:
    """Whether each wanted relation is a rational combination of the reported."""
    cells = sorted({c for rel, _ in reported + wanted for c in rel})

    def vec(rel):
        coeffs, const = rel
        return [coeffs.get(c, 0) for c in cells] + [const]

    base = [vec(r) for r in reported]
    rank = int_rank(base)
    return all(int_rank(base + [vec(w)]) == rank for w in wanted)


def replay_witness(entries, notes) -> str | None:
    """Replay 'witness:' notes page by page through SpectralState.apply_page."""
    from invar import InvariantTable, SpectralState
    from invar.tables import differential_target

    pattern = re.compile(
        r"witness: page (\d+) differential \((\d+),(\d+)\) -> \((\d+),(\d+)\) of rank (\d+)")
    by_page: dict = {}
    for note in notes:
        if not note.startswith("witness:"):
            continue
        m = pattern.fullmatch(note)
        if not m:
            return f"unreadable witness note {note!r}"
        page, sp, sq, tp, tq, rank = map(int, m.groups())
        if differential_target("lyubeznik", page, (sp, sq)) != (tp, tq):
            return f"witness arrow ({sp},{sq}) -> ({tp},{tq}) is not a page-{page} differential"
        by_page.setdefault(page, {})[(sp, sq)] = rank
    state = SpectralState.start(InvariantTable("lyubeznik", entries))
    d = len(entries) - 1
    for page in range(2, d + 2):
        state = state.apply_page(by_page.pop(page, {}))
    if by_page:
        return f"witness uses pages {sorted(by_page)} beyond the table"
    cells = [(p, q, v) for p, row in enumerate(state.entries) for q, v in enumerate(row) if v]
    if len(cells) != 1 or cells[0][0] != cells[0][1] or cells[0][2] != 1:
        return f"witness leaves {cells} on the limit page instead of one diagonal 1"
    return None


# ---------------------------------------------------------------------------
# per-job verdicts


def _expect_code(code, want):
    return None if code == want else f"exit code {code!r}, expected {want}"


def check_job(job, code, out: str) -> str | None:
    """Verdict on one job; the input document is job['doc']."""
    exp = job["expect"]
    kind = exp["kind"]
    doc = job["doc"]
    want_code = 3 if kind in ("contradiction", "lambda_infeasible", "cdr_infeasible") else 0
    bad = _expect_code(code, want_code)
    if bad:
        return bad
    try:
        res = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    notes = res.get("notes")

    if kind == "betti":
        if res.get("betti") != exp["betti"] or res.get("ambient_dim") != exp["ambient_dim"]:
            return f"betti {res.get('betti')} != closed form {exp['betti']}"
    elif kind == "cdr_table":
        if res.get("entries") != exp["entries"] or notes != exp["notes"]:
            return f"cdr table {res.get('entries')} != closed form {exp['entries']}"
    elif kind == "mixed_betti":
        betti = res.get("betti") or []
        euler = sum((-1) ** k * v for k, v in enumerate(betti))
        want = complement_reduced_euler(doc)
        if euler != want or betti[:1] != [0]:
            return f"betti {betti} has Euler characteristic {euler}, inclusion-exclusion gives {want}"
    elif kind == "mixed_cdr":
        entries = res.get("entries") or []
        dims = maximal_component_dims(doc)
        d = max(dims)
        if len(entries) != d + 1:
            return f"table dimension {len(entries) - 1}, expected {d}"
        if any(entries[p][q] for p, q in product(range(d + 1), repeat=2) if p > q):
            return "entries below the diagonal"
        diag = [entries[p][p] for p in range(d + 1)]
        want = [dims.count(p) for p in range(d + 1)]
        if diag != want:
            return f"diagonal {diag} != maximal components by dimension {want}"
        sums = antidiagonal_sums(entries, doc["ambient_dim"])
        euler = sum((-1) ** k * v for k, v in enumerate(sums))
        if euler != complement_reduced_euler(doc):
            return "antidiagonal sums contradict the inclusion-exclusion Euler characteristic"
    elif kind == "deduce":
        if not notes or notes[0] != f"feasible completions: {exp['feasible']}":
            return f"first note {notes[:1]} does not report {exp['feasible']} completions"
        reported = [parse_identity(n[len("identity: "):]) for n in notes
                    if n.startswith("identity: ")]
        wanted = [({tuple(c): a for c, a in coeffs}, const) for coeffs, const in exp["identities"]]
        if not identities_implied(reported, wanted):
            return "reported identities do not imply the criterion-6 identities"
        for n in notes:
            m = re.fullmatch(r"forced: \((\d+),(\d+)\) = (\d+)", n)
            if m and res["entries"][int(m.group(1))][int(m.group(2))] != int(m.group(3)):
                return f"forced cell {n!r} not filled in the output table"
    elif kind == "contradiction":
        if notes != [CONTRADICTION_NOTE]:
            return f"notes {notes} do not report the contradiction"
        if frozen_certificate(doc["entries"]) is None:
            return "input has no contradiction certificate"
    elif kind == "lambda_feasible":
        if notes[:2] != ["euler sum: 1", "convergence: feasible"]:
            return f"notes {notes[:2]} do not report a feasible table"
        return replay_witness(doc["entries"], notes)
    elif kind == "lambda_infeasible":
        if lambda_certificate(doc["entries"]) is None:
            return "input has no infeasibility certificate"
        if "convergence: infeasible" not in notes:
            return f"notes {notes} do not report infeasibility"
    elif kind == "cdr_feasible":
        n = doc["ambient_dim"]
        betti = doc["betti"] + [0] * (2 * n - len(doc["betti"]))
        degenerate = antidiagonal_sums(doc["entries"], n) == betti
        want = ["abutment: feasible"]
        if doc["dim"] <= 3:
            want.append(f"degenerate solution matches: {'yes' if degenerate else 'no'}")
        if notes != want:
            return f"notes {notes} != {want}"
    elif kind == "cdr_infeasible":
        sums = antidiagonal_sums(doc["entries"], doc["ambient_dim"])
        if all(s >= t for s, t in zip(sums, doc["betti"])):
            return "input has no infeasibility certificate"
        if notes != [CDR_INFEASIBLE_NOTE]:
            return f"notes {notes} do not report infeasibility"
    elif kind == "fan_validate":
        want = {"valid": True, "complete": True, "rays": exp["rays"],
                "max_cones": exp["max_cones"], "walls": exp["walls"], "notes": []}
        if res != want:
            return f"{res} != {want}"
    elif kind == "fan_picard":
        want = {"picard_rank": exp["picard"], "class_rank": exp["class_rank"],
                "projective": True, "notes": []}
        if res != want:
            return f"{res} != {want}"
    elif kind == "fan_lyubeznik":
        p = exp["picard"] - 1
        entries = [[0] * 5 for _ in range(5)]
        entries[0][3] = entries[2][4] = p
        entries[4][4] = 1
        if res.get("entries") != entries or notes != [f"picard_rank: {exp['picard']}"]:
            return f"table {res.get('entries')} != toric table for Picard rank {exp['picard']}"
    else:
        return f"unknown expectation kind {kind!r}"
    return None


def check_pass(jobs, results, recorded=None) -> dict:
    """Verdicts for a whole pass: {job id: reason} for every failed job.

    results maps job id to (exit code, stdout).  Besides the per-job oracles
    this checks that the betti and cdr jobs of one mixed arrangement agree,
    and compares with recorded answers when they are given.
    """
    failures = {}
    for job in jobs:
        code, out = results[job["id"]]
        reason = check_job(job, code, out)
        if reason is None and recorded is not None and job["id"] in recorded:
            if out.strip() != recorded[job["id"]]:
                reason = "output differs from the answer recorded for this seed"
        if reason:
            failures[job["id"]] = reason
    pairs: dict = {}
    for job in jobs:
        if job["expect"]["kind"] in ("mixed_betti", "mixed_cdr") and job["id"] not in failures:
            pairs.setdefault(job["expect"]["pair"], {})[job["expect"]["kind"]] = job
    for pair in pairs.values():
        if len(pair) != 2:
            continue
        betti = json.loads(results[pair["mixed_betti"]["id"]][1])["betti"]
        table = json.loads(results[pair["mixed_cdr"]["id"]][1])["entries"]
        n = pair["mixed_cdr"]["doc"]["ambient_dim"]
        if antidiagonal_sums(table, n) != betti:
            failures[pair["mixed_cdr"]["id"]] = "cdr antidiagonals disagree with the betti job"
    return failures
