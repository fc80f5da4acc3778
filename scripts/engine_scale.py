"""Time the spectral engine: deductions on the criterion-6 shapes, λ and CdR checks.

    PYTHONPATH=src python3 scripts/engine_scale.py

Runs `deduce_lambda` on the dim-3 shape (unknowns (0,2), (1,2), (2,3),
(3,3)) at bounds 5, 10, 20 and on the dim-4 shape (eight unknowns,
(1,3) = (2,4) = 0) at bounds 3 to 8 and 12.  For each case it prints the
wall time, the search nodes and the reported identities, and checks the
search nodes, the feasible completion count and the identities of
acceptance criterion 6: (2,3) = (0,2) and (3,3) = (1,2) + 1 in dim 3,
(0,4) = (2,5) and (1,4) = (3,5) - (0,3) in dim 4.  The counts at bounds 7
and 8 come from one run of the former enumeration, `reference_deduce` in
tests/test_tables.py; the count at bound 12 and every node count were
recorded from the flow search, which enters one node per feasible value of
each free unknown under a feasible prefix, and the root.
The dim-4 shape with (1,1) = (2,2) = 1 known must be a contradiction, decided
at the root: one node.

Then runs `check_convergence_lambda` on seeded complete Lyubeznik tables of
dimension 5, 6 and 7, built backwards from one diagonal unit: page by page,
from the last down to 2, every differential between cells on or above the
diagonal adds a random rank up to a given top to its source and its target.
Each of them converges, and its witness must replay through
`SpectralState.apply_page` to a limit page holding one diagonal 1 and
nothing else.  A perturbed case adds 1 to (0,0) and to the odd cell (0,d)
(d odd) or (1,d) (d even), which no differential touches; the alternating
sum stays 1, but that unit can never leave.  The top-column rule of a
Lyubeznik table forbids that cell, so the check must refuse the table, and
its circulation (`tables._lambda_witness`) must find no witness either.

Then runs `check_cdr` on seeded CdR tables of dimension 5, 6 and 7 with
entries up to 9 (or less) on and above the diagonal, in ambient dimension
d + 1.  The Betti numbers are the antidiagonal sums left by random ranks
replayed page by page, so those checks are feasible; a shifted case asks the
ranks to remove one more class from antidiagonals k and k + 1, and its
expected answer was computed by exhaustive search over the ranks.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from invar import (
    InputError,
    InvariantTable,
    SpectralState,
    check_cdr,
    check_convergence_lambda,
    deduce_lambda,
    differential_target,
)
from invar.tables import _lambda_witness

N = None

DIM3 = [
    [0, 0, N, 0],
    [0, 0, N, 0],
    [0, 0, 0, N],
    [0, 0, 0, N],
]
DIM4 = [
    [0, 0, N, N, N, 0],
    [0, 0, 0, 0, N, 0],
    [0, 0, 0, 0, 0, N],
    [0, 0, 0, 0, 0, N],
    [0, 0, 0, 0, 0, N],
    [0, 0, 0, 0, 0, N],
]
# (coefficients, constant) of sum(coeff * entry) + constant = 0
IDENTITIES = {
    "dim3": [({(2, 3): 1, (0, 2): -1}, 0), ({(3, 3): 1, (1, 2): -1}, -1)],
    "dim4": [({(0, 4): 1, (2, 5): -1}, 0), ({(1, 4): 1, (3, 5): -1, (0, 3): 1}, 0)],
}
DIM4_CONTRA = [list(row) for row in DIM4]
DIM4_CONTRA[1][1] = DIM4_CONTRA[2][2] = 1
# (name, shape, bound, feasible completions, search nodes)
CASES = [
    ("dim3", DIM3, 5, 30, 37), ("dim3", DIM3, 10, 110, 122),
    ("dim3", DIM3, 20, 420, 442),
    ("dim4", DIM4, 3, 160, 245), ("dim4", DIM4, 4, 375, 531),
    ("dim4", DIM4, 5, 756, 1015), ("dim4", DIM4, 6, 1372, 1772),
    ("dim4", DIM4, 7, 2304, 2889), ("dim4", DIM4, 8, 3645, 4465),
    ("dim4", DIM4, 12, 15379, 17759),
]
CONTRA_BOUND = 6
# (d, seed, largest rank, perturbed)
LAMBDA_CASES = [
    (5, 1, 3, False), (5, 2, 6, False), (6, 1, 3, False), (6, 2, 5, False),
    (7, 1, 2, False), (7, 2, 4, False), (7, 3, 3, True),
]
# (d, seed, largest entry, shifted antidiagonal k or None, feasible)
CDR_CASES = [
    (5, 1, 9, None, True), (5, 1, 9, 9, False), (5, 3, 9, 3, False),
    (6, 1, 9, None, True), (6, 1, 9, 5, False), (6, 2, 9, 3, False),
    (7, 1, 9, None, True), (7, 2, 9, None, True), (7, 2, 3, 7, False),
    (7, 3, 4, 7, False),
]


def lambda_case(d: int, seed: int, top: int, perturbed: bool) -> InvariantTable:
    rng = random.Random(seed)
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    s = rng.randint(0, d)
    rows[s][s] = 1
    for page in range(d, 1, -1):
        for p in range(d + 1):
            for q in range(p + 1, d + 1):  # the target stays on or above the diagonal
                tp, tq = differential_target("lyubeznik", page, (p, q))
                if tp <= d and tq <= d:
                    rank = rng.randint(0, top)
                    rows[p][q] += rank
                    rows[tp][tq] += rank
    if perturbed:
        rows[0][0] += 1
        rows[0 if d % 2 else 1][d] += 1
    return InvariantTable("lyubeznik", rows)


def replays_to_unit(table: InvariantTable, witness) -> bool:
    """Whether the witness ranks, page by page, leave one diagonal 1 and nothing else."""
    state = SpectralState.start(table)
    try:
        while state.page <= table.d:
            state = state.apply_page({src: rank for page, src, _, rank in witness
                                      if page == state.page})
    except InputError:
        return False
    cells = [(p, q, v) for p, row in enumerate(state.entries) for q, v in enumerate(row) if v]
    return len(cells) == 1 and cells[0][0] == cells[0][1] and cells[0][2] == 1


def cdr_case(d: int, seed: int, top: int, shift: int | None):
    rng = random.Random(seed)
    n = d + 1
    rows = [[rng.randint(0, top) if p <= q else 0 for q in range(d + 1)] for p in range(d + 1)]
    state = SpectralState.start(InvariantTable("cdr", rows))
    while state.page <= d:
        left = [list(r) for r in state.entries]
        ranks = {}
        for (sp, sq), (tp, tq) in state.differentials():
            ranks[sp, sq] = rank = rng.randint(0, min(left[sp][sq], left[tp][tq]))
            left[sp][sq] -= rank
            left[tp][tq] -= rank
        state = state.apply_page(ranks)
    betti = [0] * (2 * n)
    for p, row in enumerate(state.entries):
        for q, v in enumerate(row):
            betti[2 * n - p - q - 1] += v
    if shift is not None:
        betti[shift] -= 1
        betti[shift + 1] -= 1
    return InvariantTable("cdr", rows), betti, n


def main() -> int:
    ok = True
    for name, rows, bound, want, nodes in CASES:
        start = perf_counter()
        result = deduce_lambda(InvariantTable("lyubeznik", rows), bound)
        elapsed = perf_counter() - start
        right = result.feasible_count == want and result.nodes == nodes and all(
            result.implies(coeffs, const) for coeffs, const in IDENTITIES[name])
        ok &= right
        identities = "; ".join(r.render() for r in result.identities)
        print(f"{name} B={bound}: {elapsed:.2f} s, {result.nodes} nodes (expected {nodes}), "
              f"{result.feasible_count} feasible (expected {want}), "
              f"identities [{identities}] {'ok' if right else 'WRONG'}")
    start = perf_counter()
    result = deduce_lambda(InvariantTable("lyubeznik", DIM4_CONTRA), CONTRA_BOUND)
    elapsed = perf_counter() - start
    right = result.contradiction and result.nodes == 1
    ok &= right
    print(f"dim4 contradiction B={CONTRA_BOUND}: {elapsed * 1000:.2f} ms, {result.nodes} nodes, "
          f"contradiction {result.contradiction} (expected True after 1 node) "
          f"{'ok' if right else 'WRONG'}")
    for d, seed, top, perturbed in LAMBDA_CASES:
        table = lambda_case(d, seed, top, perturbed)
        start = perf_counter()
        try:
            feasible, witness = check_convergence_lambda(table)
            answer = f"feasible {feasible}"
        except InputError as exc:
            feasible, witness, answer = None, None, f"refused ({exc})"
        elapsed = perf_counter() - start
        if perturbed:
            right = feasible is None and _lambda_witness(table.entries) is None
            expected = "refused, no circulation"
        else:
            right = feasible is True and replays_to_unit(table, witness)
            expected = "feasible True"
        ok &= right
        print(f"lambda d={d} seed={seed} top={top} perturbed={perturbed}: "
              f"{elapsed * 1000:.2f} ms, largest entry {max(map(max, table.entries))}, "
              f"{answer} (expected {expected}) {'ok' if right else 'WRONG'}")
    for d, seed, top, shift, want in CDR_CASES:
        table, betti, n = cdr_case(d, seed, top, shift)
        start = perf_counter()
        feasible, _ = check_cdr(table, betti, n)
        elapsed = perf_counter() - start
        ok &= feasible == want
        print(f"cdr d={d} seed={seed} top={top} shift={shift}: {elapsed * 1000:.2f} ms, "
              f"feasible {feasible} (expected {want}) {'ok' if feasible == want else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
