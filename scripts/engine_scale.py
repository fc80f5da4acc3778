"""Time the spectral deduction engine on the criterion-6 shapes.

    PYTHONPATH=src python3 scripts/engine_scale.py

Runs `deduce_lambda` on the dim-3 shape (unknowns (0,2), (1,2), (2,3),
(3,3)) at bounds 5, 10, 20 and on the dim-4 shape (eight unknowns,
(1,3) = (2,4) = 0) at bounds 3 to 6.  For each case it prints the wall time,
the enumeration nodes and the reported identities, and checks the feasible
completion count and the identities of acceptance criterion 6:
(2,3) = (0,2) and (3,3) = (1,2) + 1 in dim 3, (0,4) = (2,5) and
(1,4) = (3,5) - (0,3) in dim 4.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import sys
from time import perf_counter

from invar import InvariantTable, deduce_lambda

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
CASES = [
    ("dim3", DIM3, 5, 30), ("dim3", DIM3, 10, 110), ("dim3", DIM3, 20, 420),
    ("dim4", DIM4, 3, 160), ("dim4", DIM4, 4, 375), ("dim4", DIM4, 5, 756),
    ("dim4", DIM4, 6, 1372),
]


def main() -> int:
    ok = True
    for name, rows, bound, want in CASES:
        start = perf_counter()
        result = deduce_lambda(InvariantTable("lyubeznik", rows), bound)
        elapsed = perf_counter() - start
        right = result.feasible_count == want and all(
            result.implies(coeffs, const) for coeffs, const in IDENTITIES[name])
        ok &= right
        identities = "; ".join(r.render() for r in result.identities)
        print(f"{name} B={bound}: {elapsed:.2f} s, {result.nodes} nodes, "
              f"{result.feasible_count} feasible (expected {want}), "
              f"identities [{identities}] {'ok' if right else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
