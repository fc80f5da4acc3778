"""Time the arrangement pipeline on the boolean and braid arrangements.

    PYTHONPATH=src python3 scripts/arrangement_scale.py

For each case (boolean n = 6, 7 and braid n = 6, 7, 8), builds the
intersection lattice and the Cech-de Rham table, checks the complement's
Poincare polynomial against its closed form, and prints the wall time of
both steps.  The closed forms are (1+t)^n for the n coordinate hyperplanes
of C^n and (1+t)(1+2t)...(1+(n-1)t) for the braid arrangement x_i = x_j of
C^n.  Both are hyperplane arrangements, so every cell comes from a Moebius
number and the time is the lattice's: braid n = 8 has 4,140 flats.  Exits 1
if a table is wrong.
"""

from __future__ import annotations

import sys
from time import perf_counter

from invar import AffineSubspace, build_lattice, cdr_table, complement_betti


def hyperplane(n: int, coeffs: dict[int, int]) -> AffineSubspace:
    return AffineSubspace.from_rows(n, [[coeffs.get(j, 0) for j in range(n)] + [0]])


def boolean(n: int):
    comps = [hyperplane(n, {i: 1}) for i in range(n)]
    return comps, [1] * n


def braid(n: int):
    comps = [hyperplane(n, {i: 1, j: -1}) for i in range(n) for j in range(i + 1, n)]
    return comps, list(range(1, n))


def poincare(roots: list[int]) -> list[int]:
    """Coefficients of the product of (1 + k t) over k in roots."""
    poly = [1]
    for k in roots:
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def main() -> int:
    ok = True
    cases = [("boolean", boolean, 6), ("boolean", boolean, 7)]
    cases += [("braid", braid, n) for n in (6, 7, 8)]
    for name, build, n in cases:
        comps, roots = build(n)
        start = perf_counter()
        lattice = build_lattice(comps)
        built = perf_counter()
        table = cdr_table(lattice)
        done = perf_counter()
        betti = complement_betti(table, n)
        unreduced = [1 + betti[0]] + betti[1:]
        expected = poincare(roots)
        right = unreduced == expected + [0] * (len(unreduced) - len(expected))
        ok &= right
        print(f"{name} n={n}: {len(lattice.flats)} flats, build_lattice {built - start:.2f} s, "
              f"cdr_table {done - built:.2f} s, total {done - start:.2f} s, "
              f"Poincare polynomial {expected} {'ok' if right else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
