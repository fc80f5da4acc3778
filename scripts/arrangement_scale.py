"""Time the arrangement pipeline on boolean, braid and k-equal arrangements.

    PYTHONPATH=src python3 scripts/arrangement_scale.py

For each case (boolean n = 6, 7, braid n = 6, 7, 8 and k-equal (n, k) =
(7, 3), (8, 4)), builds the intersection lattice and the Cech-de Rham table,
checks the complement against an independent formula, and prints the wall
time of both steps.

Boolean and braid are hyperplane arrangements, so every cell comes from a
Moebius number and the time is the lattice's: braid n = 8 has 4,140 flats.
Their check is the complement's Poincare polynomial, (1+t)^n for the n
coordinate hyperplanes of C^n and (1+t)(1+2t)...(1+(n-1)t) for the braid
arrangement x_i = x_j of C^n.

The k-equal arrangement is all subspaces x_{i1} = ... = x_{ik} of C^n; for
k >= 3 none is a hyperplane, so every interval is ranked through its
complex.  Its check is the reduced Euler characteristic of the complement:
every flat is an affine space, of Euler characteristic 1, so
inclusion-exclusion over the lattice gives the sum of mu(F, ambient) over
the proper flats F, with mu computed here from the lattice's up-sets.  A
wrong rank moves homology between adjacent degrees and leaves the Euler
characteristic as it is; the tests compare the ranks themselves.

Exits 1 if a table is wrong.
"""

from __future__ import annotations

import sys
from itertools import combinations
from time import perf_counter

from invar import AffineSubspace, build_lattice, cdr_table, complement_betti


def hyperplane(n: int, coeffs: dict[int, int]) -> AffineSubspace:
    return AffineSubspace.from_rows(n, [[coeffs.get(j, 0) for j in range(n)] + [0]])


def boolean(n: int):
    return [hyperplane(n, {i: 1}) for i in range(n)]


def braid(n: int):
    return [hyperplane(n, {i: 1, j: -1}) for i in range(n) for j in range(i + 1, n)]


def k_equal(n: int, k: int):
    comps = []
    for first, *rest in combinations(range(n), k):
        rows = [[(j == first) - (j == other) for j in range(n)] + [0] for other in rest]
        comps.append(AffineSubspace.from_rows(n, rows))
    return comps


def poincare(roots: list[int]) -> list[int]:
    """Coefficients of the product of (1 + k t) over k in roots."""
    poly = [1]
    for k in roots:
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def poincare_check(roots: list[int]):
    def check(lattice, betti):
        unreduced = [1 + betti[0]] + betti[1:]
        expected = poincare(roots)
        right = unreduced == expected + [0] * (len(unreduced) - len(expected))
        return right, f"Poincare polynomial {expected}"
    return check


def euler_check(lattice, betti):
    """Sum of (-1)^k b_k against the sum of mu(F, ambient) over proper F."""
    mu = [0] * len(lattice.flats)
    mu[lattice.top_id] = 1
    # flats above a flat have larger dimension, so larger ids: top down, each
    # mu(F, ambient) is minus the sum over the flats strictly above F
    for i in range(lattice.top_id - 1, -1, -1):
        mu[i] = -sum(m for j, m in enumerate(mu) if lattice.up[i] >> j & 1)
    expected = sum(mu) - mu[lattice.top_id]
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    # the complement of subspaces of codimension >= 2 is connected
    return euler == expected and betti[0] == 0, f"reduced Euler characteristic {expected}"


def main() -> int:
    ok = True
    cases = [(f"boolean n={n}", n, boolean(n), poincare_check([1] * n)) for n in (6, 7)]
    cases += [(f"braid n={n}", n, braid(n), poincare_check(list(range(1, n)))) for n in (6, 7, 8)]
    cases += [(f"k-equal ({n},{k})", n, k_equal(n, k), euler_check) for n, k in ((7, 3), (8, 4))]
    for name, n, comps, check in cases:
        start = perf_counter()
        lattice = build_lattice(comps)
        built = perf_counter()
        table = cdr_table(lattice)
        done = perf_counter()
        right, claim = check(lattice, complement_betti(table, n))
        ok &= right
        print(f"{name}: {len(lattice.flats)} flats, build_lattice {built - start:.2f} s, "
              f"cdr_table {done - built:.2f} s, total {done - start:.2f} s, "
              f"{claim} {'ok' if right else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
