"""Time the arrangement pipeline on boolean, braid, k-equal and pencil
arrangements.

    PYTHONPATH=src python3 scripts/arrangement_scale.py

For each case (boolean n = 6, 7, braid n = 6, 7, 8, k-equal (n, k) =
(7, 3), (8, 4), (8, 3), (9, 4) and the pencil of k = 40 planes, plain and
lifted), builds
the intersection lattice and the Cech-de Rham table, checks the table or the
complement against an independent formula, and prints the wall time of both
steps.  It also counts the meets `build_lattice` makes, the calls of
`arrangements._meet`, and the cuts, the calls of `arrangements._cut`, by
wrapping those functions, and checks them against the exact counts recorded
here: one cut per component reduced against a popped flat, one meet per
distinct cut.  The components of each case have one dimension, so the
pruning reduces none of them and every cut is made by the lattice loop.  A
change in a count is a change in the lattice builder's work, even when the
lattice stays right.

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
characteristic as it is; the tests compare the ranks themselves.  A second
check compares the lattice with a closed form: its characteristic
polynomial, the sum of mu(F, ambient) q^(dim F) over all flats F, counts the
points of F_q^n off the arrangement for a prime power q (Athanasiadis), that
is the words of length n over q letters in which no letter appears k or
more times, chi(q) = n! [x^n] (sum_{i<k} x^i / i!)^q.  Both sides are
compared at q = 0, ..., n + 2, enough to fix a polynomial of degree n.
k-equal (8, 3) has 871 flats and 870 interval complexes (145,883 faces),
k-equal (9, 4) 824 flats: they are the cases where the faces'
representation and their ranking show.

The pencil is k planes of C^3 through the z-axis plus the plane z = 0.  Its
table has the closed form [[0, 0, k-1], [0, 0, 2k-1], [0, 0, k+1]], one row
per flat dimension: the origin; the z-axis and the k lines in z = 0; the
k + 1 planes.  Every component is a hyperplane, so every cell is a Moebius
number.  Lifted into the hyperplane w = 0 of C^4, every component gains the
equation w = 0 and has codimension 2.  The lattice and the table stay the
same, but every interval is now ranked through a complex, and the origin's
is its order complex of 5k + 3 faces, where the crosscut complex would have
2^k + k + 1.

Exits 1 if a table, a characteristic polynomial, a meet count or a cut
count is wrong.
"""

from __future__ import annotations

import sys
from itertools import combinations
from math import comb
from time import perf_counter

from invar import AffineSubspace, arrangements, build_lattice, cdr_table, complement_betti

# meets made by build_lattice, recorded from the grouped-cut builder
MEETS = {
    "boolean n=6": 57, "boolean n=7": 120,
    "braid n=6": 666, "braid n=7": 3836, "braid n=8": 22982,
    "k-equal (7,3)": 917, "k-equal (8,4)": 1314, "k-equal (8,3)": 5559, "k-equal (9,4)": 6582,
    "pencil k=40": 119, "pencil k=40 lifted": 119,
}
# components reduced against a flat by build_lattice, one fold each; the
# former remainders step made as many
CUTS = {
    "boolean n=6": 131, "boolean n=7": 350,
    "braid n=6": 1935, "braid n=7": 13083, "braid n=8": 88438,
    "k-equal (7,3)": 5754, "k-equal (8,4)": 10315, "k-equal (8,3)": 42868,
    "k-equal (9,4)": 90945,
    "pencil k=40": 1601, "pencil k=40 lifted": 1601,
}


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


def pencil(k: int, lifted: bool):
    n = 4 if lifted else 3
    w = [[0, 0, 0, 1, 0]] if lifted else []
    pad = [0] * (n - 3)
    planes = [[1, i, 0] + pad + [0] for i in range(k)] + [[0, 0, 1] + pad + [0]]
    return [AffineSubspace.from_rows(n, [row] + w) for row in planes]


def pencil_check(k: int):
    def check(lattice, table):
        expected = [[0, 0, k - 1], [0, 0, 2 * k - 1], [0, 0, k + 1]]
        return [list(r) for r in table.entries] == expected, f"table {expected}"
    return check


def poincare(roots: list[int]) -> list[int]:
    """Coefficients of the product of (1 + k t) over k in roots."""
    poly = [1]
    for k in roots:
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def poincare_check(roots: list[int]):
    def check(lattice, table):
        betti = complement_betti(table, lattice.ambient_dim)
        unreduced = [1 + betti[0]] + betti[1:]
        expected = poincare(roots)
        right = unreduced == expected + [0] * (len(unreduced) - len(expected))
        return right, f"Poincare polynomial {expected}"
    return check


def moebius(lattice) -> list[int]:
    """mu(F, ambient) for every flat F, indexed by id."""
    mu = [0] * len(lattice.flats)
    mu[lattice.top_id] = 1
    # flats above a flat have larger dimension, so larger ids: top down, each
    # mu(F, ambient) is minus the sum over the flats strictly above F
    for i in range(lattice.top_id - 1, -1, -1):
        mu[i] = -sum(m for j, m in enumerate(mu) if lattice.up[i] >> j & 1)
    return mu


def euler_check(lattice, table):
    """Sum of (-1)^k b_k against the sum of mu(F, ambient) over proper F."""
    betti = complement_betti(table, lattice.ambient_dim)
    mu = moebius(lattice)
    expected = sum(mu) - mu[lattice.top_id]
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    # the complement of subspaces of codimension >= 2 is connected
    return euler == expected and betti[0] == 0, f"reduced Euler characteristic {expected}"


def k_equal_words(n: int, k: int, q: int) -> int:
    """n! [x^n] (sum_{i<k} x^i / i!)^q: the words of length n over q letters
    with no letter k or more times, built one letter at a time (j copies of
    a new letter go into comb(m, j) of the positions of a word of length m)."""
    words = [1] + [0] * n  # words[m]: words of length m over the letters so far
    for _ in range(q):
        words = [sum(comb(m, j) * words[m - j] for j in range(min(k, m + 1)))
                 for m in range(n + 1)]
    return words[n]


def k_equal_chi_check(n: int, k: int):
    def check(lattice, table):
        mu = moebius(lattice)
        right = all(sum(mu[f.id] * q ** f.dim for f in lattice.flats) == k_equal_words(n, k, q)
                    for q in range(n + 3))
        return right, f"chi(q) = n! [x^n] (sum_(i<k) x^i/i!)^q at q = 0..{n + 2}"
    return check


def counted(name: str) -> list[int]:
    """Wrap arrangements.<name> so that each call adds 1 to the returned list."""
    calls = [0]
    function = getattr(arrangements, name)

    def wrapper(*args):
        calls[0] += 1
        return function(*args)

    setattr(arrangements, name, wrapper)
    return calls


def main() -> int:
    ok = True
    meets, cuts = counted("_meet"), counted("_cut")
    cases = [(f"boolean n={n}", boolean(n), [poincare_check([1] * n)]) for n in (6, 7)]
    cases += [(f"braid n={n}", braid(n), [poincare_check(list(range(1, n)))]) for n in (6, 7, 8)]
    cases += [(f"k-equal ({n},{k})", k_equal(n, k), [euler_check, k_equal_chi_check(n, k)])
              for n, k in ((7, 3), (8, 4), (8, 3), (9, 4))]
    cases += [(f"pencil k=40{' lifted' if lifted else ''}", pencil(40, lifted), [pencil_check(40)])
              for lifted in (False, True)]
    for name, comps, checks in cases:
        meets[0] = cuts[0] = 0
        start = perf_counter()
        lattice = build_lattice(comps)
        built = perf_counter()
        table = cdr_table(lattice)
        done = perf_counter()
        verdicts = [check(lattice, table) for check in checks]
        counts = [(meets[0], MEETS[name], "meets"), (cuts[0], CUTS[name], "cuts")]
        verdicts += [(got == want, f"{got} {what} (expected {want})") for got, want, what in counts]
        ok &= all(right for right, _ in verdicts)
        claims = ", ".join(f"{claim} {'ok' if right else 'WRONG'}" for right, claim in verdicts)
        print(f"{name}: {len(lattice.flats)} flats, build_lattice {built - start:.2f} s, "
              f"cdr_table {done - built:.2f} s, total {done - start:.2f} s, {claims}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
