"""Intersection lattices against point counts over finite fields.

Take an arrangement over the integers and a prime p for which reduction mod p
keeps every rank of the stacked equation rows.  Then the points of F_p^n
outside the union number sum over the flats F of mu(F, ambient) p^(dim F)
(C. A. Athanasiadis, "Characteristic polynomials of subspace arrangements
and finite fields", Adv. Math. 122, 1996; A. Bjorner and T. Ekedahl,
"Subspace arrangements over finite fields", Adv. Math. 129, 1997).  The
ranks depend on minors of at most n + 1 rows, and with entries in {-1, 0, 1}
those are at most 4 in absolute value for n = 2 and at most 16 for n = 3
(the largest determinants of such 3x3 and 4x4 matrices), so every prime
from 5 on qualifies in C^2, and every prime from 17 on in C^3.  The count
runs on the input rows by brute force, with no call into the package's
linear algebra.

For a hyperplane arrangement, central or affine, that sum is the
characteristic polynomial chi(q) at q = p, of degree n, so the counts at
n + 1 such primes give chi.  By the Orlik-Solomon theorem (P. Orlik and
H. Terao, "Arrangements of Hyperplanes", 1992) the complement's Betti
numbers are then b_k = (-1)^k [q^(n-k)] chi(q), which checks the table's
cells and not only the lattice.
"""

import random
import warnings
from fractions import Fraction
from itertools import product

from invar import AffineSubspace, InputError, InputWarning, build_lattice, cdr_table
from invar import complement_betti
from invar.arrangements import _moebius


def random_rows(rng, n, count):
    """The equation rows of `count` random nonempty proper affine subspaces
    of C^n, entries in {-1, 0, 1}, of every codimension."""
    arrangement = []
    while len(arrangement) < count:
        rows = [[rng.randint(-1, 1) for _ in range(n + 1)] for _ in range(rng.randint(1, n))]
        try:
            subspace = AffineSubspace.from_rows(n, rows)
        except InputError:  # inconsistent: no point at all
            continue
        if subspace.dim < n:
            arrangement.append(rows)
    return arrangement


def points_outside(arrangement, n, p):
    """The points of F_p^n on no component, counted one by one."""
    return sum(
        not any(
            all((sum(a * x for a, x in zip(row, point)) + row[-1]) % p == 0 for row in rows)
            for rows in arrangement
        )
        for point in product(range(p), repeat=n)
    )


def characteristic_value(arrangement, n, p):
    """sum over the flats of mu(F, ambient) p^(dim F), from the lattice."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InputWarning)
        lattice = build_lattice([AffineSubspace.from_rows(n, rows) for rows in arrangement])
    mu = _moebius(lattice)
    return sum(mu[f.id] * p ** f.dim for f in lattice.flats), lattice


def check_corpus(seed, n, p, cases):
    """Compare both counts on seeded random arrangements; returns how many
    lattices had an affine flat, and how many a flat of dimension < n - 1
    that is not a point."""
    rng = random.Random(seed)
    affine = deep = 0
    for _ in range(cases):
        arrangement = random_rows(rng, n, rng.randint(1, 6))
        expected, lattice = characteristic_value(arrangement, n, p)
        assert points_outside(arrangement, n, p) == expected, arrangement
        affine += not all(f.subspace.is_linear() for f in lattice.flats)
        deep += any(0 < f.dim < n - 1 for f in lattice.flats)
    return affine, deep


def test_plane_arrangements_mod_5():
    affine, _ = check_corpus(505, 2, 5, 200)
    assert affine >= 150


def test_space_arrangements_mod_17():
    affine, deep = check_corpus(1717, 3, 17, 5)
    assert affine >= 4 and deep >= 2


def test_boolean_and_braid_closed_forms():
    # the characteristic polynomials (q - 1)^n and q (q - 1) (q - 2) at q = p
    boolean = [[[1 if j == i else 0 for j in range(4)]] for i in range(3)]
    assert characteristic_value(boolean, 3, 7)[0] == points_outside(boolean, 3, 7) == 6**3
    braid = [[[1, -1, 0, 0]], [[1, 0, -1, 0]], [[0, 1, -1, 0]]]
    assert characteristic_value(braid, 3, 7)[0] == points_outside(braid, 3, 7) == 7 * 6 * 5


def random_hyperplanes(rng, n, central):
    """The one-row systems of 1 to 6 random hyperplanes of C^n, entries in
    {-1, 0, 1}, through the origin when `central`."""
    arrangement = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [0] * n
        while not any(coeffs):
            coeffs = [rng.randint(-1, 1) for _ in range(n)]
        arrangement.append([coeffs + [0 if central else rng.randint(-1, 1)]])
    return arrangement


def interpolate(points):
    """The coefficients, constant first, of the polynomial of degree
    len(points) - 1 through the (x, y) points (Lagrange)."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return coeffs


def check_betti(seed, n, primes, cases):
    """Compare the table's complement Betti numbers with those of the
    interpolated chi on seeded random hyperplane arrangements, central and
    affine in turn; returns how many lattices had an affine flat."""
    rng = random.Random(seed)
    affine = 0
    for case in range(cases):
        arrangement = random_hyperplanes(rng, n, central=case % 2 == 0)
        chi = interpolate([(p, points_outside(arrangement, n, p)) for p in primes])
        assert all(c.denominator == 1 for c in chi), (arrangement, chi)
        expected = [(-1) ** k * int(chi[n - k]) for k in range(n + 1)] + [0] * (n - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InputWarning)
            lattice = build_lattice([AffineSubspace.from_rows(n, rows) for rows in arrangement])
        reduced = complement_betti(cdr_table(lattice), n)
        assert [1 + reduced[0]] + reduced[1:] == expected, arrangement
        affine += not all(f.subspace.is_linear() for f in lattice.flats)
    return affine


def test_plane_hyperplane_betti_numbers():
    assert check_betti(2357, 2, (5, 7, 11), 200) >= 50


def test_space_hyperplane_betti_numbers():
    assert check_betti(1719, 3, (17, 19, 23, 29), 3) >= 1
