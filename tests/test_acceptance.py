"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact integer equality.  Randomized criteria use fixed
seeds so the suite is reproducible run to run.
"""

import random
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb

from invar import (
    AffineSubspace,
    InputWarning,
    InvariantTable,
    QMatrix,
    SimplicialComplex,
    build_lattice,
    canonical_small_tables,
    cdr_table,
    check_cdr,
    check_convergence_lambda,
    complement_betti,
    deduce_lambda,
    euler_sum,
    lyubeznik_dim2,
    moebius_betti_oracle,
    picard_rank,
    reduced_betti,
    toric_lyubeznik,
    validate_lambda,
)
from conftest import (
    cone,
    coordinate_hyperplane,
    cube_fan,
    octant_fan,
    p3_fan,
    random_hyperplane,
    random_subspace,
    reduced_euler,
)
from test_qlinalg import transposed


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def table_entries(table: InvariantTable):
    return [list(row) for row in table.entries]


# --- independent helpers used as oracles ----------------------------------


def independent_rref(rows):
    """Reference row reduction over Q, written apart from the library."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return m
    lead = 0
    for col in range(len(m[0])):
        pivot = None
        for i in range(lead, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        m[lead] = [x / m[lead][col] for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[lead])]
        lead += 1
        if lead == len(m):
            break
    return m


def independent_contained(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """Inclusion test via a from-scratch reduction: outer's equations must be
    combinations of inner's."""
    base = [list(row) for row in inner.rows]
    base_rank = sum(1 for row in independent_rref(base) if any(row))
    stacked = base + [list(row) for row in outer.rows]
    stacked_rank = sum(1 for row in independent_rref(stacked) if any(row))
    return stacked_rank == base_rank


def betti_euler(betti) -> int:
    """The alternating sum of reduced Betti numbers, from degree -1."""
    return sum((-1) ** (i - 1) * v for i, v in enumerate(betti.values))


def gf_rank(rows, p):
    work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
    return r


def torus_reduced_betti(k, n):
    """Kuenneth oracle for the complement of k coordinate hyperplanes in C^n."""
    betti = [0] * (2 * n)
    for j in range(k + 1):
        betti[j] += comb(k, j)
    betti[0] -= 1
    return betti


# --- deterministic randomized corpora --------------------------------------


@lru_cache(maxsize=None)
def central_hyperplane_corpus():
    """24 central hyperplane arrangements in C^3 and C^4, <= 6 hyperplanes."""
    rng = random.Random(1301)
    out = []
    for n in (3, 4):
        for _ in range(12):
            comps = [random_hyperplane(rng, n) for _ in range(rng.randint(1, 6))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputWarning)
                lattice = build_lattice(comps)
            out.append((n, comps, lattice, cdr_table(lattice)))
    return out


@lru_cache(maxsize=None)
def mixed_arrangement_corpus():
    """110 arrangements, central and non-central, <= 5 components, n <= 5."""
    rng = random.Random(88211)
    out = []
    for i in range(110):
        n = rng.randint(2, 5)
        central = i % 2 == 0
        comps = [random_subspace(rng, n, central) for _ in range(rng.randint(1, 5))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InputWarning)
            lattice = build_lattice(comps)
        out.append((n, comps, lattice, cdr_table(lattice)))
    return out


def random_complex(rng):
    nverts = rng.randint(0, 7)
    verts = list(range(nverts))
    faces = []
    for _ in range(rng.randint(0, 6)):
        if nverts:
            faces.append(rng.sample(verts, rng.randint(1, min(4, nverts))))
    return SimplicialComplex(verts, faces)


# --- the criteria -----------------------------------------------------------


def test_criterion_1_toric_tables():
    ok = True
    cube = cube_fan()
    ok &= picard_rank(cube) == 1
    cube_expected = [[0] * 5 for _ in range(5)]
    cube_expected[4][4] = 1
    ok &= table_entries(toric_lyubeznik(cube)) == cube_expected

    octants = octant_fan()
    ok &= picard_rank(octants) == 3
    oct_expected = [[0] * 5 for _ in range(5)]
    oct_expected[0][3] = 2
    oct_expected[2][4] = 2
    oct_expected[4][4] = 1
    ok &= table_entries(toric_lyubeznik(octants)) == oct_expected

    p3 = p3_fan()
    ok &= picard_rank(p3) == 1
    ok &= table_entries(toric_lyubeznik(p3)) == cube_expected
    report(1, "toric 3-fold tables", ok)


def test_criterion_2_arrangement_collapse_and_abutment():
    ok = True
    boolean3 = [coordinate_hyperplane(3, i) for i in range(3)]
    t3 = cdr_table(build_lattice(boolean3))
    ok &= table_entries(t3) == [[0, 0, 1], [0, 0, 3], [0, 0, 3]]
    ok &= complement_betti(t3, 3) == torus_reduced_betti(3, 3)
    ok &= complement_betti(t3, 3)[1:4] == [3, 3, 1]

    lines = [
        AffineSubspace.from_rows(2, [[1, 0, 0]]),
        AffineSubspace.from_rows(2, [[0, 1, 0]]),
    ]
    t2 = cdr_table(build_lattice(lines))
    ok &= table_entries(t2) == [[0, 1], [0, 2]]
    ok &= complement_betti(t2, 2) == torus_reduced_betti(2, 2)
    ok &= complement_betti(t2, 2)[1:3] == [2, 1]
    report(2, "arrangement collapse and abutment", ok)


def test_criterion_3_oracle_equivalence():
    corpus = central_hyperplane_corpus()
    ok = len(corpus) >= 20
    for n, _comps, lattice, table in corpus:
        reduced = complement_betti(table, n)
        ok &= reduced[0] == 0
        unreduced = [1] + reduced[1:]
        oracle = moebius_betti_oracle(lattice)
        size = max(len(unreduced), len(oracle))
        ok &= unreduced + [0] * (size - len(unreduced)) == oracle + [0] * (size - len(oracle))
        if not ok:
            break
    report(3, "Moebius oracle equivalence on random central arrangements", ok)


def test_criterion_4_triangularity_fuzz():
    corpus = mixed_arrangement_corpus()
    ok = len(corpus) >= 100
    for _n, comps, _lattice, table in corpus:
        for p, q in table.cells():
            if p > q:
                ok &= table.entry(p, q) == 0
        # maximal input components counted with an independent inclusion test
        unique = []
        for c in comps:
            if not any(independent_contained(c, u) and independent_contained(u, c) for u in unique):
                unique.append(c)
        maxima = [
            c
            for c in unique
            if not any(c is not u and independent_contained(c, u) for u in unique)
        ]
        for p in range(table.d + 1):
            ok &= table.entry(p, p) == sum(1 for c in maxima if c.dim == p)
        if not ok:
            break
    report(4, "triangularity and diagonal counts", ok)


def test_criterion_5_small_table_formulas():
    ok = True
    emitted = []

    t0 = canonical_small_tables(0)
    ok &= table_entries(t0) == [[1]]
    emitted.append(t0)

    t1 = canonical_small_tables(1)
    ok &= table_entries(t1) == [[0, 0], [0, 1]]
    emitted.append(t1)

    for a in range(1, 6):
        t2 = canonical_small_tables(2, a)
        expected = [[0, a - 1, 0], [0, 0, 0], [0, 0, a]]
        ok &= table_entries(t2) == expected
        emitted.append(t2)

    p1 = AffineSubspace.from_rows(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    p2 = AffineSubspace.from_rows(4, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    two_planes = lyubeznik_dim2([p1, p2])
    ok &= table_entries(two_planes) == [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    emitted.append(two_planes)

    for fan in (cube_fan(), octant_fan(), p3_fan()):
        emitted.append(toric_lyubeznik(fan))

    for table in emitted:
        ok &= euler_sum(table) == 1
        ok &= validate_lambda(table) == []
        feasible, _ = check_convergence_lambda(table)
        ok &= feasible
    report(5, "small-table formulas and Euler constraint", ok)


def test_criterion_6_forcing_engine():
    ok = True
    unknown = None

    dim3 = InvariantTable(
        "lyubeznik",
        [
            [0, 0, unknown, 0],
            [0, 0, unknown, 0],
            [0, 0, 0, unknown],
            [0, 0, 0, unknown],
        ],
    )
    res3 = deduce_lambda(dim3, 5)
    ok &= not res3.contradiction
    ok &= res3.implies({(2, 3): 1, (0, 2): -1})
    ok &= res3.implies({(3, 3): 1, (1, 2): -1}, -1)

    dim4 = InvariantTable(
        "lyubeznik",
        [
            [0, 0, unknown, unknown, unknown, 0],
            [0, 0, 0, 0, unknown, 0],
            [0, 0, 0, 0, 0, unknown],
            [0, 0, 0, 0, 0, unknown],
            [0, 0, 0, 0, 0, unknown],
            [0, 0, 0, 0, 0, unknown],
        ],
    )
    res4 = deduce_lambda(dim4, 3)
    ok &= not res4.contradiction
    ok &= res4.implies({(0, 4): 1, (2, 5): -1})
    ok &= res4.implies({(1, 4): 1, (3, 5): -1, (0, 3): 1})
    ok &= res3.nodes + res4.nodes < 10**7
    report(6, "forcing engine reproduces the proof identities", ok)


def test_criterion_7_degeneration_check():
    ok = True
    seen = 0
    corpora = [central_hyperplane_corpus(), mixed_arrangement_corpus()]
    boolean3 = [coordinate_hyperplane(3, i) for i in range(3)]
    lines = [
        AffineSubspace.from_rows(2, [[1, 0, 0]]),
        AffineSubspace.from_rows(2, [[0, 1, 0]]),
    ]
    extra = []
    for comps in (boolean3, lines):
        lattice = build_lattice(comps)
        extra.append((lattice.ambient_dim, comps, lattice, cdr_table(lattice)))
    for corpus in corpora + [extra]:
        for n, _comps, _lattice, table in corpus:
            if table.d > 3:
                continue
            seen += 1
            ok &= check_cdr(table, complement_betti(table, n), n) == (True, ())
            if not ok:
                break
    ok &= seen > 0
    report(7, "degenerate solution accepted for dim <= 3 tables", ok)


def test_criterion_8_numerical_core():
    ok = True
    rng = random.Random(4218)
    primes = (2**61 - 1, 2**89 - 1)
    for _ in range(100):
        rows = [
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        ]
        ncols = len(rows[0])
        for _ in range(rng.randint(0, 6)):
            rows.append([rng.randint(-9, 9) for _ in range(ncols)])
        m = QMatrix(rows)
        once = m.rref()
        ok &= once.rref() == once
        ok &= m.rank() == transposed(m).rank()
        for p in primes:
            ok &= gf_rank(rows, p) == m.rank()
        if not ok:
            break

    crng = random.Random(515)
    for _ in range(50):
        k = random_complex(crng)
        betti = reduced_betti(k)
        ok &= betti_euler(betti) == reduced_euler(k)
        coned = cone(k, "apex")
        cb = reduced_betti(coned)
        ok &= all(cb[deg] == 0 for deg in range(-1, cb.max_degree() + 1))
        if not ok:
            break
    report(8, "numerical core properties", ok)
