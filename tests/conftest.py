"""Shared builders for the test suite."""

import importlib.util
import random
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from invar import AffineSubspace, BettiVector, Fan3, InputError, SimplicialComplex
from invar.posets import _boundary_column
from invar.qlinalg import _extend_sparse_echelon


def primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def reduced_euler(k: SimplicialComplex) -> int:
    """The reduced Euler characteristic of a complex summed over its faces,
    the empty face in degree -1 (a void complex counts it too)."""
    return sum((-1) ** size * len(level) for size, level in enumerate(k.faces[1:])) - 1


def p3_fan() -> Fan3:
    return Fan3(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )


def cube_fan() -> Fan3:
    rays = [s for s in product((-1, 1), repeat=3)]
    idx = {r: i for i, r in enumerate(rays)}
    cones = []
    for axis in range(3):
        for val in (-1, 1):
            cones.append([idx[r] for r in rays if r[axis] == val])
    return Fan3(rays, cones)


def nonprojective_fan() -> Fan3:
    """Fulton's complete fan that is not projective (W. Fulton, Introduction
    to Toric Varieties): the cube's face fan with the ray (1, 1, 1) replaced
    by (1, 2, 3).  Its only support functions are the linear ones, so its
    Picard rank is 0."""
    fan = cube_fan()
    return Fan3([(1, 2, 3) if r == (1, 1, 1) else r for r in fan.rays], fan.max_cones)


def octant_fan() -> Fan3:
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [
        [0 if sx > 0 else 1, 2 if sy > 0 else 3, 4 if sz > 0 else 5]
        for sx, sy, sz in product((1, -1), repeat=3)
    ]
    return Fan3(rays, cones)


def prism_fan(twisted: bool) -> Fan3:
    """Face fan of a triangular prism, rays A1 A2 A3 (z = -1) and B1 B2 B3
    (z = 1), with each side quadrilateral split by a diagonal: cyclically
    A1B2, A2B3, A3B1 when twisted, which admits no strictly convex support
    function, and A1B2, A2B3, A1B3 otherwise.  Both have Picard rank 3."""
    a = [(1, 0, -1), (0, 1, -1), (-1, -1, -1)]
    b = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]
    cones = [(0, 1, 2), (3, 4, 5)]
    for i in range(3):
        j = (i + 1) % 3
        if twisted or i < 2:  # diagonal A_i B_j
            cones += [(i, j, 3 + j), (i, 3 + j, 3 + i)]
        else:  # diagonal A_j B_i
            cones += [(i, j, 3 + i), (j, 3 + j, 3 + i)]
    return Fan3(a + b, cones)


def subdivided_cube(k: int) -> Fan3:
    """Face fan over the unit squares of the boundary of [-k, k]^3: Picard
    rank 6k - 2, projective."""
    points = [p for p in product(range(-k, k + 1), repeat=3) if max(map(abs, p)) == k]
    index = {p: i for i, p in enumerate(points)}
    cones = []
    for axis in range(3):
        u, v = [a for a in range(3) if a != axis]
        for side in (-k, k):
            for i, j in product(range(-k, k), repeat=2):
                cone = []
                for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    p = [0, 0, 0]
                    p[axis], p[u], p[v] = side, i + di, j + dj
                    cone.append(index[tuple(p)])
                cones.append(cone)
    return Fan3([primitive(p) for p in points], cones)


def double_cover_fan() -> Fan3:
    """Five rays on the equator, visited twice around (each step turns by
    about 144 degrees), coned to both poles.  Every wall lies in two cones on
    opposite sides of its plane, yet every direction lies in two cones."""
    equator = [(1, 0, 0), (1, 3, 0), (-4, 3, 0), (-4, -3, 0), (1, -3, 0)]
    cones = [(i, (i + 2) % 5, pole) for i in range(5) for pole in (5, 6)]
    return Fan3(equator + [(0, 0, 1), (0, 0, -1)], cones)


def bench_workloads():
    """`bench/workloads.py`, which builds the benchmark's inputs without
    invar, loaded from its file rather than imported as a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def cone(k: SimplicialComplex, apex) -> SimplicialComplex:
    """Cone over a complex: a new apex joined to every simplex."""
    if apex in k.vertices:
        raise InputError("apex must be a fresh vertex")
    # the downward closure brings back every simplex of k
    coned = [tuple(s) + (apex,) for s in k.simplices] or [(apex,)]
    return SimplicialComplex(k.vertices + (apex,), coned)


def reference_order_complex(poset, lower, upper) -> SimplicialComplex:
    """The former recursive chain walk of `order_complex`, as an oracle: each
    chain is extended upward from its minimum, one element at a time."""
    interval = poset.open_interval(lower, upper)
    above = {x: [y for y in interval if (x, y) in poset.less] for x in interval}
    chains = []

    def extend(chain, last):
        chains.append(chain)
        for y in above[last]:
            extend(chain + (y,), y)

    for x in interval:
        extend((x,), x)
    return SimplicialComplex(interval, chains)


def reference_topdown_betti(k: SimplicialComplex) -> BettiVector:
    """The former `reduced_betti` body, as an oracle: sparse boundary
    columns go into one echelon basis per degree, from the top down, with
    clearing; the column of a simplex at a pivot of the boundary basis of
    the degree above is skipped."""
    d = k.dim()
    if d < 0:
        return BettiVector([1])  # no vertices: only H~_{-1} survives
    faces = k.faces
    # ranks[i]: rank of the boundary of the i-vertex simplices; 1 for vertices
    ranks = [0, 1] + [0] * (d + 1)
    basis = {}
    for size in range(d + 1, 1, -1):
        cleared, basis = basis, {}
        low_index = {s: i for i, s in enumerate(faces[size - 1])}
        for j, simplex in enumerate(faces[size]):
            if j not in cleared:
                _extend_sparse_echelon(basis, _boundary_column(simplex, low_index))
        ranks[size] = len(basis)
    return BettiVector(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(d + 2))


def coordinate_hyperplane(n: int, axis: int) -> AffineSubspace:
    row = [1 if j == axis else 0 for j in range(n)] + [0]
    return AffineSubspace.from_rows(n, [row])


def random_hyperplane(rng: random.Random, n: int, central: bool = True) -> AffineSubspace:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        if any(coeffs):
            break
    const = 0 if central else rng.randint(-2, 2)
    return AffineSubspace.from_rows(n, [coeffs + [const]])


def random_subspace(rng: random.Random, n: int, central: bool = True) -> AffineSubspace:
    """A random proper affine subspace with independent equation rows."""
    codim = rng.randint(1, n)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(codim)]
        from invar import QMatrix

        if QMatrix(rows).rank() == codim:
            break
    if central:
        full = [row + [0] for row in rows]
    else:
        point = [rng.randint(-2, 2) for _ in range(n)]
        full = [row + [-sum(a * b for a, b in zip(row, point))] for row in rows]
    return AffineSubspace.from_rows(n, full)


@pytest.fixture
def rng():
    return random.Random(20240811)
