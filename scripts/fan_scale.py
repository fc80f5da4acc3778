"""Time the fan code on subdivided cubes, star subdivisions, triangular
prisms, a fan of Picard rank 0 and a double cover.

    PYTHONPATH=src python3 scripts/fan_scale.py

For each fan, prints the wall time of `validate_fan`, of `picard_data`
(which validates once more, then computes the Picard rank and decides
projectivity) and of `picard_data` after a signed permutation of the
coordinates followed by a shear, and checks, before and after that move:

* the Picard rank: 6k - 2 for the face fan over the unit squares of the
  boundary of [-k, k]^3 (k = 1, 2, 3, 4), #rays - 3 for the octant fan
  after 50 and 100 seeded stellar subdivisions (complete and simplicial),
  3 for both prisms, 0 for Fulton's fan;
* projectivity: every subdivided cube and every star subdivision is
  projective; the prism whose side quadrilaterals are split cyclically
  (A1B2, A2B3, A3B1) is not, the one split along A1B2, A2B3, A1B3 is, and
  Fulton's fan (the cube's face fan with the ray (1, 1, 1) moved to
  (1, 2, 3)) is not, since all its support functions are linear.  The
  sheared k = 3 and k = 4 cubes and the star subdivisions give the largest
  Fourier-Motzkin systems of the repository;
* that the double cover (five equator rays visited twice around, coned to
  both poles) is invalid: each of its walls passes, only the covering degree
  rejects it.

Exits 1 on a mismatch.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from math import gcd
from time import perf_counter

from invar import Fan3, picard_data, validate_fan

# (x, y, z) -> (z, -x, y), then the shear x += z: determinant -1
MOVE = ((0, 1, 1), (-1, 0, 0), (0, 1, 0))


def primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def subdivided_cube(k: int) -> Fan3:
    """Face fan over the unit squares of the boundary of [-k, k]^3."""
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


def stars(steps: int) -> Fan3:
    """The octant fan after `steps` stellar subdivisions, seeded by `steps`:
    each splits a random cone at the primitive ray of a combination of its
    rays with weights 1 or 2, which lies inside the cone, so no ray repeats
    and the fan stays complete, simplicial and projective."""
    rng = random.Random(steps)
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    for new in range(6, 6 + steps):
        cone = cones.pop(rng.randrange(len(cones)))
        weights = [rng.randint(1, 2) for _ in cone]
        rays.append(primitive([sum(w * rays[i][t] for w, i in zip(weights, cone))
                               for t in range(3)]))
        cones += [cone[:drop] + (new,) + cone[drop + 1:] for drop in range(3)]
    return Fan3(rays, cones)


def fulton() -> Fan3:
    """The cube's face fan with the ray (1, 1, 1) replaced by (1, 2, 3)."""
    rays = [(1, 2, 3) if r == (1, 1, 1) else r for r in product((-1, 1), repeat=3)]
    cones = [[i for i, r in enumerate(product((-1, 1), repeat=3)) if r[axis] == side]
             for axis in range(3) for side in (-1, 1)]
    return Fan3(rays, cones)


def prism(twisted: bool) -> Fan3:
    """Face fan of the triangular prism with rays A1 A2 A3 at z = -1 and
    B1 B2 B3 at z = 1, side quadrilaterals split by a diagonal."""
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


def double_cover() -> Fan3:
    equator = [(1, 0, 0), (1, 3, 0), (-4, 3, 0), (-4, -3, 0), (1, -3, 0)]
    cones = [(i, (i + 2) % 5, pole) for i in range(5) for pole in (5, 6)]
    return Fan3(equator + [(0, 0, 1), (0, 0, -1)], cones)


def moved(fan: Fan3) -> Fan3:
    return Fan3([tuple(sum(m * x for m, x in zip(row, r)) for row in MOVE) for r in fan.rays],
                fan.max_cones)


def main() -> int:
    ok = True
    cases = [(f"subdivided cube k={k}", subdivided_cube(k), 6 * k - 2, True)
             for k in (1, 2, 3, 4)]
    for steps in (50, 100):
        fan = stars(steps)
        cases.append((f"{steps} stars on octants", fan, len(fan.rays) - 3, True))
    cases += [("prism A1B2 A2B3 A3B1", prism(True), 3, False),
              ("prism A1B2 A2B3 A1B3", prism(False), 3, True),
              ("Fulton's fan", fulton(), 0, False)]
    for name, fan, rank, projective in cases:
        start = perf_counter()
        valid = validate_fan(fan).valid
        validated = perf_counter()
        data = picard_data(fan)
        done = perf_counter()
        moved_data = picard_data(moved(fan))
        moved_done = perf_counter()
        right = valid and all(d.picard_rank == rank and d.projective == projective
                              for d in (data, moved_data))
        ok &= right
        print(f"{name}: {len(fan.rays)} rays, {len(fan.max_cones)} cones, "
              f"validate_fan {validated - start:.2f} s, picard_data {done - validated:.2f} s, "
              f"moved {moved_done - done:.2f} s, "
              f"Picard rank {data.picard_rank}/{moved_data.picard_rank} (expected {rank}), "
              f"projective {data.projective}/{moved_data.projective} "
              f"{'ok' if right else 'WRONG'}")
    fan = double_cover()
    start = perf_counter()
    report = validate_fan(fan)
    done = perf_counter()
    right = not report.valid
    ok &= right
    print(f"double cover: {len(fan.rays)} rays, {len(fan.max_cones)} cones, "
          f"validate_fan {done - start:.2f} s, valid {report.valid} (expected False) "
          f"{'ok' if right else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
