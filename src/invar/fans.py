"""Complete fans in a rank-3 lattice: validation, Picard rank, projectivity.

A fan is a list of primitive integer rays plus maximal cones given as ray
index sets.  Validation checks primitivity, strong convexity, that cones are
3-dimensional and meet pairwise in common faces, and the wall condition
(every 2-dimensional face shared by exactly two maximal cones), which
certifies completeness for a fan that passes the other checks.

The Picard rank is computed from piecewise-linear support functions: one
linear form per maximal cone, glued along walls, modulo the globally linear
ones.  The gluing equations are integer, ranked and solved by the integer
kernel of qlinalg.  Projectivity asks for a strictly convex support function
and is decided by exact Fourier-Motzkin elimination on integer inequalities;
Fractions appear only in witness points and in the cone hulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputError
from .qlinalg import _content_free, _echelon_int, _nullspace_int
from .tables import KIND_LYUBEZNIK, InvariantTable

IVec = tuple[int, int, int]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def primitive(v: Sequence[int]) -> IVec:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        raise InputError("the zero vector is not a ray")
    return (v[0] // g, v[1] // g, v[2] // g)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination


def fm_feasible(inequalities: Iterable[tuple], nvars: int) -> list[Fraction] | None:
    """Exact feasibility of a system of inequalities coeffs . x >= const.

    Returns a rational witness point, or None when the system is infeasible.
    Variables are eliminated one at a time (smallest positive*negative count
    first), on each inequality scaled once to a tuple of coprime integers
    (coeffs..., const); only the witness is in Fractions.  Desk-scale only.
    """
    system = []
    for coeffs, const in inequalities:
        row = [Fraction(c) for c in coeffs]
        if len(row) != nvars:
            raise InputError("inequality arity does not match the variable count")
        row.append(Fraction(const))
        m = lcm(*(x.denominator for x in row))
        system.append(_content_free([x.numerator * (m // x.denominator) for x in row]))
    system = list(dict.fromkeys(system))
    remaining = list(range(nvars))
    stages = []
    while remaining:
        if any(r[-1] > 0 for r in system if not any(r[j] for j in remaining)):
            return None
        system = [r for r in system if any(r[j] for j in remaining)]
        best, best_cost = None, None
        for j in remaining:
            pos = sum(1 for r in system if r[j] > 0)
            neg = sum(1 for r in system if r[j] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        j = best
        stages.append((j, system))
        pos = [r for r in system if r[j] > 0]
        neg = [r for r in system if r[j] < 0]
        new = [r for r in system if r[j] == 0]
        for rp, rn in product(pos, neg):
            s, t = rp[j], -rn[j]
            new.append(_content_free([t * a + s * b for a, b in zip(rp, rn)]))
        system = list(dict.fromkeys(new))
        remaining.remove(j)
    if any(r[-1] > 0 for r in system):
        return None
    witness = [Fraction(0)] * nvars
    for j, stage_system in reversed(stages):
        lo = hi = None
        for r in stage_system:
            cj = r[j]
            if cj == 0:
                continue
            rest = sum(r[k] * witness[k] for k in range(nvars) if k != j)
            bound = Fraction(r[-1] - rest) / cj
            if cj > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            witness[j] = Fraction(0)
        elif lo is None:
            witness[j] = hi
        elif hi is None:
            witness[j] = lo
        else:
            witness[j] = (lo + hi) / 2
    return witness


# ---------------------------------------------------------------------------
# Fans


class Fan3:
    """A fan in Z^3: primitive rays plus maximal cones as ray index tuples."""

    __slots__ = ("rays", "max_cones")

    def __init__(self, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]):
        ray_tuple = tuple(tuple(int(x) for x in r) for r in rays)
        for r in ray_tuple:
            if len(r) != 3:
                raise InputError(f"rays must be integer 3-vectors, got {r!r}")
        cone_tuple = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        object.__setattr__(self, "rays", ray_tuple)
        object.__setattr__(self, "max_cones", cone_tuple)

    def __setattr__(self, name, value):
        raise AttributeError("Fan3 is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Fan3)
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return hash((self.rays, self.max_cones))

    def __repr__(self):
        return f"Fan3({len(self.rays)} rays, {len(self.max_cones)} maximal cones)"


@dataclass(frozen=True)
class Wall:
    """A 2-dimensional face shared by two maximal cones."""

    cones: tuple[int, int]  # indices into fan.max_cones
    rays: tuple[int, int]  # indices of the two spanning rays


@dataclass(frozen=True)
class FanReport:
    valid: bool
    complete: bool
    violations: tuple[str, ...]
    walls: tuple[Wall, ...]
    facet_normals: tuple[tuple[IVec, ...], ...]  # inward normals per maximal cone


@dataclass(frozen=True)
class PicardData:
    picard_rank: int
    class_rank: int
    projective: bool


def _cone_facets(fan: Fan3, cone_index: int):
    """Facets of one maximal cone via a 2-dimensional convex hull.

    Returns (facet_ray_pairs, inward_normals, violations).  A transversal
    plane <w, x> = 1 with w strictly positive on the generators exists by
    strong convexity; the hull of the projected generators gives the facet
    structure even for non-simplicial cones.
    """
    cone = fan.max_cones[cone_index]
    gens = [fan.rays[i] for i in cone]
    w = fm_feasible([(g, 1) for g in gens], 3)
    if w is None:
        return None, None, [f"maximal cone {cone_index} contains a line"]
    axis = min(range(3), key=lambda i: abs(w[i]))
    e = tuple(1 if i == axis else 0 for i in range(3))
    u = _cross(e, tuple(w))
    v = _cross(tuple(w), u)
    points = []
    for g in gens:
        h = _dot(w, g)
        points.append((Fraction(_dot(u, g), 1) / h, Fraction(_dot(v, g), 1) / h))
    hull = _hull_indices(points)
    if len(hull) != len(gens):
        extra = sorted(set(range(len(gens))) - set(hull))
        names = ", ".join(str(cone[i]) for i in extra)
        return None, None, [
            f"maximal cone {cone_index} lists non-extremal generators (rays {names})"
        ]
    pairs = []
    normals = []
    for a in range(len(hull)):
        i, j = hull[a], hull[(a + 1) % len(hull)]
        n = _cross(gens[i], gens[j])
        if any(_dot(n, g) < 0 for g in gens):
            n = tuple(-x for x in n)
        if any(_dot(n, g) < 0 for g in gens):
            return None, None, [f"maximal cone {cone_index} is not convex"]
        pairs.append(tuple(sorted((cone[i], cone[j]))))
        normals.append(primitive(n))
    return pairs, tuple(normals), []


def _hull_indices(points) -> list[int]:
    """Indices of the convex hull vertices of 2-d points, counterclockwise."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def turn(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = points[o], points[a], points[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _intersection_rays(normals_a, normals_b) -> list[IVec]:
    """Extremal rays of the cone cut out by both inward-normal systems."""
    stacked = list(normals_a) + list(normals_b)
    found: dict[IVec, None] = {}
    for na, nb in combinations(stacked, 2):
        r = _cross(na, nb)
        if r == (0, 0, 0):
            continue
        for cand in (r, tuple(-x for x in r)):
            if all(_dot(n, cand) >= 0 for n in stacked):
                found[primitive(cand)] = None
    return list(found)


def _common_face_violation(fan: Fan3, ci: int, cj: int, facet_normals) -> str | None:
    inter = _intersection_rays(facet_normals[ci], facet_normals[cj])
    for this, other in ((ci, cj), (cj, ci)):
        zero_set = [
            n for n in facet_normals[this] if all(_dot(n, r) == 0 for r in inter)
        ]
        gens = [fan.rays[i] for i in fan.max_cones[this]]
        face_gens = [g for g in gens if all(_dot(n, g) == 0 for n in zero_set)]
        for g in face_gens:
            if any(_dot(n, g) < 0 for n in facet_normals[other]):
                return (
                    f"maximal cones {ci} and {cj} do not intersect in a common face"
                )
    return None


@lru_cache(maxsize=None)
def _analyze(fan: Fan3) -> FanReport:
    violations: list[str] = []
    rays = fan.rays
    for i, r in enumerate(rays):
        if r == (0, 0, 0):
            violations.append(f"ray {i} is the zero vector")
        elif gcd(gcd(abs(r[0]), abs(r[1])), abs(r[2])) != 1:
            violations.append(f"ray {i} = {r} is not primitive")
    seen: dict[IVec, int] = {}
    for i, r in enumerate(rays):
        if r in seen:
            violations.append(f"ray {i} duplicates ray {seen[r]}")
        else:
            seen[r] = i
    if not fan.max_cones:
        violations.append("fan has no maximal cones")
    used: set[int] = set()
    for k, cone in enumerate(fan.max_cones):
        if len(set(cone)) != len(cone):
            violations.append(f"maximal cone {k} repeats a ray index")
        if any(i < 0 or i >= len(rays) for i in cone):
            violations.append(f"maximal cone {k} references a ray index out of range")
        used.update(cone)
    for k, cone in enumerate(fan.max_cones):
        if fan.max_cones.index(cone) != k:
            violations.append(f"maximal cone {k} duplicates an earlier cone")
    if not violations:
        unused = sorted(set(range(len(rays))) - used)
        for i in unused:
            violations.append(f"ray {i} is not used by any maximal cone")
    if violations:
        return FanReport(False, False, tuple(violations), (), ())

    facet_pairs = []
    facet_normals = []
    for k, cone in enumerate(fan.max_cones):
        if len(_echelon_int([rays[i] for i in cone], 3)) != 3:
            violations.append(f"maximal cone {k} is not 3-dimensional")
            continue
        pairs, normals, errs = _cone_facets(fan, k)
        if errs:
            violations.extend(errs)
            continue
        facet_pairs.append((k, pairs))
        facet_normals.append(normals)
    if violations:
        return FanReport(False, False, tuple(violations), (), ())

    for ci in range(len(fan.max_cones)):
        for cj in range(ci + 1, len(fan.max_cones)):
            msg = _common_face_violation(fan, ci, cj, facet_normals)
            if msg:
                violations.append(msg)
    if violations:
        return FanReport(False, False, tuple(violations), (), tuple(facet_normals))

    incidence: dict[tuple[int, int], list[int]] = {}
    for k, pairs in facet_pairs:
        for pair in pairs:
            incidence.setdefault(pair, []).append(k)
    walls = []
    complete = True
    for pair in sorted(incidence):
        cones = incidence[pair]
        if len(cones) == 1:
            violations.append(
                f"wall spanned by rays {pair[0]} and {pair[1]} is shared by one cone only"
            )
            complete = False
        elif len(cones) > 2:
            violations.append(
                f"wall spanned by rays {pair[0]} and {pair[1]} is shared by {len(cones)} cones"
            )
            complete = False
        else:
            walls.append(Wall(cones=(cones[0], cones[1]), rays=pair))
    valid = not violations
    return FanReport(valid, complete and valid, tuple(violations),
                     tuple(walls), tuple(facet_normals))


def validate_fan(fan: Fan3) -> FanReport:
    """Run all structural checks and report violations."""
    return _analyze(fan)


def _require_valid(fan: Fan3) -> FanReport:
    report = _analyze(fan)
    if not report.valid:
        raise InputError("invalid fan: " + report.violations[0])
    return report


def _gluing_rows(fan: Fan3, report: FanReport) -> list[list[int]]:
    """Equations on one linear form per maximal cone: they agree on each wall's rays."""
    m = len(fan.max_cones)
    rows = []
    for wall in report.walls:
        a, b = wall.cones
        for ray_index in wall.rays:
            v = fan.rays[ray_index]
            row = [0] * (3 * m)
            for t in range(3):
                row[3 * a + t] = v[t]
                row[3 * b + t] = -v[t]
            rows.append(row)
    return rows


def support_function_space_dim(fan: Fan3) -> int:
    """Dimension of the space of continuous piecewise-linear support functions."""
    report = _require_valid(fan)
    ncols = 3 * len(fan.max_cones)
    return ncols - len(_echelon_int(_gluing_rows(fan, report), ncols))


def picard_rank(fan: Fan3) -> int:
    """Rank of the Picard group: support functions modulo global linear ones."""
    return support_function_space_dim(fan) - 3


def class_rank(fan: Fan3) -> int:
    """Rank of the divisor class group: number of rays minus 3."""
    _require_valid(fan)
    return len(fan.rays) - 3


def is_projective(fan: Fan3) -> bool:
    """Whether a strictly convex support function exists.

    The gluing equalities are solved first, by an integer nullspace basis;
    the strict-convexity conditions (each cone's linear form exceeds its
    neighbor's across every wall, normalized to >= 1 by homogeneity) are
    then decided by Fourier-Motzkin elimination on the solution space.
    """
    report = _require_valid(fan)
    basis = _nullspace_int(_gluing_rows(fan, report), 3 * len(fan.max_cones))
    inequalities = []
    for wall in report.walls:
        for near, far in (wall.cones, wall.cones[::-1]):
            for ray_index in fan.max_cones[far]:
                if ray_index in wall.rays:
                    continue
                # <l_near - l_far, v> has six nonzero terms
                v = fan.rays[ray_index]
                coeffs = tuple(
                    sum(v[t] * (vec[3 * near + t] - vec[3 * far + t]) for t in range(3))
                    for vec in basis
                )
                inequalities.append((coeffs, 1))
    return fm_feasible(inequalities, len(basis)) is not None


def picard_data(fan: Fan3) -> PicardData:
    return PicardData(
        picard_rank=picard_rank(fan),
        class_rank=class_rank(fan),
        projective=is_projective(fan),
    )


def toric_lyubeznik(fan: Fan3) -> InvariantTable:
    """Lyubeznik table of any affine cone over the projective toric 3-fold.

    Requires a valid complete projective fan.  With p = picard_rank - 1, the
    5x5 table has p in cells (0,3) and (2,4), 1 in cell (4,4), zeros
    elsewhere.
    """
    report = _analyze(fan)
    if not report.valid:
        raise InputError("invalid fan: " + report.violations[0])
    if not is_projective(fan):
        raise InputError(
            "fan is not projective: no strictly convex support function exists, "
            "so no Lyubeznik table is emitted"
        )
    p = picard_rank(fan) - 1
    rows = [[0] * 5 for _ in range(5)]
    rows[0][3] = p
    rows[2][4] = p
    rows[4][4] = 1
    return InvariantTable(KIND_LYUBEZNIK, rows)


__all__ = [
    "Fan3",
    "Wall",
    "FanReport",
    "PicardData",
    "fm_feasible",
    "primitive",
    "validate_fan",
    "support_function_space_dim",
    "picard_rank",
    "class_rank",
    "is_projective",
    "picard_data",
    "toric_lyubeznik",
]
