"""Complete fans in a rank-3 lattice: validation, Picard rank, projectivity.

A fan is a list of primitive integer rays plus maximal cones given as ray
index sets (`Fan3` divides a ray by its content, with an InputWarning).
Every check is local to a ray, a cone or a wall, and validation is
integer-only.  It checks the rays, then each cone: a cone of three
generators by one determinant, which is nonzero exactly when they span a
pointed cone whose three pairs are its facets, and a larger cone by sign
tests on pairs of generators (3-dimensional, strongly convex, facets),
counting to see that every generator is extremal: a strongly convex cone
has as many facets as extremal rays.  Then it checks each wall: a facet
must lie in exactly two cones, on opposite sides of its plane.  The cones
then cover the sphere of directions with a constant degree, so they meet in
common faces and fill space exactly when one direction off every facet
plane lies in exactly one cone.

A support function is fixed by its values on the rays, subject to one
integer Cramer equation per ray of a cone beyond its first three.  The
reduced form of these equations leaves some rays free; the values on the
free rays are the unknowns, each ray's value is stored as its few nonzero
integer multiples of them, and the Picard rank is the number of free rays
minus 3.  Projectivity asks for a strictly convex support function, one
inequality per wall, decided by exact Fourier-Motzkin elimination over the
integers (`_eliminate`), which it asks only for feasibility: no witness is
built.  The global linear functions stay among the unknowns, which keeps
the elimination small; the elimination stops once no row has a variable
left, and a stage over `_FM_PAIR_LIMIT` pairs of rows raises
SearchLimitError.  `fm_feasible` runs the same elimination on any rational
system and back-substitutes a witness; Fractions appear only in the list
it returns.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .errors import InputError, InputWarning, SearchLimitError, _Frozen, _echo, _int, _is_int
from .qlinalg import _content_free, _reduced, _scaled_to_int, parse_rational
from .tables import KIND_LYUBEZNIK, InvariantTable

IVec = tuple[int, int, int]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ray(v, i: int) -> IVec:
    """v as a tuple of three ints, refusing anything else (bools too) and
    zero; the message names ray i."""
    try:
        x, y, z = v
    except (TypeError, ValueError):
        x = None  # fails the first test below
    if not (_is_int(x) and _is_int(y) and _is_int(z)):
        problem = "must be a list of three integers"
    elif not (x or y or z):
        problem = "is the zero vector"
    else:
        return x, y, z
    raise InputError(f"ray {i} {problem}")


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

# A stage of the elimination may combine at most this many (positive,
# negative) pairs of rows.  The 100-step star subdivision of the octant fan
# in `scripts/fan_scale.py` needs 9,558 in its largest stage.
_FM_PAIR_LIMIT = 100_000


def _eliminate(rows: Iterable[tuple[int, ...]], nvars: int) -> list | None:
    """Fourier-Motzkin elimination on rows (coeffs..., const) meaning
    coeffs . x >= const, each a tuple of coprime ints.

    Returns the stages, one (variable, rows) pair per eliminated variable,
    or None when the system is infeasible.  Repeated rows are dropped, the
    first of each kept in order.  Variables are eliminated one at a time,
    first the one whose elimination adds the fewest rows (least pos*neg -
    pos - neg), with each stage's positive and negative entries counted in
    one pass over its rows.  An eliminated variable is 0 in every later row,
    so a row is constant when all its coefficients are.  The elimination
    stops once every row left is constant: the variables not yet eliminated
    are then unconstrained, and get no stage.  A stage that would combine
    more than `_FM_PAIR_LIMIT` pairs of rows raises SearchLimitError
    instead.
    """
    system = list(dict.fromkeys(rows))
    remaining = list(range(nvars))
    stages = []
    while True:
        live = []
        for r in system:
            if any(r[:-1]):
                live.append(r)
            elif r[-1] > 0:
                return None
        if not live:
            return stages
        system = live
        npos, nneg = [0] * nvars, [0] * nvars
        for r in system:
            for j in remaining:
                c = r[j]
                if c > 0:
                    npos[j] += 1
                elif c < 0:
                    nneg[j] += 1
        best, best_cost = None, None
        for j in remaining:
            cost = npos[j] * nneg[j] - npos[j] - nneg[j]
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        j = best
        pairs = npos[j] * nneg[j]
        if pairs > _FM_PAIR_LIMIT:
            raise SearchLimitError(
                f"Fourier-Motzkin elimination would combine {pairs} pairs of rows in one "
                f"stage, over the limit of {_FM_PAIR_LIMIT}"
            )
        stages.append((j, system))
        pos = [r for r in system if r[j] > 0]
        neg = [r for r in system if r[j] < 0]
        new = [r for r in system if r[j] == 0]
        for rp, rn in product(pos, neg):
            s, t = rp[j], -rn[j]
            new.append(_content_free([t * a + s * b for a, b in zip(rp, rn)]))
        system = list(dict.fromkeys(new))
        remaining.remove(j)


def fm_feasible(inequalities: Iterable[tuple], nvars: int) -> list[Fraction] | None:
    """Exact feasibility of a system of inequalities coeffs . x >= const.

    Returns a rational witness point, or None when the system is infeasible.
    Coefficients and constants are ints or whatever parse_rational reads, so
    floats and bools raise InputError, as does an nvars that is not a
    nonnegative int.  Each inequality is parsed and scaled once to a tuple
    of coprime integers (coeffs..., const).  `_eliminate` decides the
    system, and the witness is then back-substituted from its stages, last
    eliminated variable first, as one integer vector over one common
    denominator: each variable takes its largest lower bound, its smallest
    upper bound, their midpoint when it has both, or 0 when it has neither
    or no stage.
    Only the returned list is in Fractions.  A stage over `_FM_PAIR_LIMIT`
    pairs raises SearchLimitError.
    """
    _int(nvars, "nvars", 0)
    system = []
    for coeffs, const in inequalities:
        row = _scaled_to_int([parse_rational(x) for x in (*coeffs, const)])
        if len(row) != nvars + 1:
            raise InputError("inequality arity does not match the variable count")
        system.append(_content_free(row))
    stages = _eliminate(system, nvars)
    if stages is None:
        return None
    # back-substitute x = num / den, each bound a pair (p, q) meaning p / q
    # with q > 0, compared by cross-multiplying; num[j] is 0 until x_j is set
    num, den = [0] * nvars, 1
    for j, stage_system in reversed(stages):
        lo = hi = None
        for r in stage_system:
            cj = r[j]
            if cj > 0:
                p, q = r[-1] * den - sum(map(mul, r, num)), cj * den
                if lo is None or p * lo[1] > lo[0] * q:
                    lo = (p, q)
            elif cj < 0:
                p, q = sum(map(mul, r, num)) - r[-1] * den, -cj * den
                if hi is None or p * hi[1] < hi[0] * q:
                    hi = (p, q)
        if lo is None:
            p, q = hi or (0, 1)
        elif hi is None:
            p, q = lo
        else:
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(p, q)
        p, q = p // g, q // g
        scale = q // gcd(den, q)
        if scale != 1:
            num = [x * scale for x in num]
            den *= scale
        num[j] = p * (den // q)
    return [Fraction(x, den) for x in num]


# ---------------------------------------------------------------------------
# Fans


class Fan3(_Frozen):
    """A fan in Z^3: primitive rays plus maximal cones as ray index tuples.

    The constructor refuses a ray that is not three integers (bools
    excluded) or is zero, and a cone index that is not an integer in
    range(len(rays)); then it divides each ray by its content, with an
    InputWarning per rescaled ray.  `validate_fan` checks everything else.
    """

    __slots__ = ("rays", "max_cones")
    rays: tuple[IVec, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __init__(self, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]):
        ray_list = [_ray(r, i) for i, r in enumerate(rays)]
        n = len(ray_list)
        cone_list = []
        for k, c in enumerate(max_cones):
            c = tuple(c)
            for i in c:
                if not _is_int(i) or not 0 <= i < n:
                    raise InputError(f"maximal cone {k} has a ray index out of range: {_echo(i)}")
            cone_list.append(tuple(sorted(c)))
        for i, ray in enumerate(ray_list):
            prim = _content_free(ray)
            if prim != ray:
                warnings.warn(f"ray {i} = {list(ray)} rescaled to primitive {list(prim)}",
                              InputWarning)
                ray_list[i] = prim
        object.__setattr__(self, "rays", tuple(ray_list))
        object.__setattr__(self, "max_cones", tuple(cone_list))

    def __repr__(self):
        return f"Fan3({len(self.rays)} rays, {len(self.max_cones)} maximal cones)"


class Wall(_Frozen):
    """A 2-dimensional face shared by two maximal cones."""

    __slots__ = ("cones", "rays")
    cones: tuple[int, int]  # indices into fan.max_cones
    rays: tuple[int, int]  # indices of the two spanning rays

    def __init__(self, cones: tuple[int, int], rays: tuple[int, int]):
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "rays", rays)


class FanReport(_Frozen):
    __slots__ = ("valid", "complete", "violations", "walls", "facet_normals")
    valid: bool
    complete: bool
    violations: tuple[str, ...]
    walls: tuple[Wall, ...]
    facet_normals: tuple[tuple[IVec, ...], ...]  # inward, per cone, by sorted ray pair

    def __init__(self, valid: bool, complete: bool, violations: tuple[str, ...],
                 walls: tuple[Wall, ...], facet_normals: tuple[tuple[IVec, ...], ...]):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "facet_normals", facet_normals)


class PicardData(_Frozen):
    __slots__ = ("picard_rank", "class_rank", "projective")
    picard_rank: int
    class_rank: int
    projective: bool

    def __init__(self, picard_rank: int, class_rank: int, projective: bool):
        object.__setattr__(self, "picard_rank", picard_rank)
        object.__setattr__(self, "class_rank", class_rank)
        object.__setattr__(self, "projective", projective)


def _cone_facets(fan: Fan3, cone_index: int):
    """Facets of one maximal cone, by one determinant for three generators
    and by integer sign tests on pairs of generators for more.

    Returns (facet_ray_pairs, inward_normals, violations), in sorted ray-pair
    order.  Three generators a, b, c span a 3-dimensional cone exactly when
    det = (a x b) . c is nonzero; the cone is then pointed, each generator
    is extremal, and its facets are its three pairs with the inward normals
    sign(det) times a x b, c x a and b x c, made primitive.  For more
    generators, the cone is 3-dimensional exactly when the cross product of
    some pair of generators is nonzero on some generator.  The plane through
    two independent generators supports the cone, and so holds a facet,
    exactly when no two generators lie strictly on opposite sides of it.
    The sum w of these inward normals is positive on every nonzero point of
    a strongly convex cone, whose facet normals span space, and vanishes on
    some generator of a cone containing a line.  A strongly convex cone has
    as many facets as extremal rays, so its generators are all extremal
    exactly when the facet pairs, their distinct normals and the generators
    are equally many: each facet plane then holds one pair.  Only otherwise
    are the non-extremal generators named, as those not on two different
    facet planes.
    """
    cone = fan.max_cones[cone_index]
    if len(cone) == 3:
        i, j, k = cone
        rays = fan.rays
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = rays[i], rays[j], rays[k]
        ab = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        det = ab[0] * cx + ab[1] * cy + ab[2] * cz
        if det == 0:
            return None, None, [f"maximal cone {cone_index} is not 3-dimensional"]
        normals = []
        for nx, ny, nz in (ab,
                           (cy * az - cz * ay, cz * ax - cx * az, cx * ay - cy * ax),
                           (by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx)):
            g = gcd(nx, ny, nz) if det > 0 else -gcd(nx, ny, nz)
            normals.append((nx // g, ny // g, nz // g))
        return [(i, j), (i, k), (j, k)], tuple(normals), []
    gens = [fan.rays[i] for i in cone]
    facets: dict[tuple[int, int], IVec] = {}
    solid = False
    for a, (ax, ay, az) in enumerate(gens):
        for b in range(a + 1, len(gens)):
            bx, by, bz = gens[b]
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            low = high = 0  # the sides of generators a and b
            for x, y, z in gens:
                side = nx * x + ny * y + nz * z
                if side < low:
                    low = side
                elif side > high:
                    high = side
            if low == high:  # both 0: the generators are coplanar, or n is 0
                continue
            solid = True
            if low < 0 < high:
                continue
            g = gcd(nx, ny, nz) if low == 0 else -gcd(nx, ny, nz)  # inward, primitive
            facets[cone[a], cone[b]] = (nx // g, ny // g, nz // g)
    if not solid:
        return None, None, [f"maximal cone {cone_index} is not 3-dimensional"]
    normals = tuple(facets.values())
    wx = wy = wz = 0
    for x, y, z in normals:
        wx, wy, wz = wx + x, wy + y, wz + z
    if any(wx * x + wy * y + wz * z <= 0 for x, y, z in gens):
        return None, None, [f"maximal cone {cone_index} contains a line"]
    if len(facets) == len(gens) == len(set(normals)):
        return list(facets), normals, []
    extra = [i for i, g in zip(cone, gens)
             if len({n for n in normals if _dot(n, g) == 0}) < 2]
    names = ", ".join(map(str, extra))
    return None, None, [
        f"maximal cone {cone_index} lists non-extremal generators (rays {names})"
    ]


def validate_fan(fan: Fan3) -> FanReport:
    """Run every structural check that `Fan3` leaves and report violations."""
    violations: list[str] = []
    rays = fan.rays
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
        used.update(cone)
    first: dict[tuple[int, ...], int] = {}
    for k, cone in enumerate(fan.max_cones):
        if first.setdefault(cone, k) != k:
            violations.append(f"maximal cone {k} duplicates an earlier cone")
    if not violations:
        unused = sorted(set(range(len(rays))) - used)
        for i in unused:
            violations.append(f"ray {i} is not used by any maximal cone")
    if violations:
        return FanReport(False, False, tuple(violations), (), ())

    incidence: dict[tuple[int, int], list[tuple[int, IVec]]] = {}
    facet_normals = []
    for k in range(len(fan.max_cones)):
        pairs, normals, errs = _cone_facets(fan, k)
        if errs:
            violations.extend(errs)
            continue
        for pair, normal in zip(pairs, normals):
            incidence.setdefault(pair, []).append((k, normal))
        facet_normals.append(normals)
    if violations:
        return FanReport(False, False, tuple(violations), (), ())
    facet_normals = tuple(facet_normals)

    walls = []
    for pair in sorted(incidence):
        sides = incidence[pair]
        if len(sides) != 2:
            shared = "one cone only" if len(sides) == 1 else f"{len(sides)} cones"
            violations.append(
                f"wall spanned by rays {pair[0]} and {pair[1]} is shared by {shared}"
            )
        elif sides[0][1] == sides[1][1]:  # equal inward normals: the same side
            violations.append(
                f"maximal cones {sides[0][0]} and {sides[1][0]} do not intersect in a "
                f"common face: both lie on one side of the wall spanned by rays "
                f"{pair[0]} and {pair[1]}"
            )
        else:
            walls.append(Wall(cones=(sides[0][0], sides[1][0]), rays=pair))
    if violations:
        return FanReport(False, False, tuple(violations), tuple(walls), facet_normals)

    # Radial projection to the sphere of directions is now a covering away
    # from the rays, so every direction off the facet planes lies in the
    # same number (at least one) of cones; the cones meet in common faces
    # exactly when that number is one.
    # n . (1, t, t^2) is read as a + t (b + t c)
    flat = [n for normals in facet_normals for n in normals]
    t = 0
    while any(a + t * (b + t * c) == 0 for a, b, c in flat):
        t += 1
    inside = [k for k, normals in enumerate(facet_normals)
              if all(a + t * (b + t * c) > 0 for a, b, c in normals)]
    if len(inside) != 1:
        violations.append(
            f"maximal cones {', '.join(map(str, inside))} do not intersect in common "
            f"faces: each contains the direction {(1, t, t * t)}"
        )
        return FanReport(False, False, tuple(violations), (), facet_normals)
    return FanReport(True, True, (), tuple(walls), facet_normals)


def _require_valid(fan: Fan3) -> FanReport:
    report = validate_fan(fan)
    if not report.valid:
        raise InputError("invalid fan: " + report.violations[0])
    return report


def _cramer(a, b, c, v) -> tuple[int, int, int, int]:
    """(det, ca, cb, cc) with det * v = ca * a + cb * b + cc * c and det = a . (b x c).

    Each coefficient is v dotted with the cross product of the other two
    vectors, in cyclic order: ca = v . (b x c), cb = v . (c x a), cc = v . (a x b).
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (vx, vy, vz) = a, b, c, v
    bcx, bcy, bcz = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    return (ax * bcx + ay * bcy + az * bcz,
            vx * bcx + vy * bcy + vz * bcz,
            vx * (cy * az - cz * ay) + vy * (cz * ax - cx * az) + vz * (cx * ay - cy * ax),
            vx * (ay * bz - az * by) + vy * (az * bx - ax * bz) + vz * (ax * by - ay * bx))


def _ray_values(fan: Fan3) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """The support functions as values on the free rays: (the number of free
    rays, each ray's (free ray index, value) pairs).

    Values on the rays extend to a function linear on every cone exactly when
    each cone's rays beyond its first three (a basis, since no three
    generators of a valid cone are coplanar) get the value of the linear form
    through those three: one Cramer equation per extra ray.  Its columns are
    the rays in lexicographic order, a sweep across space, so the unknowns do
    not depend on the ray labels; on non-simplicial fans it keeps the
    Fourier-Motzkin systems of `_strictly_convex` small.  The reduced form
    of the equations leaves the rays at its free columns free: unknown k is
    the support function that is `scale`, the lcm of the pivots, on the k-th
    free ray and 0 on the others.  A free ray has the one pair (k, scale),
    and a pivot ray c the pairs (k, -row[f] * (scale // row[c])) of the free
    rays f its reduced row is nonzero on.
    """
    rays = fan.rays
    order = sorted(range(len(rays)), key=rays.__getitem__)
    col = {i: c for c, i in enumerate(order)}
    rows = []
    for cone in fan.max_cones:
        a, b, c = cone[:3]
        for v in cone[3:]:
            det, ca, cb, cc = _cramer(rays[a], rays[b], rays[c], rays[v])
            row = [0] * len(rays)
            row[col[v]], row[col[a]], row[col[b]], row[col[c]] = det, -ca, -cb, -cc
            rows.append(row)
    pivots = _reduced(rows)
    scale = lcm(*(row[c] for c, row in pivots))
    pivot_cols = {c for c, _ in pivots}
    free = [f for f in range(len(rays)) if f not in pivot_cols]
    values = [None] * len(rays)
    for k, f in enumerate(free):
        values[order[f]] = ((k, scale),)
    for c, row in pivots:
        q = scale // row[c]
        values[order[c]] = tuple((k, -row[f] * q) for k, f in enumerate(free) if row[f])
    return len(free), values


def _strictly_convex(fan: Fan3, report: FanReport, nfree: int, values) -> bool:
    """Whether some support function, given by `_ray_values`, is strictly convex.

    Across each wall the two linear forms differ by a multiple of the wall's
    normal, so one ray suffices: the far cone's first off-wall ray v (a
    three-ray cone's third ray) must lie strictly below the near cone's
    form, l_near(v) > value(v).  Each row is summed from the value pairs of
    the wall's two rays, the near cone's off-wall ray w and v.  By
    homogeneity each row may be divided by its content and asked to be
    >= 1; rows of parallel walls then coincide, and `_eliminate` keeps the
    first of each.  Only its verdict is read: no witness is built.  The
    global linear functions stay among the unknowns: they add 0 to every
    row, so the feasible set is a cylinder along them, and its projections
    stay small.  Pinning three ray values to 0 instead drops three variables
    but cuts the cylinder to a slice; on the star subdivisions of the
    octant fan in `scripts/fan_scale.py`, that made the elimination
    thousands of times slower.
    """
    rays, cones = fan.rays, fan.max_cones
    rows = []
    for wall in report.walls:
        near, far = cones[wall.cones[0]], cones[wall.cones[1]]
        i, j = wall.rays
        w = sum(near) - i - j if len(near) == 3 else next(r for r in near if r != i and r != j)
        v = sum(far) - i - j if len(far) == 3 else next(r for r in far if r != i and r != j)
        det, ca, cb, cc = _cramer(rays[i], rays[j], rays[w], rays[v])
        if det < 0:  # sign(det) * (det * l_near(v) - det * value(v))
            det, ca, cb, cc = -det, -ca, -cb, -cc
        row = [0] * nfree
        for ray, coeff in ((i, ca), (j, cb), (w, cc), (v, -det)):
            for k, x in values[ray]:
                row[k] += coeff * x
        rows.append((*_content_free(row), 1))
    return _eliminate(rows, nfree) is not None


def picard_rank(fan: Fan3) -> int:
    """Rank of the Picard group: support functions modulo global linear ones,
    the free rays less 3."""
    _require_valid(fan)
    return _ray_values(fan)[0] - 3


def class_rank(fan: Fan3) -> int:
    """Rank of the divisor class group: number of rays minus 3."""
    _require_valid(fan)
    return len(fan.rays) - 3


def is_projective(fan: Fan3) -> bool:
    """Whether a strictly convex support function exists."""
    report = _require_valid(fan)
    return _strictly_convex(fan, report, *_ray_values(fan))


def picard_data(fan: Fan3) -> PicardData:
    report = _require_valid(fan)
    nfree, values = _ray_values(fan)
    return PicardData(
        picard_rank=nfree - 3,
        class_rank=len(fan.rays) - 3,
        projective=_strictly_convex(fan, report, nfree, values),
    )


def toric_lyubeznik(fan: Fan3) -> InvariantTable:
    """Lyubeznik table of any affine cone over the projective toric 3-fold.

    Requires a valid complete projective fan.  With p = picard_rank - 1, the
    5x5 table has p in cells (0,3) and (2,4), 1 in cell (4,4), zeros
    elsewhere.
    """
    data = picard_data(fan)
    if not data.projective:
        raise InputError(
            "fan is not projective: no strictly convex support function exists, "
            "so no Lyubeznik table is emitted"
        )
    p = data.picard_rank - 1
    rows = [[0, 0, 0, p, 0], [0] * 5, [0, 0, 0, 0, p], [0] * 5, [0, 0, 0, 0, 1]]
    return InvariantTable(KIND_LYUBEZNIK, rows)

