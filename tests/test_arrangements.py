"""Intersection lattices, Cech-de Rham tables, and the small Lyubeznik tables."""

import random
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from invar import (
    AffineSubspace,
    BettiVector,
    FinitePoset,
    KIND_CDR,
    InputError,
    InputWarning,
    InvariantTable,
    QMatrix,
    SimplicialComplex,
    boundary_matrix,
    build_lattice,
    canonical_small_tables,
    cdr_table,
    complement_betti,
    euler_sum,
    lyubeznik_dim2,
    moebius_betti_oracle,
    order_complex,
    reduced_betti,
)
from invar import arrangements
from invar.arrangements import (
    Flat,
    IntersectionLattice,
    _bits,
    _cut,
    _hyperplane_components,
    _interval_complexes,
    _lattice,
    _meet,
    _moebius,
    _normalize_components,
    _proper_above,
    _remainders,
    _rref_order,
)
from invar.fileio import parse_arrangement
from invar.posets import _chains_above, _face_betti
from invar.qlinalg import _content_free, _pivot, _pivots, _primitive, _substitute
from conftest import (
    bench_workloads,
    coordinate_hyperplane,
    random_hyperplane,
    random_subspace,
    reference_order_complex,
    reference_topdown_betti,
)
from test_qlinalg import (
    reference_echelon_int, reference_reduced_int, reference_rref, reference_sparse_echelon_int,
)


def reference_meet_rows(a, b):
    """The primitive reduced rows of the equations of a and b stacked, by
    the reference elimination and back-substitution, or None when no point
    satisfies them all."""
    echelon = reference_echelon_int([*a.rows, *b.rows], a.ambient_dim + 1)
    rows = tuple(map(tuple, reference_reduced_int(echelon)))
    return None if rows and not any(rows[-1][:-1]) else rows


def reference_contained(a, b):
    """Whether a lies in b: b's equations raise the rank of a's by nothing."""
    return len(reference_echelon_int([*a.rows, *b.rows], a.ambient_dim + 1)) == len(a.rows)


def reference_meet_dim(a, b):
    """The dimension of the meet of a and b, or None when they do not meet."""
    rows = reference_meet_rows(a, b)
    return None if rows is None else a.ambient_dim - len(rows)


def coordinate_line(n, axis):
    """The axis-th coordinate axis in C^n (all other coordinates vanish)."""
    rows = [[1 if j == i else 0 for j in range(n)] + [0] for i in range(n) if i != axis]
    return AffineSubspace.from_rows(n, rows)


def braid_arrangement(n):
    """The hyperplanes x_i = x_j of C^n."""
    comps = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n + 1)
            row[i], row[j] = 1, -1
            comps.append(AffineSubspace.from_rows(n, [row]))
    return comps


def pencil_arrangement(k):
    """k planes of C^3 through the z-axis, plus the transversal plane z = 0."""
    comps = [AffineSubspace.from_rows(3, [[1, i, 0, 0]]) for i in range(k)]
    return comps + [AffineSubspace.from_rows(3, [[0, 0, 1, 0]])]


def k_equal_arrangement(n, k):
    """The subspaces x_{i1} = ... = x_{ik} of C^n; none is a hyperplane for k >= 3."""
    comps = []
    for subset in combinations(range(n), k):
        rows = []
        for j in subset[1:]:
            row = [0] * (n + 1)
            row[subset[0]], row[j] = 1, -1
            rows.append(row)
        comps.append(AffineSubspace.from_rows(n, rows))
    return comps


def random_mixed_components(rng, count):
    """Seeded central and affine arrangements of subspaces of mixed dimension."""
    corpus = []
    for _ in range(count):
        n = rng.randint(2, 5)
        central = rng.random() < 0.5
        corpus.append([random_subspace(rng, n, central) for _ in range(rng.randint(1, 5))])
    return corpus


def quiet_lattice(comps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InputWarning)
        return build_lattice(comps)


def random_mixed_arrangements(rng, count):
    return [quiet_lattice(comps) for comps in random_mixed_components(rng, count)]


def random_hyperplane_components(rng, count):
    """Seeded central and affine hyperplane arrangements, some with lines or
    planes added, so that hyperplane-type flats sit next to the others."""
    corpus = []
    for _ in range(count):
        n = rng.randint(2, 4)
        central = rng.random() < 0.5
        comps = [random_hyperplane(rng, n, central) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            comps += [random_subspace(rng, n, central) for _ in range(rng.randint(1, 2))]
        corpus.append(comps)
    return corpus


def random_pencil_components(rng, count):
    """Seeded lifted pencils: k >= 5 planes through a line and one plane
    across it, all inside a hyperplane of C^4, in random integer coordinates,
    central or affine.  Their bottom point ranks its order complex, which
    has 5k + 3 faces against the crosscut's 2^k + k + 1."""
    corpus = []
    for _ in range(count):
        while True:
            change = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            if QMatrix(change).rank() == 4:
                break
        shift = [rng.randint(-2, 2) for _ in range(4)] if rng.random() < 0.5 else [0] * 4
        slopes = rng.sample(range(-9, 10), rng.randint(5, 7))
        systems = [[[1, s, 0, 0], [0, 0, 0, 1]] for s in slopes] + [[[0, 0, 1, 0], [0, 0, 0, 1]]]
        # x = change y + shift turns a x = 0 into (a change) y + a shift = 0
        corpus.append([AffineSubspace.from_rows(4, [
            [sum(a[i] * change[i][j] for i in range(4)) for j in range(4)]
            + [sum(x * t for x, t in zip(a, shift))] for a in rows]) for rows in systems])
    return corpus


def reference_build_lattice(components):
    """The former builder, as an oracle: prune by stacked ranks, meet every
    flat with every component by eliminating the stacked system, sort by the
    Fraction rref, list every ordered pair of masks and close them by
    FinitePoset's Warshall.  Returns (subspaces, masks, poset), ambient last."""
    n = components[0].ambient_dim
    unique = list(dict.fromkeys(components))

    def inside(a, b):
        return len(reference_echelon_int(a.rows + b.rows, n + 1)) == len(a.rows)

    comps = [c for c in unique if not any(c != o and inside(c, o) for o in unique)]
    masks = {}
    seen = set(comps)
    worklist = list(comps)
    while worklist:
        flat = worklist.pop()
        mask = 0
        for j, c in enumerate(comps):
            rows = _cut(flat.rows + c.rows, n + 1)
            meet = None if rows is None else AffineSubspace.from_rows(n, rows)
            if meet == flat:
                mask |= 1 << j
            elif meet is not None and meet not in seen:
                seen.add(meet)
                worklist.append(meet)
        masks[flat] = mask
    ordered = sorted(masks, key=lambda s: (s.dim, reference_canonical(n, s.rows)))
    subspaces = ordered + [AffineSubspace.ambient(n)]
    flat_masks = [masks[s] for s in ordered] + [0]
    pairs = [
        (a, b)
        for a, mask_a in enumerate(flat_masks)
        for b, mask_b in enumerate(flat_masks)
        if mask_a & mask_b == mask_b and mask_a != mask_b
    ]
    return subspaces, flat_masks, FinitePoset(range(len(subspaces)), pairs)


def reference_cut(rows, ncols):
    """The former `_cut`, as an oracle: every system of two or more rows is
    eliminated before a pivot in the constant column is looked for."""
    if len(rows) == 1:
        row = rows[0]
        if not any(row[:-1]):  # 0 = c: the ambient space when c is 0, else empty
            return None if row[-1] else ()
        return (_primitive(row),)
    echelon = reference_sparse_echelon_int(rows, ncols)
    if echelon and not any(echelon[-1][:-1]):  # a pivot in the constant column
        return None
    return tuple(reference_reduced_int(echelon))


def reference_meet(pivots, cut):
    """The former `_meet`, as an oracle: the cut's rows taken as they are,
    and each old row back-substituted at their pivots."""
    new = _pivots(cut)
    merged = list(new)
    for c, row in pivots:
        done = _substitute(row, new)
        merged.append((c, row if done is row else _content_free(done)))
    merged.sort(key=lambda pair: pair[0])
    return tuple(row for _, row in merged), merged


def reference_sorted_by_rref(subspaces):
    """The former flat order, as an oracle: each row's pivot read again by
    `_pivot`, and each row scaled once, through a dictionary of rows."""
    subspaces = list(subspaces)
    pivots = {row: row[_pivot(row)] for s in subspaces for row in s.rows}
    scale = lcm(*pivots.values())
    scaled = {
        row: row if p == scale else tuple(x * (scale // p) for x in row)
        for row, p in pivots.items()
    }
    return sorted(subspaces, key=lambda s: (s.dim, tuple(scaled[row] for row in s.rows)))


def reference_lattice(comps):
    """The former `_lattice` loop, as an oracle: every pop derives its
    pivots again, every component outside the mask bound is reduced and
    tested for containment, and every cut is eliminated (`reference_cut`)."""
    n = comps[0].ambient_dim
    comp_rows = [c.rows for c in comps]
    all_components = (1 << len(comps)) - 1
    lower = {rows: 1 << j for j, rows in enumerate(comp_rows)}
    masks = {}
    met = set()
    worklist = list(comp_rows)
    while worklist:
        rows = worklist.pop()
        pivots = _pivots(rows)
        mask = lower[rows]
        remainders = [
            (j, _remainders(pivots, comp_rows[j])) for j in _bits(all_components & ~mask)
        ]
        for j, rem in remainders:
            if not rem:
                mask |= 1 << j
        masks[rows] = mask
        groups = {}
        for j, rem in remainders:
            if rem and (mask | 1 << j) not in met:
                groups.setdefault(reference_cut(rem, n + 1), []).append(j)
        for cut, group in groups.items():
            generators = mask
            for j in group:
                met.add(mask | 1 << j)
                generators |= 1 << j
            if cut is None:
                continue
            meet = _meet(pivots, cut)[0]
            if meet in lower:
                lower[meet] |= generators
            else:
                lower[meet] = generators
                worklist.append(meet)
    ordered = reference_sorted_by_rref(AffineSubspace._canonical(n, rows) for rows in masks)
    flats = [Flat(i, s) for i, s in enumerate(ordered)]
    top = Flat(len(flats), AffineSubspace.ambient(n))
    flats.append(top)
    flat_masks = [masks[s.rows] for s in ordered] + [0]
    everything = (1 << len(flats)) - 1
    lacking = [everything] * len(comps)
    for i, mask in enumerate(flat_masks):
        for j in _bits(mask):
            lacking[j] ^= 1 << i
    up = []
    for i, mask in enumerate(flat_masks):
        above = everything
        for j in _bits(all_components & ~mask):
            above &= lacking[j]
        up.append(above ^ (1 << i))
    return IntersectionLattice(n, tuple(flats), top.id, tuple(flat_masks), tuple(up))


def reference_moebius(lattice):
    """The former `_moebius`, as an oracle: the sum over each whole up-set,
    the ambient space included, read off its bits."""
    up = lattice.up
    mu = [0] * len(up)
    mu[lattice.top_id] = 1
    for i in range(lattice.top_id - 1, -1, -1):
        mu[i] = -sum(mu[g] for g in _bits(up[i]))
    return mu


def reference_interval_complexes(lattice, flats):
    """The former `_interval_complexes` body, as an oracle: the same choice
    of complex for each flat, built as a `SimplicialComplex`, the crosscut
    on the flat's own mask or the chains grown as tuples of flat ids."""
    masks = lattice.masks
    above = _proper_above(lattice)
    chains = [0] * lattice.top_id
    cross = [0] * lattice.top_id
    for i in range(lattice.top_id - 1, -1, -1):
        chains[i] = 1 + sum(chains[g] for g in above[i])
        cross[i] = (1 << masks[i].bit_count()) - 1 - sum(cross[g] for g in above[i])
    for f in flats:
        up = above[f.id]
        if sum(cross[g] for g in up) <= sum(chains[g] for g in up):
            vertices = _bits(masks[f.id]) if up else []
            yield f, SimplicialComplex(vertices, [_bits(masks[g]) for g in up])
        else:
            walked = [(g,) for g in up]
            for chain in walked:
                walked.extend(chain + (g,) for g in above[chain[-1]])
            yield f, SimplicialComplex(up, walked)


def reference_cdr_table(lattice):
    """The former `cdr_table` body, as an oracle: every dimension read
    through `Flat.dim`, mu always computed, and every proper flat not below
    hyperplanes alone ranked through a complex, components included, by
    the former complexes and the former top-down ranking."""
    d = max(f.dim for f in lattice.proper_flats())
    n = lattice.ambient_dim
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    hyperplanes = 0
    for f in lattice.flats:
        if f.dim == n - 1:
            hyperplanes |= lattice.masks[f.id]
    mu = reference_moebius(lattice)
    others = []
    for flat in lattice.proper_flats():
        if lattice.masks[flat.id] & ~hyperplanes:
            others.append(flat)
        else:
            rows[flat.dim][n - 1] += abs(mu[flat.id])
    for flat, complex_ in reference_interval_complexes(lattice, others):
        betti = reference_topdown_betti(complex_)
        for k in range(-1, betti.max_degree() + 1):
            rows[flat.dim][flat.dim + 1 + k] += betti[k]
    return InvariantTable(KIND_CDR, rows)


def reference_normalize_components(components):
    """The former pruning, as an oracle: deduplicate with a list scan, then
    test every ordered pair of unique components for containment.
    Returns the kept components; warns as build_lattice does."""
    if not components:
        raise InputError("an arrangement needs at least one component")
    n = components[0].ambient_dim
    for c in components:
        if c.ambient_dim != n:
            raise InputError("components have inconsistent ambient dimensions")
        if c.dim == n:
            raise InputError("a component equal to the ambient space is not allowed")
    unique = []
    for i, c in enumerate(components):
        if c in unique:
            warnings.warn(f"duplicate component at position {i} ignored", InputWarning)
        else:
            unique.append(c)
    keep = []
    for i, c in enumerate(unique):
        redundant = any(c != o and reference_contained(c, o) for o in unique)
        if redundant:
            warnings.warn(
                f"component of dimension {c.dim} is contained in another component; pruned",
                InputWarning,
            )
        else:
            keep.append(c)
    return keep


def reference_lyubeznik_dim2(components):
    """The former `lyubeznik_dim2`, as an oracle: a union-find over the
    planes, joining every pair whose meet has dimension >= 1."""
    comps = _normalize_components(components)
    for c in comps:
        if not c.is_linear():
            raise InputError("Lyubeznik tables here require a central arrangement")
    dim_y = max(c.dim for c in comps)
    if dim_y > 2:
        raise InputError("no closed-form Lyubeznik table for arrangements of dimension > 2")
    if dim_y <= 1:
        return canonical_small_tables(dim_y)
    planes = [c for c in comps if c.dim == 2]
    parent = list(range(len(planes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            if (reference_meet_dim(planes[i], planes[j]) or 0) >= 1:
                parent[find(i)] = find(j)
    return canonical_small_tables(2, len({find(i) for i in range(len(planes))}))


def recorded_warnings(call, *args):
    """(result, [warning texts in order]) of a call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    assert all(issubclass(w.category, InputWarning) for w in caught)
    return result, [str(w.message) for w in caught]


def sub(n, *rows):
    return AffineSubspace.from_rows(n, rows)


def affine_planes():
    """Planes and hyperplanes of C^4, not through one point: the second and
    third planes cut the first in the same line, two hyperplanes are
    parallel, and most meets of two planes cut a multi-row remainder."""
    return [
        sub(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]),
        sub(4, [1, 0, 0, 0, 0], [0, 0, 1, 0, -1]),
        sub(4, [0, 1, 0, 0, 0], [0, 0, 1, 0, -1]),
        sub(4, [0, 0, 1, -1, 0], [1, -1, 0, 0, -1]),
        sub(4, [0, 0, 0, 1, -2], [1, 1, 0, 0, 0]),
        sub(4, [1, 1, 1, 1, -1]),
        sub(4, [1, 1, 1, 1, -3]),
    ]


def pruning_and_cut_components():
    """Arrangements with duplicate components, contained components,
    parallel affine components (empty cuts), and components of codimension
    >= 2 that cut another in the same subspace."""
    h = lambda n, *row: sub(n, list(row))
    return [
        # duplicates, the first one repeated twice
        [h(3, 1, 0, 0, 0), h(3, 0, 1, 0, 0), h(3, 1, 0, 0, 0), h(3, 0, 0, 1, 0),
         h(3, 2, 0, 0, 0)],
        # a chain point < line < plane, an affine line in an affine plane,
        # and a duplicate of a pruned component
        [h(3, 0, 0, 1, 0), sub(3, [0, 0, 1, 0], [0, 1, 0, 0]),
         sub(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]), h(3, 1, 0, 0, -1),
         sub(3, [1, 0, 0, -1], [0, 1, 0, 2]), sub(3, [0, 1, 0, 0], [0, 0, 1, 0])],
        # a point contained in later components only, and a duplicate of a
        # kept component after it
        [sub(2, [1, 0, 0], [0, 1, 0]), h(2, 1, 1, 0), h(2, 1, -1, 0), h(2, 1, 1, 0)],
        # parallel lines of C^2 and parallel planes of C^3 with a line
        [h(2, 1, 0, 0), h(2, 1, 0, -1), h(2, 1, 0, -2), h(2, 0, 1, 0), h(2, 1, -1, 3)],
        [h(3, 0, 0, 1, 0), h(3, 0, 0, 1, -1), h(3, 0, 0, 2, 1), sub(3, [1, 0, 0, 0], [0, 1, 0, 0]),
         sub(3, [1, 0, 0, -1], [0, 1, 0, 0])],
        # z = 0 meets the lines x = y = 0, (x, y) = (z, z) and (2z, -z) in
        # the origin alone: three components, one cut
        [h(3, 0, 0, 1, 0), sub(3, [1, 0, 0, 0], [0, 1, 0, 0]), sub(3, [1, 0, -1, 0], [0, 1, -1, 0]),
         sub(3, [1, 0, -2, 0], [0, 1, 1, 0])],
        affine_planes(),
        k_equal_arrangement(5, 3),
    ]


def homology_path_table(lattice):
    """The Cech-de Rham table with every interval ranked through its complex,
    the former complex and the former top-down ranking."""
    d = max(f.dim for f in lattice.proper_flats())
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    for flat, complex_ in reference_interval_complexes(lattice, lattice.proper_flats()):
        betti = reference_topdown_betti(complex_)
        for k in range(-1, betti.max_degree() + 1):
            rows[flat.dim][flat.dim + 1 + k] += betti[k]
    return rows


def pairwise_inclusion_order(lattice):
    """Reference order: a rank test for every ordered pair of distinct flats."""
    return {
        (a.id, b.id)
        for a in lattice.flats
        for b in lattice.flats
        if a.id != b.id and a.subspace != b.subspace and reference_contained(a.subspace, b.subspace)
    }


def qmatrix_betti(k):
    """Reference reduced Betti numbers from QMatrix boundary ranks over Q."""
    d = k.dim()
    if d <= -2:
        return BettiVector([1])
    ranks = {deg: boundary_matrix(k, deg).rank() for deg in range(d + 1)}
    ranks[-1] = ranks[d + 1] = 0
    counts = {deg: len(k.faces[deg + 1]) for deg in range(d + 1)}
    counts[-1] = 1
    return BettiVector(counts[deg] - ranks[deg] - ranks[deg + 1] for deg in range(-1, d + 1))


def torus_reduced_betti(k, n):
    """Kuenneth oracle: reduced Betti numbers of (C*)^k x C^(n-k), degree-indexed."""
    betti = [0] * (2 * n)
    for j in range(k + 1):
        betti[j] += comb(k, j)
    betti[0] -= 1
    return betti


class TestAffineSubspace:
    def test_dim_and_canonical_equality(self):
        a = AffineSubspace.from_rows(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = AffineSubspace.from_rows(3, [[1, 1, 0, 0], [2, 1, 0, 0]])
        assert a.dim == 1
        assert a == b  # same line, different presentations

    def test_inconsistent_system(self):
        with pytest.raises(InputError):
            AffineSubspace.from_rows(2, [[1, 0, 0], [1, 0, 1]])

    def test_containment(self):
        """The line lies in the plane, not the other way round: the reference
        rank test says so, and `build_lattice` prunes the line, in either order."""
        plane = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        line = AffineSubspace.from_rows(3, [[0, 0, 1, 0], [1, 0, 0, 0]])
        assert reference_contained(line, plane)
        assert not reference_contained(plane, line)
        for comps in ([line, plane], [plane, line]):
            with pytest.warns(InputWarning, match="contained in another component"):
                lattice = build_lattice(comps)
            assert [f.subspace for f in lattice.flats] == [plane, AffineSubspace.ambient(3)]

    def test_intersect_empty(self):
        """Parallel lines do not meet: the lattice has no flat below them."""
        a = AffineSubspace.from_rows(2, [[0, 1, 0]])
        b = AffineSubspace.from_rows(2, [[0, 1, -1]])  # parallel line y = 1
        assert reference_meet_rows(a, b) is None
        lattice = build_lattice([a, b])
        assert [f.dim for f in lattice.flats] == [1, 1, 2]
        assert lattice.masks == (2, 1, 0)

    def test_linear(self):
        assert coordinate_hyperplane(3, 0).is_linear()
        assert not AffineSubspace.from_rows(2, [[1, 0, 5]]).is_linear()


def reference_canonical(n, rows):
    """Nonzero rows of the Fraction rref of a system, or None when it has
    no solution: the canonical form before the integer kernel."""
    red = tuple(tuple(r) for r in reference_rref(rows, n + 1) if any(r))
    if red and not any(red[-1][:-1]):
        return None
    return red


def random_presentation_pairs(seed, count):
    """Seeded (n, rows_a, rows_b) with rational entries, where b is often a
    re-presentation of a, a subspace of it, or one meeting it."""
    rng = random.Random(seed)
    entry = lambda: rng.choice((0, rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        rows_a = [[entry() for _ in range(n + 1)] for _ in range(rng.randint(1, n))]
        kind = rng.randrange(4)
        if kind == 0:  # the same system, presented by random combinations
            rows_b = [[sum(rng.randint(-2, 2) * r[j] for r in rows_a) for j in range(n + 1)]
                      for _ in range(len(rows_a) + 1)] + rows_a[:1]
        elif kind == 1:  # one more equation
            rows_b = rows_a + [[entry() for _ in range(n + 1)]]
        else:
            rows_b = [[entry() for _ in range(n + 1)] for _ in range(rng.randint(1, n))]
        if rng.random() < 0.5:
            rows_a, rows_b = rows_b, rows_a
        if reference_canonical(n, rows_a) is None or reference_canonical(n, rows_b) is None:
            continue
        out.append((n, rows_a, rows_b))
    return out


def qmatrix_canonical(n, rows):
    """Canonical rows by way of the QMatrix parse, the former constructor path."""
    return _cut(QMatrix(rows, ncols=n + 1).scale_rows_to_int(), n + 1)


class TestFromRows:
    """Rows parsed entry by entry against the QMatrix path they replace."""

    def test_int_fraction_string_and_mixed_rows(self):
        rng = random.Random(99)
        for n, rows, _ in random_presentation_pairs(77, 100):
            ints = [[x * 12 for x in row] for row in rows]  # every denominator divides 12
            assert all(Fraction(x).denominator == 1 for row in ints for x in row)
            ints = [[int(x) for x in row] for row in ints]
            assert qmatrix_canonical(n, ints) == qmatrix_canonical(n, rows)
            for spelled in (
                ints,
                [[Fraction(x) for x in row] for row in rows],
                [[str(Fraction(x)) for x in row] for row in rows],
                [[rng.choice((x, Fraction(x), str(Fraction(x)))) for x in row] for row in rows],
            ):
                assert AffineSubspace.from_rows(n, spelled).rows == qmatrix_canonical(n, spelled)

    @pytest.mark.parametrize("rows", [
        [[1, 0.5, 0]],
        [[1, True, 0]],
        [[1, "1.5", 0]],
        [[1, "x", 0]],
        [[1, "1/0", 0]],
        [[1, 0]],
        [[1, 0, 0, 0]],
        [[1, 0, 0], [1, 0]],
        [[1, 0, 0], [1, 0, 1]],
    ], ids=["float", "bool", "decimal", "word", "zero-denominator", "short", "long",
            "ragged", "inconsistent"])
    def test_rejects(self, rows):
        with pytest.raises(InputError):
            AffineSubspace.from_rows(2, rows)

    @pytest.mark.parametrize("n", [0, -1, "2", True, None, 2.0])
    def test_ambient_dim_must_be_a_positive_integer(self, n):
        for make in (lambda: AffineSubspace.from_rows(n, [[1, 0, 0]]),
                     lambda: AffineSubspace.ambient(n)):
            with pytest.raises(InputError) as err:
                make()
            assert str(err.value) == f"ambient_dim must be a positive integer, got {n!r}"

    def test_width_message(self):
        # the text the arrangement file reader shows after the subspace's label
        with pytest.raises(InputError) as err:
            AffineSubspace.from_rows(2, [[1, 0, 0], [1, 0]])
        assert str(err.value) == (
            "every equation row needs exactly 3 entries (coefficients then constant)"
        )

    def test_ambient(self):
        top = AffineSubspace.ambient(3)
        assert top.rows == () and top.dim == 3
        assert top == AffineSubspace.from_rows(3, [])


class TestAffineSubspaceAgainstReference:
    """Integer canonical rows against the Fraction rref they replace."""

    def test_random_pairs(self):
        kinds = {"equal": 0, "contained": 0, "empty": 0}
        by_ambient = {}  # n -> {subspace: (dim, Fraction rref rows)}
        for n, rows_a, rows_b in random_presentation_pairs(1234, 400):
            a, b = AffineSubspace.from_rows(n, rows_a), AffineSubspace.from_rows(n, rows_b)
            ref_a, ref_b = reference_canonical(n, rows_a), reference_canonical(n, rows_b)
            for sub, ref in ((a, ref_a), (b, ref_b)):
                assert tuple(map(tuple, sub.rref_rows())) == ref
                assert sub.dim == n - len(ref)
                by_ambient.setdefault(n, {})[sub] = (sub.dim, ref)
            assert (a == b) == (ref_a == ref_b)
            if a == b:
                assert hash(a) == hash(b)
                kinds["equal"] += 1
            # the stacked rows: the two test-side reductions agree, and the
            # constructor gives their canonical form or refuses them
            meet = reference_meet_rows(a, b)
            ref_meet = reference_canonical(n, rows_a + rows_b)
            if ref_meet is None:
                assert meet is None
                with pytest.raises(InputError):
                    AffineSubspace.from_rows(n, rows_a + rows_b)
                kinds["empty"] += 1
            else:
                joined = AffineSubspace.from_rows(n, rows_a + rows_b)
                assert joined.rows == meet
                assert tuple(map(tuple, joined.rref_rows())) == ref_meet
            stacked = sum(1 for r in reference_rref(list(ref_a) + list(ref_b), n + 1) if any(r))
            assert reference_contained(a, b) == (stacked == len(ref_a))
            kinds["contained"] += reference_contained(a, b)
        assert min(kinds.values()) >= 20
        # the integer sort key orders flats exactly as the Fraction rref does
        rng = random.Random(4321)
        assert sum(map(len, by_ambient.values())) >= 500
        for subspaces in by_ambient.values():
            shuffled = list(subspaces)
            rng.shuffle(shuffled)
            expected = sorted(shuffled, key=subspaces.__getitem__)
            assert reference_sorted_by_rref(shuffled) == expected
            pairs = {s.rows: tuple(_pivots(s.rows)) for s in shuffled}
            assert _rref_order(pairs) == [s.rows for s in expected]


class TestBuildLattice:
    def test_two_coordinate_lines(self):
        comps = [
            AffineSubspace.from_rows(2, [[1, 0, 0]]),
            AffineSubspace.from_rows(2, [[0, 1, 0]]),
        ]
        lattice = build_lattice(comps)
        assert len(lattice.flats) == 4
        assert sorted(f.dim for f in lattice.flats) == [0, 1, 1, 2]

    def test_single_hyperplane(self):
        lattice = build_lattice([coordinate_hyperplane(4, 0)])
        assert len(lattice.flats) == 2

    def test_three_generic_planes(self):
        # oracle: pairwise rref intersections done by hand give three distinct
        # lines plus the origin, so 8 flats with ambient on top
        comps = [
            AffineSubspace.from_rows(3, [[1, 0, 0, 0]]),
            AffineSubspace.from_rows(3, [[0, 1, 0, 0]]),
            AffineSubspace.from_rows(3, [[1, 1, 1, 0]]),
        ]
        lattice = build_lattice(comps)
        assert len(lattice.flats) == 8
        assert sorted(f.dim for f in lattice.flats) == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_contained_component_pruned_with_warning(self):
        plane = coordinate_hyperplane(3, 2)
        line = AffineSubspace.from_rows(3, [[0, 0, 1, 0], [0, 1, 0, 0]])
        with pytest.warns(InputWarning):
            lattice = build_lattice([plane, line])
        assert lattice.flats == build_lattice([plane]).flats

    def test_duplicate_component_warning(self):
        with pytest.warns(InputWarning):
            lattice = build_lattice([coordinate_hyperplane(2, 0), coordinate_hyperplane(2, 0)])
        assert len(lattice.flats) == 2

    def test_mixed_ambient_dims(self):
        with pytest.raises(InputError):
            build_lattice([coordinate_hyperplane(2, 0), coordinate_hyperplane(3, 0)])

    def test_empty(self):
        with pytest.raises(InputError):
            build_lattice([])

    def test_maximal_proper_flats_are_components(self):
        comps = [coordinate_hyperplane(3, i) for i in range(3)]
        lattice = build_lattice(comps)
        maxima = lattice.maximal_proper_flats()
        assert sorted(f.dim for f in maxima) == [2, 2, 2]


class TestCdrTable:
    def test_single_subspace_all_codims(self):
        for n, d in ((3, 1), (5, 2), (4, 0)):
            rows = [[1 if j == i else 0 for j in range(n)] + [0] for i in range(n - d)]
            sub = AffineSubspace.from_rows(n, rows)
            table = cdr_table(build_lattice([sub]))
            assert table.d == d
            expected = [[0] * (d + 1) for _ in range(d + 1)]
            expected[d][d] = 1
            assert [list(r) for r in table.entries] == expected

    def test_two_coordinate_lines(self):
        comps = [
            AffineSubspace.from_rows(2, [[1, 0, 0]]),
            AffineSubspace.from_rows(2, [[0, 1, 0]]),
        ]
        table = cdr_table(build_lattice(comps))
        assert table.entries == ((0, 1), (0, 2))
        # oracle: (C*)^2 has reduced Betti (2, 1) in degrees 1, 2
        assert complement_betti(table, 2) == torus_reduced_betti(2, 2)

    def test_boolean_three_hyperplanes(self):
        comps = [coordinate_hyperplane(3, i) for i in range(3)]
        table = cdr_table(build_lattice(comps))
        assert table.entry(2, 2) == 3
        assert table.entry(1, 2) == 3
        assert table.entry(0, 2) == 1
        assert sum(table.entry(p, q) for p, q in table.cells()) == 7
        assert complement_betti(table, 3) == torus_reduced_betti(3, 3)

    def test_single_hyperplane_betti(self):
        for n in (2, 3, 5):
            table = cdr_table(build_lattice([coordinate_hyperplane(n, 0)]))
            betti = complement_betti(table, n)
            assert betti[1] == 1 and sum(betti) == 1

    def test_mixed_dimension_line_and_plane(self):
        plane = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        line = coordinate_line(3, 2)  # the z-axis, meeting the plane z=0 at 0 only
        table = cdr_table(build_lattice([plane, line]))
        assert table.entry(2, 2) == 1  # the plane
        assert table.entry(1, 1) == 1  # the line, maximal itself
        assert table.entry(0, 1) == 1  # their crossing point
        assert complement_betti(table, 3) == [0, 1, 0, 1, 1, 0]

    def test_only_flats_below_a_non_hyperplane_are_ranked(self, monkeypatch):
        ranked = []

        def counted(faces):
            ranked.append(faces)
            return _face_betti(faces)

        monkeypatch.setattr(arrangements, "_face_betti", counted)
        table = cdr_table(build_lattice(braid_arrangement(5)))
        assert [r[-1] for r in table.entries] == [0, 24, 50, 35, 10]
        assert ranked == []
        plane = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        lattice = build_lattice([plane, coordinate_line(3, 2)])
        cdr_table(lattice)
        # the plane gets mu and the line, a component, b~_{-1} = 1 directly
        point = lattice.flats[0]
        assert point.dim == 0
        assert ranked == [faces for _, faces in _interval_complexes(lattice, [point])]
        [(_, complex_)] = reference_interval_complexes(lattice, [point])
        assert _face_betti(ranked[0]) == reference_topdown_betti(complex_)

    def test_non_central_parallel_and_crossing_lines(self):
        # x=0, x=1, y=0: two crossing points, one parallel pair.
        # oracle: b1 of a line-arrangement complement equals the number of
        # lines; b2 then follows from chi(U) = chi(C^2) - chi(Y) = 1 - 1 = 0
        comps = [
            AffineSubspace.from_rows(2, [[1, 0, 0]]),
            AffineSubspace.from_rows(2, [[1, 0, -1]]),
            AffineSubspace.from_rows(2, [[0, 1, 0]]),
        ]
        table = cdr_table(build_lattice(comps))
        assert table.entries == ((0, 2), (0, 3))
        assert complement_betti(table, 2) == [0, 3, 2, 0]

    def test_triangularity_and_diagonal_fuzz(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            central = rng.random() < 0.5
            comps = [random_subspace(rng, n, central) for _ in range(rng.randint(1, 4))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputWarning)
                lattice = build_lattice(comps)
            table = cdr_table(lattice)
            for p, q in table.cells():
                if p > q:
                    assert table.entry(p, q) == 0
            maxima = lattice.maximal_proper_flats()
            for p in range(table.d + 1):
                assert table.entry(p, p) == sum(1 for f in maxima if f.dim == p)


class TestAgainstReferencePaths:
    """The mask order and the per-flat complexes against the paths they replace."""

    def corpus(self, rng):
        lattices = random_mixed_arrangements(rng, 60)
        for n in (2, 3, 4, 5):
            lattices.append(build_lattice([coordinate_hyperplane(n, i) for i in range(n)]))
        for n in (3, 4, 5):
            lattices.append(build_lattice(braid_arrangement(n)))
        return lattices

    def test_order_matches_pairwise_inclusion(self, rng):
        for lattice in self.corpus(rng):
            assert lattice.poset.less == pairwise_inclusion_order(lattice)

    def test_masks_are_the_containing_components(self, rng):
        for lattice in random_mixed_arrangements(rng, 30):
            # each component's own mask is its single bit
            bits = {lattice.masks[f.id]: f.subspace for f in lattice.maximal_proper_flats()}
            assert all(bit.bit_count() == 1 for bit in bits)
            for flat in lattice.flats:
                expected = sum(bit for bit, c in bits.items()
                               if reference_contained(flat.subspace, c))
                assert lattice.masks[flat.id] == expected

    def test_interval_betti_matches_order_complex(self, rng):
        for lattice in self.corpus(rng):
            for flat, faces in _interval_complexes(lattice, lattice.proper_flats()):
                reference = reference_order_complex(lattice.poset, flat.id, lattice.top_id)
                assert _face_betti(faces) == qmatrix_betti(reference)

    def test_chains_match_order_complex(self, rng):
        # every proper flat, whichever complex _interval_complexes picks for it
        lattices = self.corpus(rng) + [build_lattice(k_equal_arrangement(6, 3))]
        lattices += [build_lattice(pencil_arrangement(k)) for k in (2, 5, 20)]
        for lattice in lattices:
            top = lattice.top_id
            above = [_bits(up & ((1 << top) - 1)) for up in lattice.up[:top]]
            poset = lattice.poset
            for flat in lattice.proper_flats():
                expected = reference_order_complex(poset, flat.id, top)
                chains = _chains_above(above, flat.id)
                assert len(set(chains)) == len(chains)  # each chain once
                assert SimplicialComplex(above[flat.id], map(_bits, chains)) == expected
                assert order_complex(poset, flat.id, top) == expected

    def test_both_complexes_are_used(self):
        # faces at the bottom point, the empty face included.  Boolean n=4:
        # the crosscut has the 2^4 - 1 proper subsets of the hyperplanes, the
        # order complex 74 chains plus the empty one.  Pencil k=5: the crosscut
        # has 2^k + k + 1 = 38 faces, the order complex 5k + 3 = 28.  The
        # bitmask faces are the former complexes' nonempty simplices.
        for lattice, most in [
            (build_lattice([coordinate_hyperplane(4, i) for i in range(4)]), 2**4 - 1),
            (build_lattice(pencil_arrangement(5)), 5 * 5 + 3),
        ]:
            flats = lattice.proper_flats()
            pairs = list(_interval_complexes(lattice, flats))
            assert max(len(faces) + 1 for _, faces in pairs) == most
            for (flat, faces), (same, complex_) in zip(
                    pairs, reference_interval_complexes(lattice, flats), strict=True):
                assert flat is same and len(set(faces)) == len(faces)
                simplices = {frozenset(_bits(face)) for face in faces} | {frozenset()}
                assert simplices == complex_.simplices | {frozenset()}

    def test_pencil_of_planes(self):
        # the crosscut at the point has 2^k + k + 1 faces, so this stalls
        # unless the point gets its order complex
        k = 20
        table = cdr_table(build_lattice(pencil_arrangement(k)))
        assert [list(r) for r in table.entries] == [
            [0, 0, k - 1],
            [0, 0, 2 * k - 1],
            [0, 0, k + 1],
        ]

    def test_hall_rows(self, rng):
        # Hall: the reduced Euler characteristic of (F, ambient) is mu(F, ambient),
        # so each row's alternating sum is the sum of mu over the flats of that
        # dimension; mu comes from the order alone
        for lattice in random_mixed_arrangements(rng, 60):
            table = cdr_table(lattice)
            less = lattice.poset.less
            mu = {lattice.top_id: 1}
            for flat in sorted(lattice.proper_flats(), key=lambda f: -f.dim):
                mu[flat.id] = -sum(m for g, m in mu.items() if (flat.id, g) in less)
            for p in range(table.d + 1):
                alternating = sum(
                    (-1) ** (q - p - 1) * table.entry(p, q) for q in range(table.d + 1)
                )
                assert alternating == sum(
                    mu[f.id] for f in lattice.proper_flats() if f.dim == p
                )


class TestBuildLatticeAgainstReference:
    """Containment-first meets, the integer sort and the up-sets against
    the former pair-list builder, reference_build_lattice."""

    def corpus(self):
        rng = random.Random(6060)
        comps = random_mixed_components(rng, 80) + random_hyperplane_components(rng, 40)
        comps += [[coordinate_hyperplane(n, i) for i in range(n)] for n in (2, 3, 4)]
        comps += [braid_arrangement(n) for n in (3, 4, 5)]
        comps += [pencil_arrangement(k) for k in (2, 5)]
        return comps + pruning_and_cut_components()

    def test_flats_masks_and_order(self):
        affine = 0
        warned = set()
        for comps in self.corpus():
            lattice, texts = recorded_warnings(build_lattice, comps)
            kept, expected = recorded_warnings(reference_normalize_components, comps)
            assert texts == expected
            warned.update(text.split()[0] for text in texts)
            assert lattice.maximal_proper_flats() == tuple(
                f for f in lattice.flats if f.subspace in kept
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputWarning)
                subspaces, masks, poset = reference_build_lattice(comps)
            assert [f.subspace for f in lattice.flats] == subspaces
            assert [f.id for f in lattice.flats] == list(range(len(subspaces)))
            assert list(lattice.masks) == masks
            assert lattice.poset.less == poset.less
            for i, up in enumerate(lattice.up):
                assert up == sum(1 << b for a, b in poset.less if a == i)
            affine += not all(s.is_linear() for s in subspaces)
        assert affine >= 30
        assert warned == {"duplicate", "component"}

    def test_lyubeznik_dim2_prunes_alike(self):
        for comps in self.corpus():
            comps = [c for c in comps if c.is_linear() and c.dim <= 2]
            if comps:
                _, texts = recorded_warnings(lyubeznik_dim2, comps)
                assert texts == recorded_warnings(reference_normalize_components, comps)[1]

    def test_moebius_cells_match_interval_homology(self):
        # Folkman: for a hyperplane-type flat F, both complexes of (F, ambient)
        # have reduced homology |mu(F, ambient)| in degree codim F - 2 only
        checked = 0
        for comps in self.corpus():
            lattice = quiet_lattice(comps)
            n, top = lattice.ambient_dim, lattice.top_id
            hyperplanes = sum(
                lattice.masks[f.id] for f in lattice.maximal_proper_flats() if f.dim == n - 1
            )
            assert _hyperplane_components(lattice) == hyperplanes
            if not hyperplanes:
                continue
            mu = _moebius(lattice)
            poset = lattice.poset
            for flat in lattice.proper_flats():
                if lattice.masks[flat.id] & ~hyperplanes:
                    continue
                above = [g for g in range(top) if (flat.id, g) in poset.less]
                union = 0
                for g in above:
                    union |= lattice.masks[g]
                bits = lambda m: [j for j in range(m.bit_length()) if m >> j & 1]
                crosscut = SimplicialComplex(bits(union), [bits(lattice.masks[g]) for g in above])
                chains = order_complex(poset, flat.id, top)
                codim = n - flat.dim
                expected = BettiVector([0] * (codim - 1) + [abs(mu[flat.id])])
                assert reduced_betti(crosscut) == expected
                assert qmatrix_betti(chains) == expected
                checked += 1
        assert checked >= 500

    def test_crosscut_vertices_are_the_flats_own_mask(self):
        # _interval_complexes takes F's mask as the crosscut's vertex set:
        # below a proper flat, it is the union of the masks above F, and a
        # flat with no proper flat above it is a component
        checked = 0
        for comps in self.corpus():
            lattice = quiet_lattice(comps)
            components = lattice.maximal_proper_flats()
            for flat in lattice.proper_flats():
                above = _bits(lattice.up[flat.id] & ~(1 << lattice.top_id))
                union = 0
                for g in above:
                    union |= lattice.masks[g]
                if above:
                    assert union == lattice.masks[flat.id]
                    checked += 1
                else:
                    assert flat in components
                for _, faces in _interval_complexes(lattice, [flat]):
                    vertices = 0
                    for face in faces:
                        vertices |= face
                    assert _bits(vertices) in (_bits(union), above)
                for _, complex_ in reference_interval_complexes(lattice, [flat]):
                    assert sorted(complex_.vertices) == _bits(vertices)
        assert checked >= 500

    def test_table_matches_homology_path(self):
        for comps in self.corpus():
            lattice = quiet_lattice(comps)
            assert [list(r) for r in cdr_table(lattice).entries] == homology_path_table(lattice)


def ranks_an_interval(lattice):
    """Whether `cdr_table` ranks a complex: a proper flat below a component
    that is not a hyperplane, with a proper flat above it."""
    hyperplanes, top = _hyperplane_components(lattice), 1 << lattice.top_id
    return any(lattice.masks[f.id] & ~hyperplanes and lattice.up[f.id] != top
               for f in lattice.proper_flats())


def workload_arrangements(seeds):
    """The component lists of every arrangements job of the benchmark."""
    workloads = bench_workloads()
    return [parse_arrangement(job["doc"])[1]
            for seed in seeds for job in workloads.arrangement_jobs(seed)]


class TestCarriedPivotsAgainstReference:
    """`_lattice`, `_rref_order`, `_moebius` and `cdr_table` against the
    bodies they replace: pivots read again on each pop, every component
    reduced, every cut eliminated, every component ranked."""

    def assert_same(self, comps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InputWarning)
            comps = _normalize_components(comps)
        lattice, reference = _lattice(comps), reference_lattice(comps)
        assert lattice.flats == reference.flats  # each flat's rows, in order
        assert lattice.masks == reference.masks
        assert lattice.up == reference.up
        assert _moebius(lattice) == reference_moebius(reference)
        assert cdr_table(lattice) == reference_cdr_table(reference)
        return lattice

    def test_workload_inputs(self):
        corpus = workload_arrangements((0, 1, 2))
        assert len(corpus) == 3 * 112
        for comps in corpus:
            self.assert_same(comps)

    def test_random_arrangements(self, monkeypatch):
        rng = random.Random(3636)
        corpus = random_mixed_components(rng, 1400) + random_hyperplane_components(rng, 600)
        corpus += pruning_and_cut_components() + random_pencil_components(rng, 60)
        walked = []  # the flats whose interval is ranked on its order complex
        chains_above = arrangements._chains_above
        monkeypatch.setattr(arrangements, "_chains_above",
                            lambda *args: walked.append(args) or chains_above(*args))
        ranked = sum(ranks_an_interval(self.assert_same(comps)) for comps in corpus)
        assert len(corpus) >= 2000 and ranked >= 500 and len(walked) >= 50

    def test_meet_matches_back_substitution(self):
        rng = random.Random(3738)
        met = 0
        for _ in range(5000):
            n = rng.randint(1, 5)
            flat, other = random_subspace(rng, n, rng.random() < 0.5), random_subspace(rng, n)
            pivots = _pivots(flat.rows)
            remainders = _remainders(pivots, other.rows)
            cut = _cut(remainders, n + 1) if remainders else None
            if cut:
                assert _meet(pivots, cut) == reference_meet(pivots, cut)
                met += 1
        assert met >= 1000

    def test_cut_matches_echelon_then_reduce(self):
        rng = random.Random(2036)
        kinds = {"empty": 0, "ambient": 0, "cut": 0, "zero rows": 0, "0 = c rows": 0}
        for _ in range(20000):
            ncols = rng.randint(2, 6)
            rows = []
            for _ in range(rng.randint(1, 5)):
                shape = rng.random()
                if shape < 0.1:
                    row = [0] * ncols
                elif shape < 0.2:
                    row = [0] * (ncols - 1) + [rng.choice((-3, -1, 1, 2))]
                else:
                    row = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(ncols)]
                rows.append(row)
            kinds["zero rows"] += any(not any(row) for row in rows)
            kinds["0 = c rows"] += any(row[-1] and not any(row[:-1]) for row in rows)
            cut = _cut(rows, ncols)
            assert cut == reference_cut(rows, ncols), rows
            kinds["empty" if cut is None else "cut" if cut else "ambient"] += 1
        assert min(kinds.values()) >= 1000, kinds


class TestMeetCounts:
    """The meets build_lattice makes, pinned exactly: one back-substitution
    per distinct nonempty cut of a popped flat, none for a component whose
    generating set was met before.  The former builder made 285 on braid
    n=5, 1,875 on braid n=6 and 72 on the affine planes."""

    @pytest.mark.parametrize("build, flats, meets", [
        (lambda: braid_arrangement(5), 52, 115),
        (lambda: braid_arrangement(6), 203, 666),
        (affine_planes, 26, 28),
    ], ids=["braid-5", "braid-6", "affine-planes"])
    def test_meets(self, monkeypatch, build, flats, meets):
        made, cuts = [], []
        meet, cut = arrangements._meet, arrangements._cut
        monkeypatch.setattr(arrangements, "_meet", lambda *args: made.append(args) or meet(*args))
        monkeypatch.setattr(arrangements, "_cut", lambda *args: cuts.append(cut(*args)) or cuts[-1])
        assert len(build_lattice(build()).flats) == flats
        assert len(made) == meets
        if build is affine_planes:
            assert None in cuts  # parallel hyperplanes
            assert sum(c is not None and len(c) == 2 for c in cuts) >= 10

    def test_one_row_cut_is_the_reduced_form(self):
        rng = random.Random(808)
        for _ in range(500):
            n = rng.randint(1, 4)
            row = [rng.choice((0, rng.randint(-6, 6))) for _ in range(n + 1)]
            expected = reference_canonical(n, [row])
            if expected is None:
                assert _cut([row], n + 1) is None
            else:
                cut = AffineSubspace._canonical(n, _cut([row], n + 1))
                assert tuple(map(tuple, cut.rref_rows())) == expected
            assert _cut([row], n + 1) == _cut([row, [0] * (n + 1)], n + 1)


class TestLatticeRemaindersCalls:
    """Remainders `_lattice` computes, pinned exactly: a component is tested
    for containing a flat only with at least two rows fewer, and never for
    a component flat; every other remainder is for a new generating set.
    The former loop, which tested every component with fewer rows, made
    315 on braid n=5 and 112 on the affine planes."""

    @pytest.mark.parametrize("build, calls", [
        (lambda: braid_arrangement(5), 285),
        (affine_planes, 81),
        (lambda: k_equal_arrangement(6, 3), 682),
    ], ids=["braid-5", "affine-planes", "k-equal-6-3"])
    def test_remainders_calls(self, monkeypatch, build, calls):
        comps = _normalize_components(build())
        made = []
        remainders = arrangements._remainders
        monkeypatch.setattr(arrangements, "_remainders",
                            lambda *args: made.append(args) or remainders(*args))
        lattice = _lattice(comps)
        assert len(made) == calls
        assert lattice.masks == reference_lattice(comps).masks


class TestPruningCalls:
    """Containment tests the pruning makes, pinned exactly: after
    deduplication a component can lie only in one of larger dimension, so
    no other pair is reduced.  The former pruning reduced every ordered
    pair up to the first containing component: 90 on braid n=5, 14 on the
    chain arrangement."""

    @pytest.mark.parametrize("build, calls, pruned", [
        (lambda: braid_arrangement(5), 0, 0),
        # a plane z = 0 holding the x-axis and the origin, an affine plane
        # x = 1 holding an affine line, and a duplicate of the x-axis: each
        # contained component is reduced against the larger ones up to the
        # first that holds it (x-axis 1, origin 1, affine line 2)
        (lambda: pruning_and_cut_components()[1], 4, 3),
    ], ids=["braid-5", "chain"])
    def test_remainders_calls(self, monkeypatch, build, calls, pruned):
        made = []
        remainders = arrangements._remainders
        monkeypatch.setattr(arrangements, "_remainders",
                            lambda *args: made.append(args) or remainders(*args))
        kept, texts = recorded_warnings(arrangements._normalize_components, build())
        assert len(made) == calls
        assert sum(text.endswith("pruned") for text in texts) == pruned
        assert kept == recorded_warnings(reference_normalize_components, build())[0]


class TestComplementBetti:
    def test_ambient_dim_too_small(self):
        table = cdr_table(build_lattice([coordinate_hyperplane(3, 0)]))
        with pytest.raises(InputError):
            complement_betti(table, 2)

    @pytest.mark.parametrize("n, echo", [(2.5, "2.5"), ("3", "'3'"), (None, "None"),
                                         (True, "True")])
    def test_non_integer_ambient_dim(self, n, echo):
        table = cdr_table(build_lattice([coordinate_hyperplane(1, 0)]))
        with pytest.raises(InputError) as err:
            complement_betti(table, n)
        assert str(err.value) == f"ambient_dim must be a positive integer, got {echo}"


class TestMoebiusOracle:
    def test_single_hyperplane(self):
        lattice = build_lattice([coordinate_hyperplane(3, 0)])
        assert moebius_betti_oracle(lattice) == [1, 1, 0, 0]

    def test_boolean_binomials(self):
        for n in (2, 3, 4):
            comps = [coordinate_hyperplane(n, i) for i in range(n)]
            lattice = build_lattice(comps)
            assert moebius_betti_oracle(lattice) == [comb(n, k) for k in range(n + 1)]

    def test_three_generic_planes(self):
        # oracle: mu by hand is -1 on planes, +1 on lines, -1 on the origin
        comps = [
            AffineSubspace.from_rows(3, [[1, 0, 0, 0]]),
            AffineSubspace.from_rows(3, [[0, 1, 0, 0]]),
            AffineSubspace.from_rows(3, [[1, 1, 1, 0]]),
        ]
        assert moebius_betti_oracle(build_lattice(comps)) == [1, 3, 3, 1]

    def test_rejects_non_hyperplane(self):
        lattice = build_lattice([coordinate_line(3, 0)])
        with pytest.raises(InputError):
            moebius_betti_oracle(lattice)

    def test_rejects_non_central(self):
        comps = [
            AffineSubspace.from_rows(2, [[0, 1, 0]]),
            AffineSubspace.from_rows(2, [[0, 1, -1]]),  # parallel
        ]
        with pytest.raises(InputError):
            moebius_betti_oracle(build_lattice(comps))

    def test_oracle_agreement_random_central(self, rng):
        for _ in range(25):
            n = rng.choice([3, 4])
            comps = [random_hyperplane(rng, n) for _ in range(rng.randint(1, 6))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputWarning)
                lattice = build_lattice(comps)
            table = cdr_table(lattice)
            reduced = complement_betti(table, n)
            assert reduced[0] == 0
            unreduced = [1] + reduced[1:]
            oracle = moebius_betti_oracle(lattice)
            size = max(len(unreduced), len(oracle))
            assert unreduced + [0] * (size - len(unreduced)) == oracle + [0] * (size - len(oracle))


class TestLyubeznikDim2:
    def test_single_plane(self):
        plane = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        table = lyubeznik_dim2([plane])
        assert table.entry(2, 2) == 1
        assert sum(table.entry(p, q) for p, q in table.cells()) == 1

    def test_two_planes_meeting_at_origin(self):
        p1 = AffineSubspace.from_rows(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        p2 = AffineSubspace.from_rows(4, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
        # oracle: the intersection has dimension 0, so the graph is disconnected
        assert reference_meet_dim(p1, p2) == 0
        table = lyubeznik_dim2([p1, p2])
        assert table.entry(0, 1) == 1
        assert table.entry(2, 2) == 2
        assert euler_sum(table) == 1

    def test_two_planes_meeting_in_line(self):
        p1 = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        p2 = AffineSubspace.from_rows(3, [[0, 1, 0, 0]])
        assert reference_meet_dim(p1, p2) == 1
        table = lyubeznik_dim2([p1, p2])
        assert table.entry(2, 2) == 1
        assert table.entry(0, 1) == 0

    def test_dim0_and_dim1(self):
        origin = AffineSubspace.from_rows(2, [[1, 0, 0], [0, 1, 0]])
        assert lyubeznik_dim2([origin]).entries == ((1,),)
        line = coordinate_line(3, 2)
        assert lyubeznik_dim2([line]).entries == ((0, 0), (0, 1))

    def test_lines_ignored_in_dim2_count(self):
        plane = AffineSubspace.from_rows(3, [[0, 0, 1, 0]])
        line = AffineSubspace.from_rows(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        table = lyubeznik_dim2([plane, line])
        assert table.entry(2, 2) == 1 and table.entry(0, 1) == 0

    def test_non_central_rejected(self):
        shifted = AffineSubspace.from_rows(3, [[0, 0, 1, -1]])
        with pytest.raises(InputError):
            lyubeznik_dim2([shifted])

    def test_dim3_rejected(self):
        hyper = coordinate_hyperplane(4, 0)
        with pytest.raises(InputError):
            lyubeznik_dim2([hyper])

    def test_euler_sum_always_one(self, rng):
        for _ in range(15):
            n = rng.randint(3, 5)
            comps = []
            for _ in range(rng.randint(1, 3)):
                sub = random_subspace(rng, n)
                if sub.dim <= 2:
                    comps.append(sub)
            if not comps:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputWarning)
                table = lyubeznik_dim2(comps)
            assert euler_sum(table) == 1

    def test_against_pairwise_reference(self):
        # planes and lines through the origin with entries in {-1, 0, 1}, so
        # that planes often share a line; some components are repeated, and
        # some lines lie in planes, so both warnings fire
        rng = random.Random(3434)

        def central(n, dim):
            while True:
                rows = [[rng.randint(-1, 1) for _ in range(n)] + [0] for _ in range(n - dim)]
                if any(any(row) for row in rows):
                    s = AffineSubspace.from_rows(n, rows)
                    if s.dim == dim:
                        return s

        # "joined": a = 1 over at least two planes
        counts = {"joined": 0, "a >= 2": 0, "warned": 0}
        for _ in range(300):
            n = rng.randint(3, 5)
            comps = []
            for _ in range(rng.randint(1, 6)):
                planes = [c for c in comps if c.dim == 2]
                draw = rng.random()
                if comps and draw < 0.15:
                    comps.append(rng.choice(comps))
                elif planes and draw < 0.3:
                    plane = rng.choice(planes)
                    row = [rng.randint(-1, 1) for _ in range(n)] + [0]
                    line = AffineSubspace.from_rows(n, list(plane.rows) + [row])
                    comps.append(line if line.dim == 1 else plane)
                else:
                    comps.append(central(n, rng.choice((1, 2, 2))))
            table, texts = recorded_warnings(lyubeznik_dim2, comps)
            expected, expected_texts = recorded_warnings(reference_lyubeznik_dim2, comps)
            assert table == expected, comps
            assert texts == expected_texts
            counts["warned"] += bool(texts)
            planes = len({c for c in comps if c.dim == 2})
            if table.d == 2 and table.entry(2, 2) >= 2:
                counts["a >= 2"] += 1
            elif table.d == 2 and planes >= 2:
                counts["joined"] += 1
        assert counts["joined"] >= 60 and counts["a >= 2"] >= 75 and counts["warned"] >= 150, counts

    def test_refusals_build_no_lattice(self, monkeypatch):
        # the boolean arrangement of 16 hyperplanes would need 2^32 bits of
        # up-sets; it is refused by its dimension before any lattice exists
        def no_lattice(comps):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(arrangements, "_lattice", no_lattice)
        with pytest.raises(InputError, match="dimension > 2"):
            lyubeznik_dim2([coordinate_hyperplane(16, i) for i in range(16)])
        with pytest.raises(InputError, match="central"):
            lyubeznik_dim2([AffineSubspace.from_rows(3, [[0, 0, 1, -1]])])
        assert lyubeznik_dim2([coordinate_line(3, 0), coordinate_line(3, 1)]).d == 1

    def test_a_counts_groups_joined_through_a_line(self):
        # two planes of C^4 meeting only at the origin are two groups; a
        # third plane meeting each of them in a line joins all three
        p1 = sub(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        p2 = sub(4, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])
        p3 = sub(4, [1, -1, 0, 0, 0], [0, 0, 1, 1, 0])
        assert lyubeznik_dim2([p1, p2]).entry(2, 2) == 2
        assert lyubeznik_dim2([p1, p2, p3]).entry(2, 2) == 1
        assert lyubeznik_dim2([p1, p3, p2]).entry(2, 2) == 1
