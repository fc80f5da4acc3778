"""Complex subspace arrangements: intersection lattices and invariant tables.

An arrangement is a finite set of affine subspaces of C^n, each given by an
exact rational linear system and stored as primitive integer reduced rows.
The intersection lattice orders all nonempty intersections by inclusion,
with the ambient space as unique top element.

Flats are found by meeting each flat, with the pivots its meet returned,
with each component.  One `_cut` per (flat, component) pair folds the
component's rows against the flat's pivots by `qlinalg._reduced`, stopping
at the first row that reads 0 = c.  An empty cut means the component
contains the flat: it goes into the flat's component bitmask, and nothing is
met.  Otherwise the cut, the reduced form of the remainders, fixes the meet:
components with the same cut give the same meet, made once by clearing the
flat's rows at the cut's pivots with `qlinalg._substitute` and adding the
cut's rows as they are.  The rational rref comes from `qlinalg._rref`, so
this module keeps no elimination loop and builds no Fraction.  A flat is the
meet of the components in its mask, so a component whose generating set
(the mask plus that component) has been met before is skipped.  A meet lies
in the flat's components and in the group's, so that union is a lower bound
on its mask, and those components are not reduced against it again.  Flats
are numbered as they are found, looked up by their rows once per meet, and
listed by dimension, then by rational rref, compared exactly as integer
rows scaled by a common multiple of the pivots of their dimension.

F lies below G exactly when mask(G) is a proper subset of mask(F).  So each
flat's up-set, the flats strictly above it, is a bitset over flat ids: the
AND, over the components not in F's mask, of the flats lacking that
component.  `IntersectionLattice.poset` builds the order as a `FinitePoset`
from the up-sets on demand; it is kept for callers and tests, and no code
in the package reads it.

The Cech-de Rham table is the reduced homology of each open interval
(F, ambient).  When every component containing F is a hyperplane,
[F, ambient] is a geometric lattice and, by Folkman's theorem, that homology
is |mu(F, ambient)| in degree codim F - 2 only, mu from one pass over the
flats above each flat; a component's interval is empty.  Neither needs a
complex.  Every other interval is read off its order complex or its
crosscut complex, whichever has fewer faces, listed as bitmasks straight
from the lattice (the chains over flat ids by `posets._chains_above`, which
`order_complex` shares, the crosscut's faces over component bits from the
masks above F) and ranked by `posets._face_betti`, as sparse coboundary
columns with clearing; no `SimplicialComplex` is built.  The
module also gives the reduced Betti numbers of the complement, a
Moebius-function cross-check for central hyperplane arrangements, and the
closed-form Lyubeznik tables in dimension <= 2, whose one number, the count
of connected groups of planes, is read off the same masks.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from math import lcm

from .errors import InputError, InputWarning, _Frozen, _int
from .posets import FinitePoset, _bits, _chains_above, _face_betti
from .qlinalg import (
    _content_free, _pivots, _reduced, _rref, _scaled_to_int, _substitute, parse_rational,
)
from .tables import (
    KIND_CDR,
    InvariantTable,
    _antidiagonal_sums,
    _require,
    canonical_small_tables,
)


def _cut(pivots, rows, ncols: int) -> list[tuple[int, tuple[int, ...]]] | None:
    """The (pivot column, row) pairs of the primitive reduced form of the
    remainders of the rows `rows` against the (c, reduced row) pairs
    `pivots`, or None once one of them has a pivot in the constant column:
    no point of the flat they reduce against satisfies them all.

    Each row is cleared at `pivots` by `qlinalg._substitute` as the one
    `qlinalg._reduced` fold reads it, so the fold stops at the first 0 = c
    remainder and makes no remainder after it.  The pairs are empty exactly
    when every row reduces to zero: the flat lies in the subspace the rows
    cut out.  Otherwise the cut fixes their meet, so components with the
    same cut meet the flat in one subspace.
    """
    return _reduced((_substitute(row, pivots) for row in rows), stop=ncols - 1)


def _meet(pivots, cut) -> tuple[tuple, list]:
    """Canonical rows, and their (pivot column, row) pairs, of a subspace
    given as the pairs `pivots`, cut by the pairs `cut` of `_cut`.

    The cut's rows are primitive and zero at the old pivot columns, so they
    are taken as they are.  Each old row is cleared at the cut's pivots by
    one `qlinalg._substitute`, which keeps its pivot positive, and has its
    content divided out only when it changed.
    """
    merged = list(cut)
    for c, row in pivots:
        cleared = _substitute(row, cut)
        merged.append((c, row if cleared is row else _content_free(cleared)))
    merged.sort()  # the columns differ, so no two rows are compared
    return tuple([row for _, row in merged]), merged


class AffineSubspace(_Frozen):
    """A nonempty affine subspace of C^n in canonical form.

    Each equation row has n coefficient entries followed by a constant term,
    each an int, a Fraction or a "p/q" string; a point x lies on the subspace
    when coeffs . x + const = 0 for every row.  Each row is scaled to integers
    once.  `rows` is the system's primitive integer reduced echelon form, so
    two values are equal exactly when their rows coincide; `rref_rows()` is
    its rational rref.
    """

    __slots__ = ("ambient_dim", "rows")
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, ambient_dim: int, equations: Iterable[Sequence]):
        width = _int(ambient_dim, "ambient_dim", 1) + 1
        scaled = []
        for row in equations:
            row = [parse_rational(x) for x in row]
            if len(row) != width:
                raise InputError(
                    f"every equation row needs exactly {width} entries (coefficients then constant)"
                )
            scaled.append(_scaled_to_int(row))
        pairs = _reduced(scaled, stop=width - 1)
        if pairs is None:
            raise InputError("inconsistent linear system: no solutions")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple([row for _, row in pairs]))

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "AffineSubspace":
        return cls(ambient_dim, rows)

    @classmethod
    def ambient(cls, ambient_dim: int) -> "AffineSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def _canonical(cls, ambient_dim: int, rows) -> "AffineSubspace":
        """A subspace from rows already in canonical form."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(sub, "rows", rows)
        return sub

    def rref_rows(self) -> list[list]:
        """The rational rref: each primitive row divided by its pivot, as Fractions."""
        return _rref(self.rows)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    def is_linear(self) -> bool:
        """Whether the subspace passes through the origin."""
        return all(row[-1] == 0 for row in self.rows)

    def __repr__(self):
        return f"AffineSubspace(n={self.ambient_dim}, dim={self.dim})"


def _rref_order(rows: Sequence[tuple], pairs: Sequence[list]) -> list[int]:
    """The ids of the flats with rows `rows[i]` and (pivot column, row)
    pairs `pairs[i]`, sorted by dimension, then by rational rref.

    The rref row of a primitive row is the row divided by its pivot, and
    flats of one dimension have as many rows.  Scaled by a common multiple
    of the pivots of such a class, every rref is an integer matrix and the
    order within the class is unchanged, as all scale by the same positive
    constant.
    """
    classes: dict[int, list[int]] = {}
    for i, flat in enumerate(rows):
        classes.setdefault(len(flat), []).append(i)
    order = []
    for size in sorted(classes, reverse=True):
        ids = classes[size]
        scale = lcm(*[row[c] for i in ids for c, row in pairs[i]])
        ids.sort(key=lambda i: [
            row if row[c] == scale else tuple([x * (scale // row[c]) for x in row])
            for c, row in pairs[i]])
        order += ids
    return order


class Flat(_Frozen):
    """An element of the intersection lattice."""

    __slots__ = ("id", "subspace")
    id: int
    subspace: AffineSubspace

    def __init__(self, id: int, subspace: AffineSubspace):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "subspace", subspace)

    @property
    def dim(self) -> int:
        return self.subspace.dim


class IntersectionLattice(_Frozen):
    """All nonempty intersections of the components, ordered by inclusion.

    Flats are listed by dimension, so a flat's id is smaller than the ids of
    the flats above it, and the ambient space comes last.  `masks[i]` is the
    component bitmask of the flat with id i: bit j is set when the j-th
    (normalized) component contains the flat; the ambient space has mask 0.
    `up[i]` is the bitset, over flat ids, of the flats strictly above it.
    Two lattices compare by identity.
    """

    __slots__ = ("ambient_dim", "flats", "top_id", "masks", "up")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    ambient_dim: int
    flats: tuple[Flat, ...]
    top_id: int
    masks: tuple[int, ...]
    up: tuple[int, ...]

    def __init__(self, ambient_dim: int, flats: tuple[Flat, ...], top_id: int,
                 masks: tuple[int, ...], up: tuple[int, ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "top_id", top_id)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "up", up)

    @property
    def poset(self) -> FinitePoset:
        """The inclusion order on flat ids, built from the up-sets on each access."""
        return FinitePoset.from_up_sets([f.id for f in self.flats], self.up)

    def proper_flats(self) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.id != self.top_id)

    def maximal_proper_flats(self) -> tuple[Flat, ...]:
        """Flats covered only by the ambient space: the arrangement components."""
        top = 1 << self.top_id
        return tuple(f for f in self.proper_flats() if self.up[f.id] == top)

    def minimal_flats(self) -> tuple[Flat, ...]:
        above_some = 0
        for up in self.up:
            above_some |= up
        return tuple(f for f in self.flats if not above_some >> f.id & 1)


def _normalize_components(components: Sequence[AffineSubspace]) -> list[AffineSubspace]:
    """Deduplicate and drop components contained in others, with a warning.
    Without duplicates, c can lie in o only when o.dim > c.dim."""
    if not components:
        raise InputError("an arrangement needs at least one component")
    n = components[0].ambient_dim
    for c in components:
        if c.ambient_dim != n:
            raise InputError("components have inconsistent ambient dimensions")
        if c.dim == n:
            raise InputError("a component equal to the ambient space is not allowed")
    unique: list[AffineSubspace] = []
    seen: set[AffineSubspace] = set()
    for i, c in enumerate(components):
        if c in seen:
            warnings.warn(f"duplicate component at position {i} ignored", InputWarning)
        else:
            seen.add(c)
            unique.append(c)
    kept = []
    for c in unique:
        pivots = _pivots(c.rows)
        if any(o.dim > c.dim and not any(any(_substitute(row, pivots)) for row in o.rows)
               for o in unique):
            warnings.warn(
                f"component of dimension {c.dim} is contained in another component; pruned",
                InputWarning,
            )
        else:
            kept.append(c)
    return kept


def build_lattice(components: Sequence[AffineSubspace]) -> IntersectionLattice:
    """All nonempty intersections of the components, ordered by inclusion;
    duplicates and components contained in others are dropped with a warning."""
    return _lattice(_normalize_components(components))


def _lattice(comps: Sequence[AffineSubspace]) -> IntersectionLattice:
    """The intersection lattice of normalized components.

    Flats are numbered as they are found, and their rows, pairs and mask
    bounds kept in lists by that number; the first are the components.  Each
    flat is met with the components only, and carries the pairs its meet
    returned.  Each component outside the mask bound is reduced against it
    by one `_cut`.  A component with at least two rows fewer than the flat
    contains it when its cut is empty.  No other component outside the mask
    bound can: one with no fewer rows that contains it is the flat, and one
    with a single row fewer, C, is in the bound already.  If C is not in the
    mask of a flat F the flat was met from, the meet of C and F lies
    strictly inside C and contains the flat, so it is the flat, and C had
    the cut of the flat's group against F.  A component flat tests nothing,
    as no component lies in another.  Otherwise their cut fixes the meet, so
    the components with one cut are met once, as a group, kept as a bitmask.
    A flat is the intersection of the components in its mask, so a
    component j whose set mask | 1 << j has been met before is neither
    reduced nor met.  A meet lies in the flat's components and in the
    group's: that union bounds its mask from below, and only the components
    outside it are reduced when the meet is visited.
    """
    n = comps[0].ambient_dim
    width = n + 1
    comp_rows = [c.rows for c in comps]
    sizes = [len(rows) for rows in comp_rows]
    count = len(comps)
    flat_rows = list(comp_rows)  # by flat id
    flat_pairs = [_pivots(rows) for rows in comp_rows]
    # the mask bound, made the mask when the flat is popped; a later bound
    # holds components containing the flat, which the mask has already
    masks = [1 << j for j in range(count)]
    index = {rows: i for i, rows in enumerate(flat_rows)}
    met: set[int] = set()
    worklist = list(range(count))
    while worklist:
        i = worklist.pop()
        pivots = flat_pairs[i]
        mask = masks[i]
        cuts = {}
        if mask & (mask - 1):  # not a component, whose mask bound is its own bit
            small = len(flat_rows[i]) - 1
            for j in range(count):
                if not mask >> j & 1 and sizes[j] < small:
                    cut = _cut(pivots, comp_rows[j], width)
                    if cut == []:
                        mask |= 1 << j
                    else:
                        cuts[j] = cut
        masks[i] = mask
        groups: dict[tuple | None, int] = {}  # cut -> its components
        for j in range(count):
            if not mask >> j & 1 and (mask | 1 << j) not in met:
                cut = cuts[j] if j in cuts else _cut(pivots, comp_rows[j], width)
                key = None if cut is None else tuple(cut)
                groups[key] = groups.get(key, 0) | 1 << j
        for cut, group in groups.items():
            rest = group
            while rest:
                low = rest & -rest
                met.add(mask | low)
                rest ^= low
            if cut is None:
                continue
            meet, merged = _meet(pivots, cut)
            k = index.setdefault(meet, len(flat_rows))
            if k == len(flat_rows):
                flat_rows.append(meet)
                flat_pairs.append(merged)
                masks.append(mask | group)
                worklist.append(k)
            else:
                masks[k] |= mask | group
    ordered = _rref_order(flat_rows, flat_pairs)
    flats = [Flat(i, AffineSubspace._canonical(n, flat_rows[k])) for i, k in enumerate(ordered)]
    top = Flat(len(flats), AffineSubspace._canonical(n, ()))
    flats.append(top)
    flat_masks = [masks[k] for k in ordered] + [0]
    everything = (1 << len(flats)) - 1
    lacking = [everything] * count  # flats whose mask lacks component j
    for i, mask in enumerate(flat_masks):
        for j in range(count):
            if mask >> j & 1:
                lacking[j] ^= 1 << i
    up = []
    for i, mask in enumerate(flat_masks):
        above = everything
        for j in range(count):
            if not mask >> j & 1:
                above &= lacking[j]
        up.append(above ^ (1 << i))
    return IntersectionLattice(n, tuple(flats), top.id, tuple(flat_masks), tuple(up))


def _proper_above(lattice: IntersectionLattice) -> list[list[int]]:
    """For each proper flat, by id, the ids of the proper flats above it."""
    proper = (1 << lattice.top_id) - 1
    return [_bits(up & proper) for up in lattice.up[: lattice.top_id]]


def _moebius(lattice: IntersectionLattice, above=None) -> list[int]:
    """mu(F, ambient) for every flat F, indexed by id, given `above`, the
    `_proper_above` lists (built here when not given).

    mu(ambient, ambient) = 1 and mu(F, ambient) is minus the sum of mu over
    the up-set of F; one pass down the ids, as a flat above another has a
    larger id.
    """
    above = _proper_above(lattice) if above is None else above
    mu = [0] * lattice.top_id + [1]
    for i in range(lattice.top_id - 1, -1, -1):
        mu[i] = -1 - sum(mu[g] for g in above[i])
    return mu


def _interval_complexes(lattice: IntersectionLattice, flats: Sequence[Flat], above=None):
    """Yield (flat, faces) for each of the given proper flats F, where the
    faces, bitmasks closed under nonempty subsets, are those of a complex
    homotopy equivalent to the order complex of the open interval
    (F, ambient); `above` as in `_moebius`.

    Two complexes qualify: the order complex itself, with one face per chain
    of proper flats above F, a bitmask over flat ids, and, by the crosscut
    theorem (Rota 1964; Bjorner, Topological Methods, 1995), the crosscut
    complex on the components containing F, whose faces are the component
    sets with meet strictly above F: the nonempty submasks of the masks of
    the proper flats above F.  Neither is small everywhere: on boolean
    arrangements the order complex grows like n! and the crosscut like 2^n,
    on a pencil of planes through a line the crosscut grows like 2^k and the
    order complex linearly.  So each flat gets the one with fewer faces,
    counted exactly before building: chains(G), the chains starting at G,
    and cross(G), the nonempty component sets with meet exactly G, both
    summed over the proper flats G above F.  A flat with no proper flat
    above it is a component, and both complexes are empty.  A mask already
    listed, as a submask of another, has had its submasks listed too, and
    is skipped: taken by id, a flat's mask comes after the larger masks of
    the flats below it.
    """
    if not flats:
        return
    masks = lattice.masks
    above = _proper_above(lattice) if above is None else above
    chains = [0] * lattice.top_id
    cross = [0] * lattice.top_id
    # a flat strictly above another has larger dimension, hence a larger id
    for i in range(lattice.top_id - 1, -1, -1):
        chains[i] = 1 + sum(chains[g] for g in above[i])
        cross[i] = (1 << masks[i].bit_count()) - 1 - sum(cross[g] for g in above[i])
    for f in flats:
        up = above[f.id]
        if sum(cross[g] for g in up) <= sum(chains[g] for g in up):
            faces = set()
            for g in up:
                mask = sub = masks[g]
                if mask not in faces:
                    while sub:
                        faces.add(sub)
                        sub = (sub - 1) & mask
            yield f, faces
        else:
            yield f, _chains_above(above, f.id)


def _hyperplane_components(lattice: IntersectionLattice) -> int:
    """The bitmask of the components that are hyperplanes: a flat of one
    row is contained only in itself."""
    hyperplanes = 0
    for f in lattice.flats:
        if len(f.subspace.rows) == 1:
            hyperplanes |= lattice.masks[f.id]
    return hyperplanes


def cdr_table(lattice: IntersectionLattice) -> InvariantTable:
    """The Cech-de Rham table of the arrangement.

    Each proper flat F of dimension p contributes the reduced Betti numbers
    of the open interval (F, ambient): homology in degree q - p - 1 lands in
    cell (p, q).  When every component containing F is a hyperplane,
    [F, ambient] is the lattice of a central hyperplane arrangement, a
    geometric lattice of rank codim F; by Folkman's theorem (J. Folkman, "The
    homology groups of a lattice", 1966) the open interval then has homology
    only in degree codim F - 2, of rank |mu(F, ambient)|, so it adds |mu| to
    cell (p, n - 1) and no complex is built.  A component has an empty
    interval, so it adds b_{-1} = 1 to (p, p), with no complex either.  The
    table is the same on every page from 2 on: all differentials vanish.
    """
    n = lattice.ambient_dim
    dims = [n - len(f.subspace.rows) for f in lattice.flats[: lattice.top_id]]
    d = max(dims)
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    hyperplanes = _hyperplane_components(lattice)
    above = _proper_above(lattice)
    mu = _moebius(lattice, above) if hyperplanes else None
    ranked = []
    for i, p in enumerate(dims):
        if not lattice.masks[i] & ~hyperplanes:  # a hyperplane contains the flat, so d = n - 1
            rows[p][n - 1] += abs(mu[i])
        elif above[i]:
            ranked.append(lattice.flats[i])
        else:  # a component that is not a hyperplane
            rows[p][p] += 1
    for flat, faces in _interval_complexes(lattice, ranked, above):
        betti = _face_betti(faces)
        p = dims[flat.id]
        for k in range(-1, betti.max_degree() + 1):
            mult = betti[k]
            if mult == 0:
                continue
            q = p + 1 + k
            if not (0 <= q <= d):
                raise RuntimeError(
                    f"interval homology in degree {k} above a flat of dimension {p} "
                    f"falls outside the table; lattice is corrupt"
                )
            rows[p][q] += mult
    return InvariantTable(KIND_CDR, rows)


def complement_betti(table: InvariantTable, n: int) -> list[int]:
    """Reduced Betti numbers of the complement, indexed from degree 0.

    Cell (p, q) contributes to degree 2n - p - q - 1; the returned list has
    length 2n (all degrees a complement in C^n can carry).
    """
    _require(table, KIND_CDR, "complement_betti", n)
    return _antidiagonal_sums(table.entries, n)


def moebius_betti_oracle(lattice: IntersectionLattice) -> list[int]:
    """Unreduced complement Betti numbers via the Moebius function.

    Only valid for central hyperplane arrangements: every component has
    codimension one and all components share a point.  b_k sums |mu(ambient, F)|
    over flats of codimension k; the list is indexed by k from 0 to n.
    """
    n = lattice.ambient_dim
    for f in lattice.maximal_proper_flats():
        if f.dim != n - 1:
            raise InputError("Moebius oracle needs hyperplane components only")
    if len(lattice.minimal_flats()) != 1:
        raise InputError("Moebius oracle needs a central arrangement (a common point)")
    mu = _moebius(lattice)
    betti = [0] * (n + 1)
    for flat in lattice.flats:
        betti[n - flat.dim] += abs(mu[flat.id])
    return betti


def lyubeznik_dim2(components: Sequence[AffineSubspace]) -> InvariantTable:
    """Lyubeznik table of a central arrangement of dimension at most two.

    In dimension 2 the table is determined by a, the number of connected
    components of the graph whose nodes are the 2-dimensional components and
    whose edges join pairs meeting in dimension >= 1.  Lower-dimensional
    components do not enter the count: the table is read off the purely
    2-dimensional part.  No formula is emitted in dimension 3 or more, and
    no lattice is built before these checks pass.  Two planes meet in
    dimension >= 1 exactly when a flat of dimension >= 1 lies in both, so
    each such flat joins the planes in its mask; every plane is a flat.
    """
    comps = _normalize_components(components)
    for c in comps:
        if not c.is_linear():
            raise InputError("Lyubeznik tables here require a central arrangement")
    dim_y = max(c.dim for c in comps)
    if dim_y > 2:
        raise InputError("no closed-form Lyubeznik table for arrangements of dimension > 2")
    if dim_y <= 1:
        return canonical_small_tables(dim_y)
    lattice = _lattice(comps)
    planes = sum(1 << j for j, c in enumerate(comps) if c.dim == 2)
    groups: list[int] = []  # planes joined through flats of dimension >= 1
    for f in lattice.proper_flats():
        group = lattice.masks[f.id] & planes
        if f.dim >= 1 and group:
            for g in [g for g in groups if g & group]:
                groups.remove(g)
                group |= g
            groups.append(group)
    return canonical_small_tables(2, len(groups))

