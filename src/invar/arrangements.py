"""Complex subspace arrangements: intersection lattices and invariant tables.

An arrangement is a finite set of affine subspaces of C^n, each given by an
exact rational linear system.  The intersection lattice orders all nonempty
intersections by inclusion, with the ambient space as unique top element.
Each flat carries its component bitmask, the set of components containing
it; F is contained in G exactly when mask(G) is a subset of mask(F), so the
order comes from integer subset tests.  From the lattice we compute the
Cech-de Rham table (the reduced homology of each open interval (F, ambient),
read off its order complex or its crosscut complex, whichever has fewer
faces, with ranks by exact integer elimination), the reduced Betti numbers
of the complement, a Moebius-function cross-check for central hyperplane
arrangements, and the closed-form Lyubeznik tables in dimension <= 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, InputWarning
from .posets import FinitePoset, SimplicialComplex, order_complex, reduced_betti
from .qlinalg import QMatrix, _echelon_int, _reduced_int
from .tables import KIND_CDR, KIND_LYUBEZNIK, InvariantTable, canonical_small_tables


def _canonical_rows(ambient_dim: int, rows) -> tuple[tuple[int, ...], ...] | None:
    """Primitive integer reduced rows of an integer system; None if unsolvable."""
    reduced = _reduced_int(_echelon_int(rows, ambient_dim + 1))
    if reduced and not any(reduced[-1][:-1]):  # a pivot in the constant column
        return None
    return tuple(reduced)


class AffineSubspace:
    """A nonempty affine subspace of C^n in canonical form.

    Each equation row has n coefficient entries followed by a constant term;
    a point x lies on the subspace when coeffs . x + const = 0 for every row.
    `rows` is the system's primitive integer reduced echelon form, so two
    values are equal exactly when their rows coincide; `equations` is its rref.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, equations: QMatrix):
        if ambient_dim < 1:
            raise InputError("ambient dimension must be positive")
        if equations.ncols != ambient_dim + 1:
            raise InputError(
                f"equation rows must have {ambient_dim + 1} entries "
                f"(coefficients then constant), got {equations.ncols}"
            )
        rows = _canonical_rows(ambient_dim, equations.scale_rows_to_int())
        if rows is None:
            raise InputError("inconsistent linear system: no solutions")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSubspace is immutable")

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "AffineSubspace":
        return cls(ambient_dim, QMatrix(rows, ncols=ambient_dim + 1))

    @classmethod
    def ambient(cls, ambient_dim: int) -> "AffineSubspace":
        return cls(ambient_dim, QMatrix([], ncols=ambient_dim + 1))

    @property
    def equations(self) -> QMatrix:
        rref = []
        for row in self.rows:
            pivot = next(x for x in row if x)
            rref.append([Fraction(x, pivot) for x in row])
        return QMatrix(rref, ncols=self.ambient_dim + 1)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    def is_linear(self) -> bool:
        """Whether the subspace passes through the origin."""
        return all(row[-1] == 0 for row in self.rows)

    def intersect(self, other: "AffineSubspace") -> "AffineSubspace | None":
        """Intersection as a subspace, or None when empty."""
        if self.ambient_dim != other.ambient_dim:
            raise InputError("subspaces live in different ambient spaces")
        rows = _canonical_rows(self.ambient_dim, self.rows + other.rows)
        if rows is None:
            return None
        meet = object.__new__(AffineSubspace)
        object.__setattr__(meet, "ambient_dim", self.ambient_dim)
        object.__setattr__(meet, "rows", rows)
        return meet

    def contained_in(self, other: "AffineSubspace") -> bool:
        """Inclusion test by ranks of stacked equation systems."""
        if self.ambient_dim != other.ambient_dim:
            raise InputError("subspaces live in different ambient spaces")
        stacked = _echelon_int(self.rows + other.rows, self.ambient_dim + 1)
        return len(stacked) == len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, AffineSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def sort_key(self):
        return (self.dim, self.equations.entries)

    def __repr__(self):
        return f"AffineSubspace(n={self.ambient_dim}, dim={self.dim})"


@dataclass(frozen=True)
class Flat:
    """An element of the intersection lattice."""

    id: int
    subspace: AffineSubspace

    @property
    def dim(self) -> int:
        return self.subspace.dim


class IntersectionLattice:
    """All nonempty intersections of the components, ordered by inclusion.

    `masks[i]` is the component bitmask of the flat with id i: bit j is set
    when the j-th (normalized) component contains the flat.  The ambient
    space has mask 0.
    """

    __slots__ = ("ambient_dim", "flats", "poset", "top_id", "masks")

    def __init__(
        self,
        ambient_dim: int,
        flats: Sequence[Flat],
        poset: FinitePoset,
        top_id: int,
        masks: Sequence[int],
    ):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "flats", tuple(flats))
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "top_id", top_id)
        object.__setattr__(self, "masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionLattice is immutable")

    def proper_flats(self) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.id != self.top_id)

    def maximal_proper_flats(self) -> tuple[Flat, ...]:
        """Flats covered only by the ambient space: the arrangement components."""
        proper = self.proper_flats()
        ids = {f.id for f in proper}
        return tuple(
            f
            for f in proper
            if not any((f.id, g) in self.poset.less for g in ids if g != f.id)
        )

    def dim(self) -> int:
        return max(f.dim for f in self.proper_flats())

    def minimal_flats(self) -> tuple[Flat, ...]:
        ids = {f.id for f in self.flats}
        return tuple(
            f
            for f in self.flats
            if not any((g, f.id) in self.poset.less for g in ids if g != f.id)
        )


def _normalize_components(components: Sequence[AffineSubspace]) -> list[AffineSubspace]:
    """Deduplicate and drop components contained in others, with a warning."""
    if not components:
        raise InputError("an arrangement needs at least one component")
    n = components[0].ambient_dim
    for c in components:
        if c.ambient_dim != n:
            raise InputError("components have inconsistent ambient dimensions")
        if c.dim == n:
            raise InputError("a component equal to the ambient space is not allowed")
    unique: list[AffineSubspace] = []
    for i, c in enumerate(components):
        if c in unique:
            warnings.warn(f"duplicate component at position {i} ignored", InputWarning)
        else:
            unique.append(c)
    keep: list[AffineSubspace] = []
    for i, c in enumerate(unique):
        redundant = any(c != o and c.contained_in(o) for o in unique)
        if redundant:
            warnings.warn(
                f"component of dimension {c.dim} is contained in another component; pruned",
                InputWarning,
            )
        else:
            keep.append(c)
    return keep


def build_lattice(components: Sequence[AffineSubspace]) -> IntersectionLattice:
    """All nonempty intersections of the components, ordered by inclusion.

    Every flat is met with every component only: F & c == F puts c into F's
    mask, any other nonempty meet is a flat.  A flat is the intersection of
    the components in its mask, so inclusion is reverse mask inclusion.
    """
    comps = _normalize_components(components)
    n = comps[0].ambient_dim
    masks: dict[AffineSubspace, int] = {}
    seen = set(comps)
    worklist = list(comps)
    while worklist:
        flat = worklist.pop()
        mask = 0
        for j, c in enumerate(comps):
            meet = flat.intersect(c)
            if meet == flat:
                mask |= 1 << j
            elif meet is not None and meet not in seen:
                seen.add(meet)
                worklist.append(meet)
        masks[flat] = mask
    ordered = sorted(masks, key=AffineSubspace.sort_key)
    flats = [Flat(i, s) for i, s in enumerate(ordered)]
    top = Flat(len(flats), AffineSubspace.ambient(n))
    flats.append(top)
    flat_masks = [masks[s] for s in ordered] + [0]
    pairs = [
        (a, b)
        for a, mask_a in enumerate(flat_masks)
        for b, mask_b in enumerate(flat_masks)
        if mask_a & mask_b == mask_b and mask_a != mask_b
    ]
    poset = FinitePoset([f.id for f in flats], pairs)
    return IntersectionLattice(n, flats, poset, top.id, flat_masks)


def _bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _interval_complexes(lattice: IntersectionLattice):
    """Yield (flat, complex) for every proper flat F, where the complex is
    homotopy equivalent to the order complex of the open interval (F, ambient).

    Two complexes qualify: the order complex itself, with one face per chain
    of proper flats above F, and, by the crosscut theorem (Rota 1964;
    Bjorner, Topological Methods, 1995), the crosscut complex on the
    components containing F, whose faces are the component sets with meet
    strictly above F: the subsets of the masks of the proper flats above F.
    Neither is small everywhere: on boolean arrangements the order complex
    grows like n! and the crosscut like 2^n, on a pencil of planes through a
    line the crosscut grows like 2^k and the order complex linearly.  So each
    flat gets the one with fewer faces, counted exactly before building:
    chains(G), the chains starting at G, and cross(G), the nonempty component
    sets with meet exactly G, both summed over the proper flats G above F.
    """
    masks = lattice.masks
    less = lattice.poset.less
    proper = lattice.proper_flats()
    above = {f.id: [g.id for g in proper if (f.id, g.id) in less] for f in proper}
    chains: dict[int, int] = {}
    cross: dict[int, int] = {}
    # a flat strictly above another has larger dimension, hence a larger id
    for f in reversed(proper):
        up = above[f.id]
        chains[f.id] = 1 + sum(chains[g] for g in up)
        cross[f.id] = (1 << masks[f.id].bit_count()) - 1 - sum(cross[g] for g in up)
    for f in proper:
        up = above[f.id]
        if sum(cross[g] for g in up) <= sum(chains[g] for g in up):
            union = 0
            for g in up:
                union |= masks[g]
            yield f, SimplicialComplex(_bits(union), [_bits(masks[g]) for g in up])
        else:
            yield f, order_complex(lattice.poset, f.id, lattice.top_id)


def cdr_table(lattice: IntersectionLattice) -> InvariantTable:
    """The Cech-de Rham table of the arrangement.

    Each proper flat F of dimension p contributes the reduced Betti numbers
    of the open interval (F, ambient): homology in degree q - p - 1 lands in
    cell (p, q).  The table is the same on every page from 2 on, because all
    differentials vanish for arrangements.
    """
    d = lattice.dim()
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    for flat, complex_ in _interval_complexes(lattice):
        betti = reduced_betti(complex_)
        p = flat.dim
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
    if table.kind != KIND_CDR:
        raise InputError("complement_betti expects a cdr table")
    if not table.is_complete():
        raise InputError("complement_betti requires a fully known table")
    if n < table.d + 1:
        raise InputError(
            f"ambient dimension {n} is too small for a table of dimension {table.d}"
        )
    betti = [0] * (2 * n)
    for p, q in table.cells():
        v = table.entry(p, q)
        if v:
            betti[2 * n - p - q - 1] += v
    return betti


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
    mu: dict[int, int] = {lattice.top_id: 1}
    above: dict[int, list[int]] = {
        f.id: [g.id for g in lattice.flats if (f.id, g.id) in lattice.poset.less]
        for f in lattice.flats
    }
    for flat in sorted(lattice.proper_flats(), key=lambda f: -f.dim):
        mu[flat.id] = -sum(mu[g] for g in above[flat.id])
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
    2-dimensional part.  No formula is emitted in dimension 3 or more.
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
    planes = [c for c in comps if c.dim == 2]
    parent = list(range(len(planes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            meet = planes[i].intersect(planes[j])
            if meet is not None and meet.dim >= 1:
                parent[find(i)] = find(j)
    a = len({find(i) for i in range(len(planes))})
    return canonical_small_tables(2, a)


__all__ = [
    "AffineSubspace",
    "Flat",
    "IntersectionLattice",
    "build_lattice",
    "cdr_table",
    "complement_betti",
    "moebius_betti_oracle",
    "lyubeznik_dim2",
    "KIND_LYUBEZNIK",
    "KIND_CDR",
]
