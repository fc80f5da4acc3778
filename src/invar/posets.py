"""Finite posets, order complexes of open intervals, and reduced rational homology.

Homology is reduced throughout: the augmented chain complex always carries a
rank-one degree -(1) term, so the empty complex has b_{-1} = 1 and a point is
acyclic.  A complex keeps its faces as sorted vertex-position tuples grouped
by size, closed downward once.  Betti numbers come from one ranking,
`_face_betti`, on a family of faces given as bitmasks over vertices: each
face's coboundary is a sparse integer column added to the exact echelon
basis of `qlinalg._extend_sparse_echelon`, degree by degree from the
vertices up with clearing.  `reduced_betti` hands it a complex's faces; the
arrangement code hands it the faces of an order complex or a crosscut
complex straight from the lattice's bitsets, with no complex built.  Chains
are enumerated in one place, `_chains_above`, as bitmasks, from lists of the
positions above each position: `order_complex` reads those lists off a
`FinitePoset`, and the arrangement code off the lattice's up-set bitsets.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from .errors import InputError, _Frozen, _betti, _echo, _int, _is_int
from .qlinalg import QMatrix, _extend_sparse_echelon


class FinitePoset(_Frozen):
    """A finite strict partial order, closed transitively at construction
    or given by closed up-sets (`from_up_sets`); `less` holds its pairs.
    Two posets compare by identity."""

    __slots__ = ("elements", "less")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    elements: tuple
    less: frozenset

    def __init__(self, elements: Iterable[Hashable], less_than: Iterable[tuple]):
        elems = tuple(elements)
        index = _positions(elems)
        # up[i]: bitmask over element positions of everything above elems[i]
        up = [0] * len(elems)
        for a, b in less_than:
            if a not in index or b not in index:
                raise InputError(f"relation mentions unknown element: {_echo((a, b))}")
            up[index[a]] |= 1 << index[b]
        # Warshall: after step k, up[i] holds everything reachable from i
        # through intermediates among the first k + 1 elements
        for k in range(len(up)):
            bit, up_k = 1 << k, up[k]
            for i, up_i in enumerate(up):
                if up_i & bit:
                    up[i] = up_i | up_k
        self._store(elems, up)

    @classmethod
    def from_up_sets(cls, elements: Iterable[Hashable], up_sets: Iterable[int]) -> "FinitePoset":
        """The poset whose i-th element lies below exactly the elements at
        the set bits of up_sets[i].  No closure is run: the up-sets must
        already be transitively closed, and are checked to be."""
        elems = tuple(elements)
        _positions(elems)
        up = tuple(up_sets)
        if len(up) != len(elems) or any(not _is_int(u) or u < 0 or u >> len(elems) for u in up):
            raise InputError("need one up-set per element, over element positions")
        poset = object.__new__(cls)
        poset._store(elems, up)
        return poset

    def _store(self, elems: tuple, up: Sequence[int]):
        pairs = []
        for i, up_i in enumerate(up):
            if up_i >> i & 1:
                raise InputError(f"order relation is not irreflexive at {_echo(elems[i])}")
            for j in _bits(up_i):
                if up[j] & ~up_i:
                    raise InputError(f"up-sets are not transitively closed at {_echo(elems[i])}")
                pairs.append((elems[i], elems[j]))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "less", frozenset(pairs))

    def open_interval(self, lower, upper) -> tuple:
        """Elements strictly between lower and upper, in element order."""
        for x in (lower, upper):
            if x not in set(self.elements):
                raise InputError(f"unknown poset element: {_echo(x)}")
        return tuple(
            x for x in self.elements if (lower, x) in self.less and (x, upper) in self.less
        )


def _bits(mask: int) -> list[int]:
    """The positions of the set bits, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _positions(elems: tuple) -> dict:
    index = {x: i for i, x in enumerate(elems)}
    if len(index) != len(elems):
        raise InputError("duplicate poset elements")
    return index


def _vertex_key(v):
    # deterministic total order even for mixed vertex types
    return (type(v).__name__, repr(v))


class SimplicialComplex(_Frozen):
    """Abstract simplicial complex: vertices in a fixed order, and faces[s],
    the simplices with s vertices as sorted tuples of vertex positions in
    lexicographic order.  faces[0] == ((),) whenever any simplex is present;
    a void complex has no faces.  `simplices` is a derived frozenset view."""

    __slots__ = ("vertices", "faces")
    vertices: tuple
    faces: tuple

    def __init__(self, vertices: Iterable[Hashable], simplices: Iterable[Iterable[Hashable]]):
        verts = tuple(sorted(set(vertices), key=_vertex_key))
        pos = {v: i for i, v in enumerate(verts)}
        # by_size[s]: the simplices with s vertices; every vertex is one
        by_size = [{()} if verts else set(), {(i,) for i in range(len(verts))}]
        for s in simplices:
            fs = frozenset(s)
            try:
                face = tuple(sorted(map(pos.__getitem__, fs)))
            except KeyError:
                try:
                    listed = sorted(fs)
                except TypeError:  # vertices of types that do not compare
                    listed = sorted(fs, key=_vertex_key)
                raise InputError(f"simplex {_echo(listed)} uses unknown vertices") from None
            while len(by_size) <= len(face):
                by_size.append(set())
            by_size[len(face)].add(face)
        # close downward, one size at a time: dropping one entry of a sorted
        # tuple leaves it sorted
        for size in range(len(by_size) - 1, 1, -1):
            lower = by_size[size - 1]
            for face in by_size[size]:
                lower.update(face[:i] + face[i + 1:] for i in range(size))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", tuple(tuple(sorted(level)) for level in by_size if level))

    @property
    def simplices(self) -> frozenset:
        """Every simplex as a frozenset of vertices, the empty one included."""
        return frozenset(
            frozenset(map(self.vertices.__getitem__, s)) for level in self.faces for s in level
        )

    def dim(self) -> int:
        """Largest simplex dimension; -1 for {empty simplex}, -2 if void."""
        return len(self.faces) - 2


class BettiVector(_Frozen):
    """Reduced Betti numbers indexed from degree -1, trailing zeros trimmed."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = _betti(values)
        while len(vals) > 1 and vals[-1] == 0:
            vals.pop()
        if not vals:
            vals = [0]
        object.__setattr__(self, "values", tuple(vals))

    def __getitem__(self, degree: int) -> int:
        i = _int(degree, "degree") + 1
        if i < 0 or i >= len(self.values):
            return 0
        return self.values[i]

    def __repr__(self):
        pairs = ", ".join(f"b{k - 1}={v}" for k, v in enumerate(self.values) if v)
        return f"BettiVector({pairs or 'trivial'})"

    def max_degree(self) -> int:
        return len(self.values) - 2


def _chains_above(above, lower) -> list[int]:
    """The faces of the order complex of an open interval (lower, upper), as
    bitmasks over positions: above[lower] lists the positions of the
    interval, and above[x], for x in it, those of the elements of the
    interval strictly above x, all larger than x.  Each chain is grown
    upward from its minimum in above[lower], as the chains are counted, so
    once only."""
    chains = [1 << g for g in above[lower]]
    for chain in chains:  # the loop reaches the chains it appends
        chains.extend([chain | 1 << g for g in above[chain.bit_length() - 1]])
    return chains


def order_complex(poset: FinitePoset, lower, upper) -> SimplicialComplex:
    """Chains of the open interval (lower, upper) as a simplicial complex."""
    within, less = poset.open_interval(lower, upper), poset.less
    # a linear extension: an element lies above more of the interval than any element below it
    interval = sorted(within, key=lambda x: sum((y, x) in less for y in within))
    above = [[j for j, y in enumerate(interval) if (x, y) in less] for x in interval]
    above.append(range(len(interval)))
    chains = _chains_above(above, len(interval))
    return SimplicialComplex(interval, [map(interval.__getitem__, _bits(c)) for c in chains])


def _boundary_column(simplex: tuple, low_index: dict) -> dict[int, int]:
    """The boundary of a simplex as a sparse column {face index: +-1}: the
    face without the i-th vertex, looked up in low_index, has sign (-1)^i."""
    faces = (simplex[:i] + simplex[i + 1:] for i in range(len(simplex)))
    return {low_index[face]: -1 if i & 1 else 1 for i, face in enumerate(faces)}


def boundary_matrix(k: SimplicialComplex, degree: int) -> QMatrix:
    """Boundary map from degree-k chains to degree-(k-1) chains.

    Degree 0 is the augmentation onto the rank-one degree -1 term.
    Simplices are ordered lexicographically; faces carry alternating signs.
    """
    _int(degree, "boundary degree", 0)
    # the faces with degree and degree + 1 vertices; none past the dimension
    low, top = (k.faces[degree:degree + 2] + ((), ()))[:2]
    if degree == 0:
        return QMatrix([[1] * len(top)], ncols=len(top))
    low_index = {s: i for i, s in enumerate(low)}
    columns = [_boundary_column(s, low_index) for s in top]
    return QMatrix([[c.get(i, 0) for c in columns] for i in low_index.values()], ncols=len(top))


def reduced_betti(k: SimplicialComplex) -> BettiVector:
    """Reduced rational Betti numbers of a complex: `_face_betti` on its
    faces as bitmasks over vertex positions."""
    return _face_betti([sum([1 << v for v in face]) for level in k.faces[1:] for face in level])


def _face_betti(faces: Iterable[int]) -> BettiVector:
    """Reduced rational Betti numbers of the complex whose nonempty faces
    are the distinct bitmasks `faces`, closed under nonempty subsets.

    The ranks are those of the coboundaries, from the empty face up, with
    clearing (C. Chen and M. Kerber, "Persistent homology computation with a
    twist", 2011, in the cohomology form of V. de Silva, D. Morozov and M.
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).  The
    columns of one degree are built in one pass over the faces one size up:
    a face adds +-1 at its own index to the column of each facet it has, the
    sign set by the position of the dropped bit.  The coboundary basis of the
    degree below is in echelon form, and its rows are cocycles, so the column
    of a face at one of their pivots lies in the span of the others, and is
    skipped; rank delta_k is rank d_(k+1).  No faces at all, or the empty one
    only, leave b_{-1} = 1.
    """
    levels = [[0]]  # levels[s]: the faces with s vertices
    for face in faces:
        size = face.bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(face)
    for level in levels:
        level.sort()
    # ranks[s]: rank of the coboundary of levels[s]; the top level's, 0, is
    # also ranks[-1], the degree below the empty face's
    ranks = [0] * len(levels)
    cleared: dict[int, dict[int, int]] = {}
    for size in range(len(levels) - 1):
        index = {face: j for j, face in enumerate(levels[size])}
        columns: list[dict[int, int]] = [{} for _ in index]
        for i, face in enumerate(levels[size + 1]):
            sign, rest = 1, face
            while rest:
                bit = rest & -rest
                columns[index[face ^ bit]][i] = sign
                sign, rest = -sign, rest ^ bit
        basis: dict[int, dict[int, int]] = {}
        for j, column in enumerate(columns):
            if j not in cleared:
                _extend_sparse_echelon(basis, column)
        ranks[size], cleared = len(basis), basis
    return BettiVector(len(level) - ranks[s - 1] - ranks[s] for s, level in enumerate(levels))
