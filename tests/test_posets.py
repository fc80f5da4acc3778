"""Order complexes and reduced rational homology."""

import random
from itertools import combinations

import pytest

from invar import (
    BettiVector,
    FinitePoset,
    InputError,
    QMatrix,
    SimplicialComplex,
    boundary_matrix,
    build_lattice,
    order_complex,
    reduced_betti,
)
import test_arrangements
from invar import posets
from invar.arrangements import AffineSubspace, _interval_complexes
from invar.posets import _bits, _face_betti, _vertex_key
from test_qlinalg import reference_echelon_int
from test_arrangements import (
    k_equal_arrangement, pencil_arrangement, reference_interval_complexes,
)
from conftest import cone, reduced_euler, reference_order_complex, reference_topdown_betti


def boolean_coordinate_poset(n):
    """Poset of coordinate subspaces of C^n ordered by inclusion.

    Elements are frozensets S of vanishing coordinates (the flat x_i = 0 for
    i in S); bigger S means smaller subspace.  Includes bottom (all
    coordinates vanish: the origin) and top (none: the ambient space).
    """
    elements = []
    for k in range(n + 1):
        elements.extend(frozenset(c) for c in combinations(range(n), k))
    elements = sorted(elements, key=lambda s: (len(s), sorted(s)))
    ids = {s: i for i, s in enumerate(elements)}
    pairs = [
        (ids[a], ids[b])
        for a in elements
        for b in elements
        if b < a  # strictly fewer vanishing coordinates: strictly bigger flat
    ]
    bottom = ids[frozenset(range(n))]
    top = ids[frozenset()]
    return FinitePoset(list(ids.values()), pairs), bottom, top


def random_input(rng: random.Random) -> tuple[list, list]:
    """Vertices and unclosed simplices of a random complex."""
    nverts = rng.randint(0, 7)
    verts = list(range(nverts))
    faces = []
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(4, max(1, nverts)))
        if nverts:
            faces.append(rng.sample(verts, size))
    return verts, faces


def random_complex(rng: random.Random) -> SimplicialComplex:
    return SimplicialComplex(*random_input(rng))


class ReferenceComplex:
    """Reference oracle: the representation the faces-by-size tuples
    replaced.  The simplices are a frozenset of vertex frozensets, closed
    downward by a stack, and every reader converts them to sorted vertex
    positions on each call."""

    def __init__(self, vertices, simplices):
        verts = tuple(sorted(set(vertices), key=_vertex_key))
        vset = set(verts)
        closed = set()
        for s in simplices:
            fs = frozenset(s)
            if not fs <= vset:
                raise InputError(f"simplex {sorted(fs)!r} uses unknown vertices")
            closed.add(fs)
        # close downward; every vertex is a simplex
        for v in verts:
            closed.add(frozenset([v]))
        stack = list(closed)
        while stack:
            s = stack.pop()
            for v in s:
                face = s - {v}
                if face not in closed:
                    closed.add(face)
                    stack.append(face)
        if closed:
            closed.add(frozenset())
        self.vertices = verts
        self.simplices = frozenset(closed)
        self.pos = {v: i for i, v in enumerate(verts)}

    def dim(self):
        if not self.simplices:
            return -2
        return max(len(s) for s in self.simplices) - 1

    def k_simplices(self, k):
        found = [sorted(map(self.pos.__getitem__, s)) for s in self.simplices if len(s) == k + 1]
        return [tuple(self.vertices[i] for i in s) for s in sorted(found)]


def k_simplices(k, deg):
    """The deg-simplices of a complex, 0 <= deg <= dim, as vertex tuples in
    vertex order, read off its faces."""
    return [tuple(map(k.vertices.__getitem__, s)) for s in k.faces[deg + 1]]


def _boundary_rows(top, low):
    """Dense integer boundary matrix from `top` simplices (columns) to their
    faces in `low` (rows); every simplex is a vertex tuple in vertex order."""
    low_index = {s: i for i, s in enumerate(low)}
    rows = [[0] * len(top) for _ in low]
    for j, simplex in enumerate(top):
        for i in range(len(simplex)):
            rows[low_index[simplex[:i] + simplex[i + 1:]]][j] += -1 if i & 1 else 1
    return rows


def reference_reduced_betti(k):
    """Reference oracle: every boundary matrix built dense and ranked whole by
    `reference_echelon_int`, with no clearing (the path the sparse ranking
    replaced)."""
    d = k.dim()
    if d < 0:
        return BettiVector([1])
    by_degree = [k_simplices(k, deg) for deg in range(d + 1)]
    ranks = {-1: 0, 0: 1, d + 1: 0}  # degree 0 is the augmentation
    for deg in range(1, d + 1):
        top = by_degree[deg]
        ranks[deg] = len(reference_echelon_int(_boundary_rows(top, by_degree[deg - 1]), len(top)))
    counts = [1] + [len(simplices) for simplices in by_degree]
    return BettiVector(counts[deg + 1] - ranks[deg] - ranks[deg + 1] for deg in range(-1, d + 1))


class TestOrderComplex:
    def test_hexagon_interval(self):
        # oracle: chains between origin and ambient in C^3 enumerated by hand.
        # interior elements: 3 lines and 3 planes; each line lies in exactly
        # two planes, so the comparability graph is a 6-cycle with no
        # 2-chains of length 3.
        poset, bottom, top = boolean_coordinate_poset(3)
        k = order_complex(poset, bottom, top)
        assert len(k.vertices) == 6
        assert len(k.faces) == 3 and len(k.faces[2]) == 6  # 6 edges, no triangle
        assert reduced_betti(k) == BettiVector([0, 0, 1])

    def test_empty_interior(self):
        poset = FinitePoset([0, 1], [(0, 1)])
        k = order_complex(poset, 0, 1)
        assert k.faces == ()
        assert reduced_betti(k) == BettiVector([1])

    def test_antichain_gives_isolated_vertices(self):
        elements = [0, 1, 2, 3, 4]  # bottom 0, top 4, middle antichain 1,2,3
        pairs = [(0, x) for x in (1, 2, 3, 4)] + [(x, 4) for x in (1, 2, 3)]
        poset = FinitePoset(elements, pairs)
        k = order_complex(poset, 0, 4)
        assert len(k.vertices) == 3
        assert len(k.faces) == 2  # no edge
        assert reduced_betti(k)[0] == 2

    def test_unknown_ids(self):
        poset = FinitePoset([0, 1], [(0, 1)])
        with pytest.raises(InputError):
            order_complex(poset, 0, 99)

    def test_against_recursive_walk(self, rng):
        # every pair of elements of random posets, comparable or not, and
        # each element with itself: the open interval is then empty
        for _ in range(60):
            size = rng.randint(1, 8)
            pairs = [(a, b) for a in range(size) for b in range(a + 1, size) if rng.random() < 0.4]
            poset = FinitePoset(rng.sample(range(size), size), pairs)
            for lower in range(size):
                for upper in range(size):
                    expected = reference_order_complex(poset, lower, upper)
                    assert order_complex(poset, lower, upper) == expected


class TestPosetValidation:
    def test_duplicate_elements(self):
        with pytest.raises(InputError):
            FinitePoset([0, 0], [])

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            FinitePoset([0, 1], [(0, 1), (1, 0)])

    def test_unknown_relation_member(self):
        with pytest.raises(InputError):
            FinitePoset([0], [(0, 5)])

    LONG = "x" * 5000

    @pytest.mark.parametrize("site, value, message", [
        (lambda v: FinitePoset([0], [(0, v)]), "a",
         "relation mentions unknown element: (0, 'a')"),
        (lambda v: FinitePoset([0], [(0, v)]), LONG,
         "relation mentions unknown element: (0, '" + "x" * 55 + "…"),
        (lambda v: FinitePoset.from_up_sets([v], [1]), LONG,
         "order relation is not irreflexive at '" + "x" * 59 + "…"),
        (lambda v: FinitePoset.from_up_sets([v, 1, 2], [0b10, 0b100, 0]), LONG,
         "up-sets are not transitively closed at '" + "x" * 59 + "…"),
        (lambda v: FinitePoset([0, 1], []).open_interval(v, 1), LONG,
         "unknown poset element: '" + "x" * 59 + "…"),
        (lambda v: SimplicialComplex([0], [[v]]), LONG,
         "simplex ['" + "x" * 58 + "… uses unknown vertices"),
    ], ids=["short-relation", "relation", "irreflexive", "closed", "interval", "simplex"])
    def test_value_is_echoed_up_to_60_characters(self, site, value, message):
        with pytest.raises(InputError) as err:
            site(value)
        assert str(err.value) == message

    def test_transitive_closure(self):
        poset = FinitePoset([0, 1, 2], [(0, 1), (1, 2)])
        assert (0, 2) in poset.less

    def test_closure_matches_pairwise_fixpoint(self, rng):
        def fixpoint(pairs):
            """Reference closure: compose pairs until nothing new appears."""
            closed = set(pairs)
            changed = True
            while changed:
                changed = False
                for a, b in list(closed):
                    for c, d in list(closed):
                        if b == c and (a, d) not in closed:
                            closed.add((a, d))
                            changed = True
            return closed

        for _ in range(40):
            n = rng.randint(1, 9)
            rank = {x: rng.random() for x in "abcdefghi"[:n]}
            elements = sorted(rank, key=lambda _: rng.random())
            pairs = [(a, b) for a in elements for b in elements
                     if rank[a] < rank[b] and rng.random() < 0.3]
            assert FinitePoset(elements, pairs).less == fixpoint(pairs)
            if pairs:
                a, b = rng.choice(sorted(fixpoint(pairs)))
                with pytest.raises(InputError):
                    FinitePoset(elements, pairs + [(b, a)])


class TestFromUpSets:
    def up_sets(self, poset):
        index = {x: i for i, x in enumerate(poset.elements)}
        up = [0] * len(index)
        for a, b in poset.less:
            up[index[a]] |= 1 << index[b]
        return up

    def test_matches_the_closure(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            rank = {x: rng.random() for x in "abcdefghi"[:n]}
            elements = sorted(rank, key=lambda _: rng.random())
            pairs = [(a, b) for a in elements for b in elements
                     if rank[a] < rank[b] and rng.random() < 0.3]
            poset = FinitePoset(elements, pairs)
            rebuilt = FinitePoset.from_up_sets(elements, self.up_sets(poset))
            assert rebuilt.elements == poset.elements
            assert rebuilt.less == poset.less

    def test_rejects_open_or_malformed_up_sets(self):
        elements = ["a", "b", "c"]
        for up in (
            [0b010, 0b100, 0],  # a < b < c without a < c
            [0b001, 0, 0],  # a < a
            [0b110, 0b100],  # one up-set short
            [0b1000, 0, 0],  # a bit past the last element
            [-1, 0, 0],
        ):
            with pytest.raises(InputError):
                FinitePoset.from_up_sets(elements, up)
        with pytest.raises(InputError):
            FinitePoset.from_up_sets(["a", "a"], [0, 0])


class TestReducedBetti:
    def test_empty_complex(self):
        assert reduced_betti(SimplicialComplex((), ()))[-1] == 1

    def test_two_points(self):
        k = SimplicialComplex([0, 1], [])
        b = reduced_betti(k)
        assert b[-1] == 0 and b[0] == 1

    def test_hexagon_cycle(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        k = SimplicialComplex(range(6), edges)
        b = reduced_betti(k)
        assert b[0] == 0 and b[1] == 1

    def test_boundary_of_tetrahedron(self):
        faces = list(combinations(range(4), 3))
        k = SimplicialComplex(range(4), faces)
        b = reduced_betti(k)
        assert (b[0], b[1], b[2]) == (0, 0, 1)

    def test_seven_vertex_torus(self):
        # closed-surface oracle: faces (i,i+1,i+3) and (i,i+2,i+3) mod 7
        # triangulate the torus (checked: 14 faces, 21 edges, every edge in
        # exactly two faces, Euler characteristic 0)
        faces = []
        for i in range(7):
            faces.append([i, (i + 1) % 7, (i + 3) % 7])
            faces.append([i, (i + 2) % 7, (i + 3) % 7])
        b = reduced_betti(SimplicialComplex(range(7), faces))
        assert (b[0], b[1], b[2]) == (0, 2, 1)

    def test_six_vertex_projective_plane_rational(self):
        # antipodal icosahedron quotient; its homology is pure 2-torsion,
        # invisible with rational coefficients
        faces = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
        b = reduced_betti(SimplicialComplex(range(1, 7), faces))
        assert all(b[deg] == 0 for deg in range(-1, 3))

    def test_disjoint_union_counts_components(self, rng):
        for _ in range(10):
            m = rng.randint(1, 5)
            verts, faces = [], []
            offset = 0
            for _ in range(m):
                size = rng.randint(1, 3)
                vs = list(range(offset, offset + size))
                verts.extend(vs)
                faces.append(vs)  # a simplex is connected
                offset += size
            k = SimplicialComplex(verts, faces)
            assert reduced_betti(k)[0] == m - 1

    def test_boundary_squares_to_zero(self, rng):
        for _ in range(20):
            k = random_complex(rng)
            for deg in range(1, k.dim() + 1):
                low = boundary_matrix(k, deg - 1)
                high = boundary_matrix(k, deg)
                prod_rows = [
                    [
                        sum(low.entries[i][t] * high.entries[t][j] for t in range(high.nrows))
                        for j in range(high.ncols)
                    ]
                    for i in range(low.nrows)
                ]
                assert all(all(x == 0 for x in row) for row in prod_rows)


def assert_intervals_match(lattice):
    """The bitmask faces of every interval and their coboundary ranking
    against the former complexes, the former top-down ranking and the dense
    ranks; the order complex of every interval too."""
    flats = lattice.proper_flats()
    for (flat, faces), (same, complex_) in zip(
            _interval_complexes(lattice, flats), reference_interval_complexes(lattice, flats),
            strict=True):
        assert flat is same
        betti = _face_betti(faces)
        assert betti == reference_topdown_betti(complex_) == reference_reduced_betti(complex_)
        assert betti == reduced_betti(complex_)
        ordered = order_complex(lattice.poset, flat.id, lattice.top_id)
        assert reduced_betti(ordered) == reference_reduced_betti(ordered) == betti


class TestAgainstDenseReference:
    """Sparse coboundary ranks with clearing against dense whole-matrix
    ranks and against the former top-down boundary ranks."""

    def test_random_complexes(self, rng):
        for _ in range(600):
            k = random_complex(rng)
            assert reduced_betti(k) == reference_reduced_betti(k) == reference_topdown_betti(k)
            for deg in range(1, k.dim() + 1):
                top, low = k_simplices(k, deg), k_simplices(k, deg - 1)
                assert boundary_matrix(k, deg) == QMatrix(_boundary_rows(top, low), ncols=len(top))

    def test_random_bitmask_families(self, rng):
        # vertices at arbitrary bits, faces in any order, up to dimension 5
        for _ in range(300):
            verts = list(range(rng.randint(0, 9)))
            simplices = [rng.sample(verts, rng.randint(1, min(6, len(verts))))
                         for _ in range(rng.randint(0, 8) if verts else 0)]
            k = SimplicialComplex(verts, simplices)
            bit = rng.sample(range(40), len(verts))
            faces = [sum(1 << bit[v] for v in face) for level in k.faces[1:] for face in level]
            rng.shuffle(faces)
            assert _face_betti(faces) == reference_topdown_betti(k) == reference_reduced_betti(k)

    @pytest.mark.parametrize("vertices, simplices", [([], []), ([], [[]])], ids=["void", "{empty}"])
    def test_void_and_the_empty_simplex(self, vertices, simplices):
        k = SimplicialComplex(vertices, simplices)
        assert reduced_betti(k) == reference_topdown_betti(k) == reference_reduced_betti(k)
        assert _face_betti([]) == BettiVector([1])

    def test_every_interval_of_k_equal_6_3(self):
        lattice = build_lattice(k_equal_arrangement(6, 3))
        assert len(lattice.flats) == 53
        assert_intervals_match(lattice)

    def test_every_interval_of_the_pencil(self):
        # the bottom point of the k = 5 pencil, plain or lifted into w = 0 of
        # C^4, takes the order complex, the other flats their crosscut complexes
        lifted = [AffineSubspace.from_rows(4, [row, [0, 0, 0, 1, 0]])
                  for row in [[1, i, 0, 0, 0] for i in range(5)] + [[0, 0, 1, 0, 0]]]
        for comps in (pencil_arrangement(5), lifted):
            lattice = build_lattice(comps)
            (point, at_point), = _interval_complexes(lattice, lattice.proper_flats()[:1])
            assert point.dim == 0
            assert len(at_point) == 5 * 5 + 2  # chains, the empty face aside
            assert_intervals_match(lattice)


class TestHomologyInvariants:
    def test_euler_poincare(self, rng):
        for _ in range(50):
            k = random_complex(rng)
            betti = reduced_betti(k)
            assert sum((-1) ** (i - 1) * v for i, v in enumerate(betti.values)) == reduced_euler(k)

    def test_cone_is_acyclic(self, rng):
        for _ in range(50):
            k = random_complex(rng)
            coned = cone(k, "apex")
            b = reduced_betti(coned)
            assert all(b[deg] == 0 for deg in range(-1, b.max_degree() + 1))

    def test_cone_needs_fresh_apex(self):
        k = SimplicialComplex([0], [])
        with pytest.raises(InputError):
            cone(k, 0)


class TestSimplicialComplex:
    def test_downward_closure(self):
        k = SimplicialComplex([0, 1, 2], [[0, 1, 2]])
        assert frozenset([0, 1]) in k.simplices
        assert frozenset() in k.simplices

    def test_unknown_vertices_rejected(self):
        with pytest.raises(InputError):
            SimplicialComplex([0], [[0, 1]])

    def test_betti_vector_padding(self):
        b = BettiVector([0, 1, 0, 0])
        assert b.values == (0, 1)
        assert b[5] == 0

    @pytest.mark.parametrize("degree, echo", [("a", "'a'"), (True, "True"), (0.0, "0.0")])
    def test_betti_vector_degree_is_checked(self, degree, echo):
        with pytest.raises(InputError) as err:
            BettiVector([0, 1])[degree]
        assert str(err.value) == f"degree must be an integer, got {echo}"

    @pytest.mark.parametrize("values, echo", [
        ([1.5, 2], "1.5"),
        (["a"], "'a'"),
        ([1, True], "True"),
        ([1, 0.0], "0.0"),
        ([1, None], "None"),
        ([2, -1], "-1"),
        (["x" * 5000], "'" + "x" * 59 + "…"),
    ], ids=["float", "str", "bool", "trailing float zero", "None", "negative", "5000-chars"])
    def test_betti_vector_refuses_entries_that_are_not_nonnegative_integers(self, values, echo):
        with pytest.raises(InputError) as err:
            BettiVector(values)
        assert str(err.value) == f"Betti numbers must be nonnegative integers, got {echo}"

    @pytest.mark.parametrize("values, echo", [(None, "None"), (3, "3"), (1.5, "1.5")])
    def test_betti_vector_refuses_a_value_that_is_not_iterable(self, values, echo):
        with pytest.raises(InputError) as err:
            BettiVector(values)
        assert str(err.value) == f"Betti numbers must be nonnegative integers, got {echo}"


def assert_matches_reference(vertices, simplices):
    """Build one complex both ways and compare every reader; returns both."""
    simplices = [list(s) for s in simplices]
    k, ref = SimplicialComplex(vertices, simplices), ReferenceComplex(vertices, simplices)
    assert type(k).__slots__ == ("vertices", "faces")
    assert k.vertices == ref.vertices
    assert k.simplices == ref.simplices
    # faces[s]: the s-vertex simplices as sorted position tuples, in order
    sizes = {len(s) for s in ref.simplices}
    assert len(k.faces) == (max(sizes) + 1 if sizes else 0)
    for size, level in enumerate(k.faces):
        found = [tuple(sorted(map(ref.pos.__getitem__, s)))
                 for s in ref.simplices if len(s) == size]
        assert level == tuple(sorted(found))
    assert k.dim() == ref.dim()
    top = ref.k_simplices(0)
    assert boundary_matrix(k, 0) == QMatrix([[1] * len(top)], ncols=len(top))
    for deg in range(1, k.dim() + 3):
        top, low = ref.k_simplices(deg), ref.k_simplices(deg - 1)
        assert boundary_matrix(k, deg) == QMatrix(_boundary_rows(top, low), ncols=len(top))
    # the same complex from another listing of the same input
    again = SimplicialComplex(vertices[::-1], [s[::-1] for s in simplices[::-1]])
    assert again == k and hash(again) == hash(k)
    return k, ref


class TestFacesAgainstFrozensetReference:
    """The faces-by-size tuples against the frozenset closure they replaced."""

    def test_random_complexes(self, rng):
        built = []
        for _ in range(600):
            verts, faces = random_input(rng)
            built.append(assert_matches_reference(verts, faces))
        # equal exactly when the reference families are equal
        for (a, ref_a), (b, ref_b) in zip(built, built[1:] + built[:1]):
            same = (ref_a.vertices, ref_a.simplices) == (ref_b.vertices, ref_b.simplices)
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)
        assert any(a == b for (a, _), (b, _) in zip(built, built[1:]))

    @pytest.mark.parametrize("vertices, simplices, faces", [
        ([], [], ()),
        ([], [[]], (((),),)),
        ([0, 1], [[]], (((),), ((0,), (1,)))),
        ([0, 1, 2], [[2, 0], [1, 1, 0], [0]], (((),), ((0,), (1,), (2,)), ((0, 1), (0, 2)))),
        ([5, 3, 4], [(5, 4, 3, 4)], (((),), ((0,), (1,), (2,)),
                                     ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))),
        ("dcba", ["ab", "cb", "d"], (((),), ((0,), (1,), (2,), (3,)), ((0, 1), (1, 2)))),
        ([0, "a", (1, 2), None], [[None, "a"], ["a", 0, (1, 2)]],
         # vertex order by type name: None, 0, "a", (1, 2)
         (((),), ((0,), (1,), (2,), (3,)), ((0, 2), (1, 2), (1, 3), (2, 3)), ((1, 2, 3),))),
    ], ids=["void", "empty-simplex", "points-and-bare-empty", "unsorted-and-repeated",
            "repeated-vertex", "strings", "mixed-types"])
    def test_small_inputs(self, vertices, simplices, faces):
        k, _ = assert_matches_reference(vertices, simplices)
        assert k.faces == faces

    @pytest.mark.parametrize("vertices, simplices", [
        ([0], [[0, 1]]),
        ([0, 1], [[0], [2, 1, 0]]),
        ("ab", ["abc"]),
        ([], [[7]]),
    ])
    def test_unknown_vertex_keeps_the_message(self, vertices, simplices):
        with pytest.raises(InputError) as ours:
            SimplicialComplex(vertices, simplices)
        with pytest.raises(InputError) as theirs:
            ReferenceComplex(vertices, simplices)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("vertices, simplices, listed", [
        ([0], [[0, "a"]], "[0, 'a']"),
        ([0, "a"], [["a", None, (1, 2)]], "[None, 'a', (1, 2)]"),
    ], ids=["int-and-str", "none-str-tuple"])
    def test_unknown_vertex_of_mixed_types(self, vertices, simplices, listed):
        # vertices that do not compare are listed in vertex order, by type name
        with pytest.raises(InputError) as err:
            SimplicialComplex(vertices, simplices)
        assert str(err.value) == f"simplex {listed} uses unknown vertices"

    def test_a_generator_of_simplices_is_read_once(self):
        k = SimplicialComplex(range(3), (iter(s) for s in [(0, 1), (2,)]))
        assert k.faces == (((),), ((0,), (1,), (2,)), ((0, 1),))

    @pytest.mark.parametrize("comps", [
        k_equal_arrangement(6, 3),
        pencil_arrangement(5),
        [AffineSubspace.from_rows(4, [row, [0, 0, 0, 1, 0]])
         for row in [[1, i, 0, 0, 0] for i in range(5)] + [[0, 0, 1, 0, 0]]],
    ], ids=["k-equal-6-3", "pencil-5", "pencil-5-lifted"])
    def test_every_interval_complex(self, comps, monkeypatch):
        # record what the former interval body and order_complex hand the
        # constructor: crosscut and order complexes of every interval; the
        # bitmask faces the arrangement code ranks are the nonempty
        # simplices of the former complex's frozenset closure
        inputs = []

        def recorded(vertices, simplices):
            vertices, simplices = list(vertices), [list(s) for s in simplices]
            inputs.append((vertices, simplices))
            return SimplicialComplex(vertices, simplices)

        lattice = build_lattice(comps)
        pairs = list(_interval_complexes(lattice, lattice.proper_flats()))
        monkeypatch.setattr(test_arrangements, "SimplicialComplex", recorded)
        monkeypatch.setattr(posets, "SimplicialComplex", recorded)
        for flat, faces in pairs:
            list(reference_interval_complexes(lattice, [flat]))
            _, ref = assert_matches_reference(*inputs[-1])
            assert len(set(faces)) == len(faces)
            assert {frozenset(_bits(face)) for face in faces} == ref.simplices - {frozenset()}
            order_complex(lattice.poset, flat.id, lattice.top_id)
        assert len(inputs) == 2 * len(pairs) == 2 * len(lattice.proper_flats())
        for vertices, simplices in inputs[1::2]:  # order_complex's
            assert_matches_reference(vertices, simplices)
