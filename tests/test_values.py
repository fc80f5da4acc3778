"""The immutability contract of the package's frozen classes.

Every field is read-only and undeletable, and no attribute can be added.
The value classes compare and hash by their fields; `FinitePoset`,
`IntersectionLattice` and `SpectralState` compare by identity.  Every
class survives pickle and `copy.deepcopy`.  The field names, in order, and
the repr of each class without its own `__repr__` are pinned.
"""

import copy
import pickle

import pytest

from invar.arrangements import AffineSubspace, Flat, IntersectionLattice, build_lattice
from invar.fans import Fan3, FanReport, PicardData, Wall
from invar.posets import BettiVector, FinitePoset, SimplicialComplex
from invar.qlinalg import QMatrix
from invar.tables import (
    DeductionResult, InvariantTable, LinearRelation, OgusBounds, SpectralState,
)


def lattice(k):
    return build_lattice([AffineSubspace.from_rows(2, [[1, 0, 0]]),
                          AffineSubspace.from_rows(2, [[0, 1, k]])])


def deduction(k):
    return DeductionResult(((0, 1),), 10, False, 1, {(0, 1): k}, (), ((k,),), False, 1, (k,), ())


# (builder from an int, compares by value); k = 0 and k = 1 give different inputs
CASES = {
    "QMatrix": (lambda k: QMatrix([[1, k], ["1/2", 0]]), True),
    "SimplicialComplex": (lambda k: SimplicialComplex("abc", [["ab"], ["bc"]][k]), True),
    "BettiVector": (lambda k: BettiVector([0, 1 + k, 0]), True),
    "AffineSubspace": (lambda k: AffineSubspace.from_rows(3, [[1, k, 0, "1/3"]]), True),
    "Flat": (lambda k: Flat(k, AffineSubspace.from_rows(2, [[1, 0, 0]])), True),
    "Fan3": (lambda k: Fan3([(1, 0, 0), (0, 1, 0), (0, 1, 1 + k)], [[2, 0, 1]]), True),
    "Wall": (lambda k: Wall(cones=(0, 1), rays=(2, 3 + k)), True),
    "FanReport": (lambda k: FanReport(True, True, (), (Wall((0, 1), (2, 3)),), ((k,),)), True),
    "PicardData": (lambda k: PicardData(1 + k, 1, True), True),
    "InvariantTable": (lambda k: InvariantTable("lyubeznik", [[0, k], [0, 1]]), True),
    "OgusBounds": (lambda k: OgusBounds(1, 2, 3 + k), True),
    "LinearRelation": (lambda k: LinearRelation((((0, 1), 1),), k), True),
    "DeductionResult": (deduction, True),
    "FinitePoset": (lambda k: FinitePoset("abc", [("a", "b"), ("b", "c")]), False),
    "IntersectionLattice": (lattice, False),
    "SpectralState": (lambda k: SpectralState("lyubeznik", 2, [[0, 0], [0, 1]]), False),
}

# the field names of every frozen class, in order
FIELDS = {
    "QMatrix": ("entries", "nrows", "ncols"),
    "SimplicialComplex": ("vertices", "faces"),
    "BettiVector": ("values",),
    "AffineSubspace": ("ambient_dim", "rows"),
    "Flat": ("id", "subspace"),
    "Fan3": ("rays", "max_cones"),
    "Wall": ("cones", "rays"),
    "FanReport": ("valid", "complete", "violations", "walls", "facet_normals"),
    "PicardData": ("picard_rank", "class_rank", "projective"),
    "InvariantTable": ("kind", "entries"),
    "OgusBounds": ("f_y", "v_y", "ambient_dim"),
    "LinearRelation": ("coeffs", "const"),
    "DeductionResult": ("unknown_cells", "bound", "contradiction", "feasible_count", "forced",
                        "identities", "completions", "truncated", "nodes", "_first", "_diffs"),
    "FinitePoset": ("elements", "less"),
    "IntersectionLattice": ("ambient_dim", "flats", "top_id", "masks", "up"),
    "SpectralState": ("kind", "page", "entries", "history"),
}

# the repr of each class without its own __repr__, on a fixed instance
REPRS = [
    (lambda: Flat(0, AffineSubspace.from_rows(2, [[1, 0, 0]])),
     "Flat(id=0, subspace=AffineSubspace(n=2, dim=1))"),
    (lambda: build_lattice([AffineSubspace.from_rows(2, [[1, 0, 0]]),
                            AffineSubspace.from_rows(2, [[0, 1, 0]])]),
     "IntersectionLattice(ambient_dim=2, flats=(Flat(id=0, subspace=AffineSubspace(n=2, dim=0)),"
     " Flat(id=1, subspace=AffineSubspace(n=2, dim=1)), Flat(id=2, subspace=AffineSubspace(n=2,"
     " dim=1)), Flat(id=3, subspace=AffineSubspace(n=2, dim=2))), top_id=3, masks=(3, 2, 1, 0),"
     " up=(14, 8, 8, 0))"),
    (lambda: Wall(cones=(0, 1), rays=(2, 3)), "Wall(cones=(0, 1), rays=(2, 3))"),
    (lambda: FanReport(True, True, (), (Wall((0, 1), (2, 3)),), (((1, 0, 0), (0, 1, 0)),)),
     "FanReport(valid=True, complete=True, violations=(), walls=(Wall(cones=(0, 1), rays=(2, 3)),),"
     " facet_normals=(((1, 0, 0), (0, 1, 0)),))"),
    (lambda: PicardData(picard_rank=1, class_rank=1, projective=True),
     "PicardData(picard_rank=1, class_rank=1, projective=True)"),
    (lambda: FinitePoset([0, 1, 2], [(0, 1), (1, 2)]),
     "FinitePoset(elements=(0, 1, 2), less=frozenset({(0, 1), (0, 2), (1, 2)}))"),
    (lambda: SimplicialComplex("abc", [["a", "b"], ["c"]]),
     "SimplicialComplex(vertices=('a', 'b', 'c'), faces=(((),), ((0,), (1,), (2,)), ((0, 1),)))"),
    (lambda: OgusBounds(1, 2, 3), "OgusBounds(f_y=1, v_y=2, ambient_dim=3)"),
    (lambda: SpectralState("lyubeznik", 2, [[0, 0], [0, 1]]),
     "SpectralState(kind='lyubeznik', page=2, entries=((0, 0), (0, 1)), history=())"),
    (lambda: LinearRelation((((0, 1), 1), ((1, 1), -1)), 2),
     "LinearRelation(coeffs=(((0, 1), 1), ((1, 1), -1)), const=2)"),
    (lambda: DeductionResult(((0, 1),), 10, False, 1, {(0, 1): 0}, (), ((0,),), False, 1,
                             (0,), ((1,),)),
     "DeductionResult(unknown_cells=((0, 1),), bound=10, contradiction=False, feasible_count=1,"
     " forced={(0, 1): 0}, identities=(), completions=((0,),), truncated=False, nodes=1)"),
]


def fields_of(name, value):
    return [getattr(value, field) for field in FIELDS[name]]


def test_every_case_has_pinned_fields():
    assert set(CASES) == set(FIELDS)


@pytest.mark.parametrize("name", list(FIELDS))
def test_field_names_in_order(name):
    value = CASES[name][0](0)
    assert type(value).__name__ == name
    assert type(value).__slots__ == FIELDS[name]
    assert not hasattr(value, "__dict__")
    fields_of(name, value)


@pytest.mark.parametrize("make, expected", REPRS, ids=[r.split("(")[0] for _, r in REPRS])
def test_repr(make, expected):
    assert repr(make()) == expected


@pytest.mark.parametrize("name", list(CASES))
def test_frozen_value_contract(name):
    make, by_value = CASES[name]
    a, b, other = make(0), make(0), make(1)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    assert not hasattr(a, "extra")
    assert a == a and a != object()
    if not by_value:
        assert a != b and len({a, b}) == 2
    elif name == "DeductionResult":
        # its `forced` field is a dict, so it compares by value but has no hash
        assert a == b and a != other
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b)
        assert a != other


@pytest.mark.parametrize("name", list(CASES))
def test_pickle_and_deepcopy_round_trip(name):
    make, by_value = CASES[name]
    a = make(0)
    copies = [pickle.loads(pickle.dumps(a, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(copy.deepcopy(a))
    for c in copies:
        assert type(c) is type(a)
        assert fields_of(name, c) == fields_of(name, a)
        if by_value:
            assert c == a
        with pytest.raises(AttributeError):
            setattr(c, FIELDS[name][0], None)
