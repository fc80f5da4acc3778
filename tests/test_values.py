"""The immutability contract of the package's frozen classes.

Every field is read-only and undeletable, and no attribute can be added.
The value classes compare and hash by their fields; `FinitePoset`,
`IntersectionLattice` and `SpectralState` compare by identity.
"""

from dataclasses import fields

import pytest

from invar.arrangements import AffineSubspace, build_lattice
from invar.fans import Fan3
from invar.posets import BettiVector, FinitePoset, SimplicialComplex
from invar.qlinalg import QMatrix
from invar.tables import InvariantTable, SpectralState


def lattice(k):
    return build_lattice([AffineSubspace.from_rows(2, [[1, 0, 0]]),
                          AffineSubspace.from_rows(2, [[0, 1, k]])])


# (builder from an int, compares by value); k = 0 and k = 1 give different inputs
CASES = {
    "QMatrix": (lambda k: QMatrix([[1, k], ["1/2", 0]]), True),
    "SimplicialComplex": (lambda k: SimplicialComplex("abc", [["ab"], ["bc"]][k]), True),
    "BettiVector": (lambda k: BettiVector([0, 1 + k, 0]), True),
    "AffineSubspace": (lambda k: AffineSubspace.from_rows(3, [[1, k, 0, "1/3"]]), True),
    "Fan3": (lambda k: Fan3([(1, 0, 0), (0, 1, 0), (0, 0, 1 + k)], [[2, 0, 1]]), True),
    "InvariantTable": (lambda k: InvariantTable("lyubeznik", [[0, k], [0, 1]]), True),
    "FinitePoset": (lambda k: FinitePoset("abc", [("a", "b"), ("b", "c")]), False),
    "IntersectionLattice": (lattice, False),
    "SpectralState": (lambda k: SpectralState("lyubeznik", 2, [[0, 0], [0, 1]]), False),
}


@pytest.mark.parametrize("make, by_value", CASES.values(), ids=list(CASES))
def test_frozen_value_contract(make, by_value):
    a, b, other = make(0), make(0), make(1)
    names = [f.name for f in fields(a)]
    assert names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    # a name outside the slots is refused too; CPython's frozen-slots
    # __setattr__ raises TypeError for it up to 3.13 at least
    with pytest.raises((AttributeError, TypeError)):
        a.extra = None
    assert not hasattr(a, "extra")
    assert a == a and a != object()
    if by_value:
        assert a == b and hash(a) == hash(b)
        assert a != other
    else:
        assert a != b and len({a, b}) == 2
