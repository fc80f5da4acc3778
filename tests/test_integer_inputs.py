"""The one integer check: `errors._is_int` and `errors._int`.

Every public argument that must be an integer refuses a bool, a float, a
digit string and None with an InputError, never a TypeError.  Outside
`errors`, no module of the package spells the test out: only
`qlinalg.parse_rational` asks `isinstance(..., bool)`, as it refuses a bool
as a rational, and no module asks `type(x) is int`.
"""

import ast
from pathlib import Path

import pytest

import invar
from invar import (
    AffineSubspace,
    BettiVector,
    Fan3,
    FinitePoset,
    InputError,
    InvariantTable,
    OgusBounds,
    QMatrix,
    SimplicialComplex,
    SpectralState,
    canonical_small_tables,
    check_cdr,
    complement_betti,
    deduce_lambda,
    differential_target,
)
from invar.errors import _int, _is_int
from invar.fans import fm_feasible
from invar.fileio import parse_table
from invar.posets import boundary_matrix


class Count(int):
    """An int subclass other than bool: it passes the integer check."""


class TestOwner:
    @pytest.mark.parametrize("value", [0, -3, 2**70, Count(2)])
    def test_ints_pass(self, value):
        assert _is_int(value)
        assert _int(value, "x") is value

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, [1], 1j])
    def test_anything_else_fails(self, value):
        assert not _is_int(value)

    @pytest.mark.parametrize("value, least, text", [
        ("1", None, "x must be an integer, got '1'"),
        (True, None, "x must be an integer, got True"),
        (-1, 0, "x must be a nonnegative integer, got -1"),
        (0, 1, "x must be a positive integer, got 0"),
        (1, 2, "x must be an integer of at least 2, got 1"),
        (2.5, 2, "x must be an integer of at least 2, got 2.5"),
        ("x" * 5000, 0, "x must be a nonnegative integer, got '" + "x" * 59 + "…"),
    ])
    def test_refusal_text(self, value, least, text):
        with pytest.raises(InputError) as err:
            _int(value, "x", least)
        assert str(err.value) == text

    @pytest.mark.parametrize("least", [0, 1, 2])
    def test_least_is_allowed(self, least):
        assert _int(least, "x", least) == least

    def test_with_entries_accepts_an_int_subclass(self):
        table = InvariantTable("lyubeznik", [[0, None], [0, 1]])
        assert table.with_entries({(Count(0), Count(1)): 0}).entries == ((0, 0), (0, 1))


LAMBDA = InvariantTable("lyubeznik", [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
CDR = InvariantTable("cdr", [[1]])
STATE = SpectralState.start(LAMBDA)
DEDUCTION = deduce_lambda(InvariantTable("lyubeznik", [[0, None], [0, None]]))

# every public argument that must be an integer, as a function of its value
INTEGER_ARGUMENTS = {
    "OgusBounds f_y": lambda v: OgusBounds(v, 1, 3),
    "OgusBounds v_y": lambda v: OgusBounds(0, v, 3),
    "OgusBounds ambient_dim": lambda v: OgusBounds(0, 1, v),
    "BettiVector": BettiVector,
    "BettiVector entry": lambda v: BettiVector([1, v]),
    "BettiVector degree": lambda v: BettiVector([0, 1])[v],
    "check_cdr betti": lambda v: check_cdr(CDR, v, 1),
    "check_cdr betti entry": lambda v: check_cdr(CDR, [0, v], 1),
    "check_cdr n": lambda v: check_cdr(CDR, [0, 1], v),
    "complement_betti": lambda v: complement_betti(CDR, v),
    "deduce_lambda bound": lambda v: deduce_lambda(LAMBDA, v),
    "deduce_lambda search_limit": lambda v: deduce_lambda(LAMBDA, search_limit=v),
    "canonical_small_tables dim_y": canonical_small_tables,
    "canonical_small_tables a": lambda v: canonical_small_tables(2, v),
    "SpectralState page": lambda v: SpectralState("lyubeznik", v, [[1]]),
    "SpectralState entry": lambda v: SpectralState("lyubeznik", 2, [[v]]),
    "apply_page rank": lambda v: STATE.apply_page({(0, 1): v}),
    "apply_page cell": lambda v: STATE.apply_page({(0, v): 0}),
    "differential_target": lambda v: differential_target("cdr", v, (0, 0)),
    "differential_target cell": lambda v: differential_target("cdr", 2, (v, 0)),
    "InvariantTable.entry p": lambda v: LAMBDA.entry(v, 0),
    "InvariantTable.entry q": lambda v: LAMBDA.entry(0, v),
    "with_entries cell": lambda v: LAMBDA.with_entries({(v, 0): 0}),
    "InvariantTable entry": lambda v: InvariantTable("cdr", [[v]]),
    "AffineSubspace": lambda v: AffineSubspace(v, []),
    "AffineSubspace.from_rows": lambda v: AffineSubspace.from_rows(v, [[1, 0]]),
    "AffineSubspace.ambient": AffineSubspace.ambient,
    "Fan3 ray": lambda v: Fan3([[1, 0, v]], []),
    "Fan3 cone index": lambda v: Fan3([[1, 0, 0]], [[v]]),
    "boundary_matrix degree": lambda v: boundary_matrix(SimplicialComplex("ab", ["ab"]), v),
    "FinitePoset.from_up_sets": lambda v: FinitePoset.from_up_sets([0, 1], [v, 0]),
    "QMatrix ncols": lambda v: QMatrix([], ncols=v),
    "fm_feasible nvars": lambda v: fm_feasible([], v),
    "parse_table dim": lambda v: parse_table({"kind": "cdr", "dim": v, "entries": [[1]]}),
    "DeductionResult.implies coeff": lambda v: DEDUCTION.implies({(0, 1): v}),
    "DeductionResult.implies const": lambda v: DEDUCTION.implies({}, v),
}


# None is the default bound and search limit, an unknown table entry, and
# a matrix width read off the rows
NONE_ALLOWED = {
    "deduce_lambda bound", "deduce_lambda search_limit", "InvariantTable entry", "QMatrix ncols",
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in sorted(INTEGER_ARGUMENTS) for value in (True, 1.5, "1", None)
    if value is not None or name not in NONE_ALLOWED
])
def test_every_integer_argument_refuses_a_non_integer(name, value):
    with pytest.raises(InputError):
        INTEGER_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", sorted(NONE_ALLOWED))
def test_none_is_accepted_where_it_means_a_default_or_an_unknown(name):
    INTEGER_ARGUMENTS[name](None)


@pytest.mark.parametrize("call, text", [
    (lambda: AffineSubspace.from_rows(0, []), "ambient_dim must be a positive integer, got 0"),
    (lambda: parse_table({"kind": "cdr", "dim": -1, "entries": []}),
     "dim must be a nonnegative integer, got -1"),
    (lambda: fm_feasible([], -1), "nvars must be a nonnegative integer, got -1"),
    (lambda: DEDUCTION.implies({(0, 1): "a"}),
     "coefficient of cell (0, 1) must be an integer, got 'a'"),
    (lambda: DEDUCTION.implies({}, "x"), "const must be an integer, got 'x'"),
], ids=["zero ambient_dim", "negative dim", "negative nvars", "str coefficient", "str const"])
def test_index_and_count_refusals(call, text):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == text


def test_integer_arguments_that_pass():
    assert AffineSubspace.from_rows(Count(1), [[1, 0]]).dim == 0
    assert parse_table({"kind": "cdr", "dim": 0, "entries": [[1]]})[0].d == 0
    assert fm_feasible([((1,), 0)], 1) == [0]
    assert fm_feasible([], 0) == []
    assert DEDUCTION.implies({(0, 1): 1}, 0) and not DEDUCTION.implies({(0, 1): 1}, -1)


SOURCES = sorted(Path(invar.__file__).parent.glob("*.py"))


def _isinstance_bool_calls(tree):
    """The top-level definition holding each isinstance call whose class argument names bool."""
    return [
        getattr(top, "name", None)
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    ]


def _type_is_int(tree):
    """The functions holding a comparison `type(x) is int`."""
    return {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
        and any(isinstance(op, ast.Is) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    }


def test_only_errors_and_parse_rational_ask_for_bool():
    calls = {path.stem: _isinstance_bool_calls(ast.parse(path.read_bytes()))
             for path in SOURCES}
    assert calls.pop("errors") == ["_is_int"]
    assert calls.pop("qlinalg") == ["parse_rational"]
    assert not any(calls.values()), calls


def test_no_module_asks_type_is_int():
    found = {path.stem: _type_is_int(ast.parse(path.read_bytes())) for path in SOURCES}
    assert not any(found.values()), found
