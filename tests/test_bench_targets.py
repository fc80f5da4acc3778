"""The names the benchmark reads from invar exist in invar.

`bench/spans.py` replaces every (module, attribute path) of its TARGETS
list with a traced wrapper, looking the last part up in its owner's own
`__dict__`, and its result counts read attributes of what the traced
functions return, such as `IntersectionLattice.poset`.  `bench/oracles.py`
imports `InvariantTable`, `SpectralState` and `differential_target` to
replay witnesses.  A missing name would otherwise show only when a
benchmark run crashes.  The sources are read with `ast`, so nothing under
bench/ is imported or written.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

from invar.arrangements import IntersectionLattice

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _assigned(name):
    """The value node of the module-level assignment to `name` in bench/spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"bench/spans.py defines no {name}")


def traced_targets():
    return ast.literal_eval(_assigned("TARGETS"))


def _returned(fn):
    """The invar class whose instance `fn` returns, by its annotation, or None."""
    hint = typing.get_type_hints(fn).get("return")
    return hint if isinstance(hint, type) and hint.__module__.startswith("invar.") else None


class _Reads:
    """Every attribute bench code reads from an invar module, class,
    function or instance, found by following imports, calls and
    assignments through return annotations."""

    def __init__(self):
        self.checked: set[str] = set()
        self.missing: set[str] = set()

    def value(self, node, names):
        """What an expression stands for in invar: a module, a function or a
        class, which also stands for its instances; None when not invar's."""
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Call):
            fn = self.value(node.func, names)
            if isinstance(fn, type):
                return fn
            return _returned(fn) if callable(fn) else None
        if not isinstance(node, ast.Attribute):
            return None
        owner = self.value(node.value, names)
        if owner is None:
            return None
        name = f"{owner.__name__}.{node.attr}"
        self.checked.add(name)
        if not hasattr(owner, node.attr):
            self.missing.add(name)
            return None
        static = inspect.getattr_static(owner, node.attr)
        if isinstance(static, property):
            return _returned(static.fget)
        member = getattr(owner, node.attr)
        return member if inspect.ismodule(member) or callable(member) else None

    def imports(self, scope, names):
        """Check every name a scope imports from invar, and bind it in `names`."""
        for node in _nodes(scope):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invar":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    self.checked.add(f"{node.module}.{alias.name}")
                    if not hasattr(module, alias.name):
                        self.missing.add(f"{node.module}.{alias.name}")
                    names[alias.asname or alias.name] = getattr(module, alias.name, None)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "invar":
                        importlib.import_module(alias.name)
                        names[alias.asname or "invar"] = importlib.import_module(
                            alias.name if alias.asname else "invar")

    def scope(self, scope, names):
        """Check every read in a module or function body, given the invar
        names bound outside it; a variable assigned an invar value takes it."""
        names = dict(names)
        self.imports(scope, names)
        assignments = [node for node in _nodes(scope) if isinstance(node, ast.Assign)
                       and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)]
        for node in sorted(assignments, key=lambda node: node.lineno):  # in source order
            value = self.value(node.value, names)
            if value is not None:
                names[node.targets[0].id] = value
        for node in _nodes(scope):
            if isinstance(node, ast.Attribute):
                self.value(node, names)
        return names


def _nodes(scope):
    """The nodes of a module or function body, not those of the functions it defines."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_every_traced_name_exists():
    targets = traced_targets()
    assert targets
    for module_name, path, _ in targets:
        owner = importlib.import_module(f"invar.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"invar.{module_name}.{path}"


def test_lattice_keeps_its_poset():
    assert hasattr(IntersectionLattice, "poset")


def test_every_name_the_bench_reads_exists():
    reads = _Reads()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = reads.scope(tree, {})
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads.scope(node, names)
    # each result count reads what its traced function returns
    spans = {span: (module, path) for module, path, span in traced_targets()}
    counts = _assigned("RESULT_COUNTS")
    for span, readers in zip(counts.keys, counts.values):
        module, path = spans[ast.literal_eval(span)]
        fn = importlib.import_module(f"invar.{module}")
        for part in path.split("."):
            fn = getattr(fn, part)
        for reader in readers.values:
            names = {reader.args.args[0].arg: _returned(fn)}
            for node in ast.walk(reader.body):
                if isinstance(node, ast.Attribute):
                    reads.value(node, names)
    assert not reads.missing, sorted(reads.missing)
    assert {
        "invar.InvariantTable", "invar.SpectralState", "invar.tables.differential_target",
        "SpectralState.start", "SpectralState.apply_page", "SpectralState.entries",
        "IntersectionLattice.flats", "IntersectionLattice.poset", "FinitePoset.less",
        "SimplicialComplex.simplices", "QMatrix.nrows", "QMatrix.ncols",
        "DeductionResult.nodes", "DeductionResult.feasible_count",
    } <= reads.checked, sorted(reads.checked)
