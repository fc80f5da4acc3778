"""The names the benchmark's tracer wraps exist in invar.

`bench/spans.py` replaces every (module, attribute path) of its TARGETS
list with a traced wrapper, looking the last part up in its owner's own
`__dict__`, and its result counts read `IntersectionLattice.poset`.  A
missing name would otherwise show only when a traced benchmark run crashes.
The list is read from the source with `ast`, so nothing under bench/ is
imported or written.
"""

import ast
import importlib
from pathlib import Path

from invar.arrangements import IntersectionLattice

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_targets():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS list")


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
