"""JSON file formats for arrangements, fans, and invariant tables.

All rational data travels as integers or "p/q" strings; floating point
literals, NaN and Infinity included, are rejected outright so nothing in the
pipeline ever rounds.  A file is UTF-8 text without a byte order mark; CRLF
and CR line endings read as LF.  An integer literal longer than
`sys.get_int_max_str_digits()` digits, as a number or in a "p/q" string,
is an InputError that names the limit.

The readers check a document's shape only: keys are present, values that
must be lists are lists and a table's entries are (dim+1)x(dim+1).  Every
other value goes once to the constructor that owns its check (`AffineSubspace`,
`Fan3`, `InvariantTable`); `Fan3` also rescales a non-primitive ray, with an
InputWarning.  A table's dim, ambient_dim, betti and bound, which no
constructor reads here, go through the checks the library makes of them
(`errors._int`; `errors._betti` once betti is a list).  The readers add only
the subspace's label to its messages.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence

from .arrangements import AffineSubspace
from .errors import InputError, _ECHO_CHARS, _betti, _echo, _int
from .fans import Fan3
from .tables import InvariantTable


def _reject_float(text: str):
    raise InputError(
        f"floating point literal {_echo(text)} is not allowed; use integers or 'p/q' strings"
    )


# json.load builds a fresh decoder whenever it gets a parse_* argument
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def load_json(path: str) -> dict:
    """The top-level JSON object of a file.  Documents and error texts are
    those of json.load on the file opened in text mode.  `decode` runs only
    to raise "Extra data" when more than " \\t\\n\\r" follows the document."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    if "\r" in text:  # text mode's universal newlines; keeps error positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        if text.startswith("\ufeff"):  # json.loads checks this, JSONDecoder does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc, end = _DECODER.raw_decode(text, len(text) - len(text.lstrip(" \t\n\r")))
        if text[end:].strip(" \t\n\r"):
            _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except InputError:  # a float literal, from _reject_float
        raise
    except ValueError as exc:  # the only other ValueError: int() past the digit limit
        raise InputError(
            f"{path} has an integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests arrays or objects too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def parse_arrangement(doc: dict) -> tuple[int, list[AffineSubspace], list[str]]:
    """Read an arrangement file: ambient_dim plus named equation systems."""
    try:
        n = doc["ambient_dim"]
        subspaces = doc["subspaces"]
    except KeyError as exc:
        raise InputError(f"arrangement file is missing key {exc}") from exc
    AffineSubspace.ambient(n)  # checks ambient_dim before the subspaces, unlabelled
    if not isinstance(subspaces, list) or not subspaces:
        raise InputError("subspaces must be a nonempty list")
    components = []
    names = []
    for i, entry in enumerate(subspaces):
        if not isinstance(entry, dict) or "equations" not in entry:
            raise InputError(f"subspace {i} must be an object with an 'equations' key")
        name = entry.get("name", f"subspace {i}")
        # a name is shown as it is in messages, up to the echo cap
        label = name if len(str(name)) <= _ECHO_CHARS else _echo(name)
        rows = entry["equations"]
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise InputError(f"{label}: equations must be a nonempty list of rows")
        try:
            components.append(AffineSubspace.from_rows(n, rows))
        except InputError as exc:
            raise InputError(f"{label}: {exc}") from exc
        names.append(name)
    return n, components, names


def parse_fan(doc: dict) -> Fan3:
    """Read a fan file: integer rays plus maximal cones as ray index lists.
    `Fan3` rescales a non-primitive ray, with an InputWarning."""
    try:
        rays = doc["rays"]
        cones = doc["max_cones"]
    except KeyError as exc:
        raise InputError(f"fan file is missing key {exc}") from exc
    if not isinstance(rays, list) or not rays:
        raise InputError("rays must be a nonempty list of integer 3-vectors")
    if not isinstance(cones, list) or not cones:
        raise InputError("max_cones must be a nonempty list of ray index lists")
    for k, cone in enumerate(cones):
        if not isinstance(cone, list) or not cone:
            raise InputError(f"maximal cone {k} must be a nonempty list of ray indices")
    return Fan3(rays, cones)


def parse_table(doc: dict) -> tuple[InvariantTable, int | None, list[int] | None, int | None]:
    """Read a table file; returns (table, ambient_dim, betti, bound)."""
    try:
        kind = doc["kind"]
        dim = doc["dim"]
        entries = doc["entries"]
    except KeyError as exc:
        raise InputError(f"table file is missing key {exc}") from exc
    size = _int(dim, "dim", 0) + 1
    if not (isinstance(entries, list) and len(entries) == size
            and all(isinstance(r, list) and len(r) == size for r in entries)):
        raise InputError(f"entries must be a {size}x{size} array matching dim")
    table = InvariantTable(kind, entries)
    ambient, betti, bound = (doc.get(key) for key in ("ambient_dim", "betti", "bound"))
    if ambient is not None:
        _int(ambient, "ambient_dim", 1)
    if betti is not None:
        if not isinstance(betti, list):
            raise InputError("betti must be a list")
        _betti(betti)
    if bound is not None:
        _int(bound, "bound", 0)
    return table, ambient, betti, bound


def dumps_table(table: InvariantTable, notes: Sequence[str] = ()) -> str:
    """Serialize a table as a single JSON document with stable key order."""
    return json.dumps(table.as_json_dict(notes))


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc)
