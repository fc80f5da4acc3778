"""The file reader and the document readers against the code they replaced.

`load_json` reads bytes and decodes them itself; `reference_load_json` is
the text-mode `json.load` it replaced.  On every file of the corpus both
must return an equal document or raise an `InputError` with identical text,
except on a path with a NUL in it, where the reference crashes.

`parse_arrangement`, `parse_fan` and `parse_table` check only the shape of a
document and leave every value check to the constructors.  The
`reference_parse_*` functions are the readers that checked every value
themselves first.  On a generated corpus of malformed documents both must
return equal values, raise identical `InputError` texts and warn alike,
except on the cases named in `CHANGED`.

`dumps_table` writes its document as text; on seeded random tables and notes
it must give what `json.dumps(reference_json_dict(table, notes))` gives, byte
for byte, and read back as that dict.

The module imports nothing outside the standard library and `invar`, so the
comparisons also run without pytest: pass any fresh directory as `tmp_path`.
"""

import copy
import io
import json
import random
import re
import sys
import warnings
from contextlib import redirect_stderr
from math import gcd

from invar import cli
from invar.arrangements import AffineSubspace
from invar.errors import _ECHO_CHARS, InputError, InputWarning, _echo
from invar.fans import Fan3
from invar.fileio import (
    _CHUNK,
    _reject_float,
    dumps_table,
    load_json,
    parse_arrangement,
    parse_fan,
    parse_table,
)
from invar.tables import KIND_CDR, KIND_LYUBEZNIK, InvariantTable


def reference_load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests arrays or objects too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def reference_parse_arrangement(doc: dict) -> tuple[int, list[AffineSubspace], list[str]]:
    try:
        n = doc["ambient_dim"]
        subspaces = doc["subspaces"]
    except KeyError as exc:
        raise InputError(f"arrangement file is missing key {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("ambient_dim must be a positive integer")
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
        if not isinstance(rows, list) or not rows:
            raise InputError(f"{label}: equations must be a nonempty list of rows")
        for row in rows:
            if not isinstance(row, list) or len(row) != n + 1:
                raise InputError(
                    f"{label}: every equation row needs exactly {n + 1} entries "
                    "(coefficients then constant)"
                )
        try:
            components.append(AffineSubspace.from_rows(n, rows))
        except InputError as exc:
            raise InputError(f"{label}: {exc}") from exc
        names.append(name)
    return n, components, names


def reference_parse_fan(doc: dict) -> Fan3:
    try:
        rays = doc["rays"]
        cones = doc["max_cones"]
    except KeyError as exc:
        raise InputError(f"fan file is missing key {exc}") from exc
    if not isinstance(rays, list) or not rays:
        raise InputError("rays must be a nonempty list of integer 3-vectors")
    if not isinstance(cones, list) or not cones:
        raise InputError("max_cones must be a nonempty list of ray index lists")
    clean_rays = []
    for i, ray in enumerate(rays):
        if (
            not isinstance(ray, list)
            or len(ray) != 3
            or any(not isinstance(x, int) or isinstance(x, bool) for x in ray)
        ):
            raise InputError(f"ray {i} must be a list of three integers")
        if ray == [0, 0, 0]:
            raise InputError(f"ray {i} is the zero vector")
        g = gcd(*ray)
        prim = tuple(x // g for x in ray)
        if tuple(ray) != prim:
            warnings.warn(f"ray {i} = {ray} rescaled to primitive {list(prim)}", InputWarning)
        clean_rays.append(prim)
    clean_cones = []
    for k, cone in enumerate(cones):
        if not isinstance(cone, list) or not cone:
            raise InputError(f"maximal cone {k} must be a nonempty list of ray indices")
        for idx in cone:
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(rays):
                raise InputError(f"maximal cone {k} has a ray index out of range: {_echo(idx)}")
        clean_cones.append(cone)
    return Fan3(clean_rays, clean_cones)


def reference_parse_table(doc: dict):
    try:
        kind = doc["kind"]
        dim = doc["dim"]
        entries = doc["entries"]
    except KeyError as exc:
        raise InputError(f"table file is missing key {exc}") from exc
    if kind not in (KIND_LYUBEZNIK, KIND_CDR):
        raise InputError(f"kind must be '{KIND_LYUBEZNIK}' or '{KIND_CDR}', got {_echo(kind)}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError("dim must be a nonnegative integer")
    if (
        not isinstance(entries, list)
        or len(entries) != dim + 1
        or any(not isinstance(r, list) or len(r) != dim + 1 for r in entries)
    ):
        raise InputError(f"entries must be a {dim + 1}x{dim + 1} array matching dim")
    for row in entries:
        for v in row:
            if v is None:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputError(
                    f"table entries must be nonnegative integers or null, got {_echo(v)}"
                )
    table = InvariantTable(kind, entries)
    ambient = doc.get("ambient_dim")
    if ambient is not None and (
        not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1
    ):
        raise InputError("ambient_dim must be a positive integer")
    betti = doc.get("betti")
    if betti is not None:
        if not isinstance(betti, list) or any(
            not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in betti
        ):
            raise InputError("betti must be a list of nonnegative integers")
    bound = doc.get("bound")
    if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool) or bound < 0):
        raise InputError("bound must be a nonnegative integer")
    return table, ambient, betti, bound


# one document of each input kind the commands read
DOCS = {
    "arrangement": {
        "ambient_dim": 3,
        "subspaces": [
            {"name": "x=0", "equations": [[1, 0, 0, 0]]},
            {"name": "line", "equations": [[1, -1, 0, "1/2"], [0, 0, 1, -3]]},
        ],
    },
    "fan": {
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    },
    "lyubeznik": {"kind": "lyubeznik", "dim": 2, "entries": [[0, 1, 0], [0, 0, 0], [0, 0, 2]]},
    "cdr": {"kind": "cdr", "dim": 2, "ambient_dim": 3,
            "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]], "betti": [0, 3, 3, 1]},
    "deduce": {"kind": "lyubeznik", "dim": 2, "entries": [[0, None, 0], [0, 0, 0], [0, 0, None]],
               "bound": 4, "name": "unicode é€\U0001d11e"},
}

VALID = b'{"ambient_dim": 1, "subspaces": [{"equations": [[1, 0]]}], '


LONG_PREFIX = b'{"a": "'
LONG_TEXT = "x" * (_CHUNK - 1 - len(LONG_PREFIX)) + "é" + "y" * (2 * _CHUNK)


def corpus() -> dict[str, bytes]:
    cases = {}
    for kind, doc in DOCS.items():
        cases[kind] = json.dumps(doc).encode("utf-8")
        # multi-line files: valid, then cut short and with a stray token,
        # each with LF, CRLF and lone-CR line ends
        lines = json.dumps(doc, indent=2, ensure_ascii=False).encode("utf-8")
        for end in (b"\r\n", b"\r"):
            assert end not in lines
        for variant, text in (("valid", lines), ("cut", lines[:-7]),
                              ("stray", lines.replace(b"[", b"[ ] ", 1))):
            for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
                cases[f"{kind}-{variant}-{name}"] = text.replace(b"\n", end)
    body = json.dumps(DOCS["arrangement"]).encode("utf-8")
    cases.update({
        "bom": b"\xef\xbb\xbf" + body,
        "bom-crlf": b"\xef\xbb\xbf{\r\n}",
        "cr-only-blank-lines": b"\r\r{\r\r\"a\": 1\r}\r\r",
        "mixed-line-ends": b'{\r\n"a": 1,\r"b": 2,\n"c": [\r\n\r1,\n2\r]}',
        "cr-in-string": b'{"a": "x\ry"}',
        "crlf-in-string": b'{"a": "x\r\ny"}',
        "not-utf8-start": b"\xff" + body,
        "not-utf8-middle": body[:20] + b"\xfe\xff" + body[20:],
        "not-utf8-cut-at-end": body[:-1] + b'"\xe2\x82',
        "not-utf8-surrogate": b'{"a": "\xed\xa0\x80"}',
        "nan": VALID + b'"unused": NaN}',
        "infinity": VALID + b'"unused": Infinity}',
        "minus-infinity": VALID + b'"unused": -Infinity}',
        "float": VALID + b'"unused": 1.5}',
        "exponent": VALID + b'"unused": 1e3}',
        "deep-nesting": b"[" * 10**5 + b"]" * 10**5,
        "deep-nesting-crlf": b"[\r\n" * 10**5 + b"]\r\n" * 10**5,
        "top-level-array": b"[1, 2, 3]",
        "top-level-string": b'"text"',
        "empty": b"",
        "only-crlf": b"\r\n\r\n",
        "only-bom": b"\xef\xbb\xbf",
        "trailing-data": body + b"\r\n{}",
        "escaped-unicode": b'{"a": "\\u00e9\\ud834\\udd1e"}',
        # more than two reads, with the two bytes of an é on either side of
        # the first read's end
        "larger-than-chunk": LONG_PREFIX + LONG_TEXT.encode("utf-8") + b'"}',
    })
    return cases


def outcome(reader, path: str):
    try:
        doc = reader(path)
    except InputError as exc:
        return "error", str(exc)
    except ValueError as exc:
        return "crash", f"{type(exc).__name__}: {exc}"
    return "doc", repr(doc)


def written_corpus(tmp_path) -> dict[str, str]:
    paths = {}
    for name, content in corpus().items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        paths[name] = str(path)
    paths["missing"] = str(tmp_path / "missing.json")
    paths["directory"] = str(tmp_path)
    (tmp_path / "symlink.json").symlink_to(tmp_path / "arrangement.json")
    paths["symlink"] = str(tmp_path / "symlink.json")
    paths["nul-path"] = str(tmp_path / "a\x00b.json")
    return paths


def test_load_json_matches_reference(tmp_path):
    paths = written_corpus(tmp_path)
    differ = {name: (outcome(load_json, path), outcome(reference_load_json, path))
              for name, path in paths.items()}
    differ = {name: pair for name, pair in differ.items() if pair[0] != pair[1]}
    # open() lets a NUL in the path escape as a bare ValueError
    assert differ == {"nul-path": (
        ("error", f"cannot read {paths['nul-path']}: embedded null byte"),
        ("crash", "ValueError: embedded null byte"),
    )}


def test_corpus_reaches_each_outcome(tmp_path):
    # the comparison above means little unless the corpus reaches every branch
    paths = written_corpus(tmp_path)
    expected = {
        "bom": "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        "arrangement-stray-crlf": "Expecting ',' delimiter: line 4 column 5 (char 46)",
        "fan-cut-cr": "Expecting ',' delimiter: line 44 column 5 (char 347)",
        "not-utf8-middle": "is not UTF-8 text: 'utf-8' codec can't decode byte 0xfe in position 20",
        "not-utf8-cut-at-end": "unexpected end of data",
        "nan": "floating point literal 'NaN' is not allowed",
        "float": "floating point literal '1.5' is not allowed",
        "deep-nesting": "nests arrays or objects too deeply",
        "top-level-array": "top level must be a JSON object",
        "empty": "Expecting value: line 1 column 1 (char 0)",
        "missing": "cannot read",
        "directory": "Is a directory",
        "nul-path": "cannot read",
    }
    for name, fragment in expected.items():
        kind, text = outcome(load_json, paths[name])
        assert kind == "error" and fragment in text, (name, text)
    for name in DOCS:
        for variant in ("", "-valid-lf", "-valid-crlf", "-valid-cr"):
            assert load_json(paths[name + variant]) == DOCS[name]
    assert load_json(paths["mixed-line-ends"]) == {"a": 1, "b": 2, "c": [1, 2]}
    assert load_json(paths["symlink"]) == DOCS["arrangement"]
    assert load_json(paths["larger-than-chunk"]) == {"a": LONG_TEXT}


def test_nul_in_path_is_an_input_error():
    # open() raised a bare ValueError, so the command crashed with a traceback;
    # load_json's text is pinned by the corpus comparison above
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["table", "check", "--input", "a\x00b"]) == cli.EXIT_INPUT
    assert err.getvalue() == "error: cannot read a\x00b: embedded null byte\n"


def test_long_integer_literal_is_an_input_error(tmp_path):
    # the text-mode reader let int()'s ValueError escape as a crash
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_bytes(VALID + b'"unused": ' + b"7" * (limit + 1) + b"}")
    try:
        load_json(str(path))
    except InputError as exc:
        assert str(exc) == f"{path} has an integer literal longer than {limit} digits"
    else:
        raise AssertionError("a literal past the digit limit was read")
    path.write_bytes(VALID + b'"unused": ' + b"7" * limit + b"}")
    assert load_json(str(path))["unused"] == int("7" * limit)


# ---------------------------------------------------------------------------
# documents: shape checks in the reader, value checks in the constructors

MISSING = object()

# values that every slot of a document gets in turn
ANY_VALUE = {
    "str": "x", "digit str": "3", "5000-char str": "x" * 5000, "5000-digit str": "7" * 5000,
    "null": None, "true": True, "false": False, "object": {}, "empty list": [],
    "list": [1, 2], "-1": -1, "0": 0, "1": 1, "2**70": 2**70, "missing": MISSING,
}

BASES = {
    "arrangement": {"ambient_dim": 2, "subspaces": [
        {"name": "L", "equations": [[1, 0, 0]]},
        {"equations": [[0, 1, "1/2"], [1, 1, 0]]},
    ]},
    "fan": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
            "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
    "table": {"kind": "cdr", "dim": 2, "entries": [[0, 0, 1], [0, 0, 3], [0, None, 3]],
              "ambient_dim": 3, "betti": [0, 3, 3, 1], "bound": 4},
}

# slot -> values of its own, beside ANY_VALUE
SLOTS = {
    "arrangement": {
        ("ambient_dim",): {"3": 3, "-5": -5},
        ("subspaces",): {},
        ("subspaces", 0): {},
        ("subspaces", 0, "name"): {"61-char str": "n" * 61},
        ("subspaces", 0, "equations"): {"inconsistent": [[0, 0, 1]],
                                        "non-list row": [[1, 0, 0], 5]},
        ("subspaces", 1, "equations", 0, 0): {},
        ("subspaces", 1, "equations", 1): {"short": [1, 0], "long": [1, 0, 0, 0],
                                            "3 strs": ["1", "2", "3"], "short, bad": ["x", 0]},
        ("subspaces", 1, "equations", 1, 0): {"1/0": "1/0", "1.5 str": "1.5", "p/q": " -3/4 "},
    },
    "fan": {
        ("rays",): {},
        ("rays", 1): {"zero": [0, 0, 0], "non-primitive": [0, 2, 0], "4 6 8": [4, 6, 8],
                      "short": [0, 1], "long": [0, 1, 0, 0], "3-char str": "abc"},
        ("rays", 1, 2): {"-3": -3},
        ("rays", 3): {"non-primitive": [-2, -2, -2]},
        ("max_cones",): {},
        ("max_cones", 2): {"repeat": [0, 0, 3], "out of range": [0, 2, 4], "2-char str": "01"},
        ("max_cones", 0, 1): {},
        ("max_cones", 2, 1): {"4": 4, "3": 3, "-4": -4},
    },
    "table": {
        ("kind",): {"lyubeznik": "lyubeznik", "rho": "rho"},
        ("dim",): {"3": 3},
        ("entries",): {"2x3": [[0, 0, 1], [0, 0, 3]], "3x2": [[0, 0], [0, 0], [0, 0]]},
        ("entries", 1): {"short": [0, 0], "long": [0, 0, 3, 0]},
        ("entries", 1, 2): {"null": None},
        ("ambient_dim",): {},
        ("betti",): {},
        ("betti", 0): {},
        ("bound",): {},
    },
}

# first-slot values paired with every value of the other slots, so that a
# value error meets a shape error in either order
PAIRED = {
    "arrangement": [(("ambient_dim",), "str"), (("subspaces", 1, "equations", 0, 0), "str"),
                    (("subspaces", 1, "equations", 1), "short")],
    "fan": [(("rays", 1), "zero"), (("rays", 1, 2), "true"), (("rays", 3), "non-primitive"),
            (("max_cones", 0, 1), "-1")],
    "table": [(("kind",), "rho"), (("entries", 1, 2), "-1"), (("dim",), "3")],
}

READERS = {"arrangement": (parse_arrangement, reference_parse_arrangement),
           "fan": (parse_fan, reference_parse_fan),
           "table": (parse_table, reference_parse_table)}


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return doc


def _values(kind, path):
    return {**ANY_VALUE, **SLOTS[kind][path]}


def document_corpus() -> dict[str, tuple[str, dict]]:
    """name -> (reader kind, document), for every value in every slot and
    every PAIRED value combined with every value of another slot."""
    cases = {}
    for kind, base in BASES.items():
        cases[f"{kind}: valid"] = (kind, base)
        for path in SLOTS[kind]:
            for label, value in _values(kind, path).items():
                cases[f"{kind}: {path}={label}"] = (kind, _with(base, path, value))
        for first, first_label in PAIRED[kind]:
            start = _with(base, first, _values(kind, first)[first_label])
            for path in SLOTS[kind]:
                if path[:len(first)] == first or first[:len(path)] == path:
                    continue
                for label, value in _values(kind, path).items():
                    name = f"{kind}: {first}={first_label}, {path}={label}"
                    cases[name] = (kind, _with(start, path, value))
    return cases


def read_outcome(reader, doc):
    """(("value", result) or ("error", text), warning texts) of one read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", reader(copy.deepcopy(doc)))
        except InputError as exc:
            result = ("error", str(exc))
    return result, [str(w.message) for w in caught]


# Deliberate changes, as (reference error, new error) full-text patterns.
# Every other case must read alike; each pattern must still be needed.
CHANGED = {
    (r"kind must be 'lyubeznik' or 'cdr', got .*", r"dim must be a nonnegative integer, got .*"):
        "InvariantTable checks the kind, after the reader checked dim and entries' shape",
    (r"kind must be 'lyubeznik' or 'cdr', got .*", r"entries must be a \d+x\d+ array matching dim"):
        "the same",
    (r"(L|subspace 1): every equation row needs exactly 3 entries \(coefficients then constant\)",
     r"(L|subspace 1): equations must be a nonempty list of rows"):
        "a row that is not a list is a shape error, reported before any row's width",
    (r"subspace 1: every equation row needs exactly 3 entries \(coefficients then constant\)",
     r"subspace 1: (not a rational literal: .*|rational literal has an integer longer .*)"):
        "AffineSubspace reads row by row: a bad literal comes before the width of its row "
        "and of every later row",
    (r"ray 1 (must be a list of three integers|is the zero vector)",
     r"maximal cone [02] must be a nonempty list of ray indices"):
        "every cone's shape is checked before Fan3 checks the rays",
    (r"maximal cone 0 has a ray index out of range: .*",
     r"maximal cone 2 must be a nonempty list of ray indices"):
        "every cone's shape is checked before Fan3 checks any index",
    (r"ambient_dim must be a positive integer", r"ambient_dim must be a positive integer, got .*"):
        "errors._int owns the integer check and echoes the value",
    (r"dim must be a nonnegative integer", r"dim must be a nonnegative integer, got .*"):
        "the same",
    (r"bound must be a nonnegative integer", r"bound must be a nonnegative integer, got .*"):
        "the same",
    (r"betti must be a list of nonnegative integers", r"betti must be a list"):
        "the reader keeps only the shape of betti",
    (r"betti must be a list of nonnegative integers",
     r"Betti numbers must be nonnegative integers, got .*"):
        "posets._betti owns the entries' check and echoes the first bad entry",
}

# Fan3 rescales rays only after all of its refusals, so a document with an
# error no longer warns first.  The command line prints warnings only for
# a command that succeeds, so its output is the same.
WARNINGS_BEFORE_AN_ERROR = "reference warned before its error"


def test_document_readers_match_reference():
    used, unexplained, values = set(), {}, 0
    for name, (kind, doc) in document_corpus().items():
        new, reference = (read_outcome(reader, doc) for reader in READERS[kind])
        (result, warned), (reference_result, reference_warned) = new, reference
        if reference_result[0] == "value":
            values += 1
            if new != reference:
                unexplained[name] = (reference, new)
            continue
        if result[0] != "error":  # a document refused before is still refused
            unexplained[name] = (reference, new)
            continue
        if warned != reference_warned:
            if warned:
                unexplained[name] = (reference, new)
                continue
            used.add(WARNINGS_BEFORE_AN_ERROR)
        if result != reference_result:
            rule = next((pair for pair in CHANGED if re.fullmatch(pair[0], reference_result[1])
                         and re.fullmatch(pair[1], result[1])), None)
            if rule is None:
                unexplained[name] = (reference, new)
                continue
            used.add(rule)
    assert not unexplained, unexplained
    assert used == {*CHANGED, WARNINGS_BEFORE_AN_ERROR}
    assert values >= 40, values  # the corpus reaches accepted documents too


def test_document_corpus_reaches_each_reader_outcome():
    outcomes = {name: read_outcome(READERS[kind][0], doc)
                for name, (kind, doc) in document_corpus().items()}
    assert outcomes["fan: ('rays', 1)=4 6 8"][1] == [
        "ray 1 = [4, 6, 8] rescaled to primitive [2, 3, 4]"]
    expected = {
        "arrangement: ('ambient_dim',)=true": "ambient_dim must be a positive integer, got True",
        "arrangement: ('subspaces', 1, 'equations', 1)=long":
            "subspace 1: every equation row needs exactly 3 entries (coefficients then constant)",
        "arrangement: ('subspaces', 0, 'equations')=inconsistent":
            "L: inconsistent linear system: no solutions",
        "fan: ('rays', 1)=zero": "ray 1 is the zero vector",
        "fan: ('rays', 1, 2)=true": "ray 1 must be a list of three integers",
        "fan: ('max_cones', 2, 1)=4": "maximal cone 2 has a ray index out of range: 4",
        "fan: ('max_cones', 2)=2-char str": "maximal cone 2 must be a nonempty list of ray indices",
        "table: ('kind',)=5000-char str": "kind must be 'lyubeznik' or 'cdr', got '" + "x" * 59 + "…",
        "table: ('entries', 1, 2)=-1": "table entries must be nonnegative integers or null, got -1",
        "table: ('entries',)=2x3": "entries must be a 3x3 array matching dim",
        "table: ('bound',)=true": "bound must be a nonnegative integer, got True",
        "table: ('dim',)=str": "dim must be a nonnegative integer, got 'x'",
        "table: ('betti',)=object": "betti must be a list",
        "table: ('betti', 0)=-1": "Betti numbers must be nonnegative integers, got -1",
    }
    for name, text in expected.items():
        assert outcomes[name] == (("error", text), []), name
    for name in ("arrangement: valid", "arrangement: ('subspaces', 0, 'name')=61-char str",
                 "fan: valid", "table: valid", "table: ('kind',)=lyubeznik"):
        assert outcomes[name][0][0] == "value", name


# ---------------------------------------------------------------------------
# the table writer against json.dumps


class Loud(int):
    """An int whose str and repr are not int.__repr__, which json.dumps writes."""

    def __str__(self):
        return f"loud {int(self)}"

    __repr__ = __str__


NOTE_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\U0001d11e", "\ud800",
             "a", "euler sum: 1", " ", "/"]


def random_cell(rng):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.25:
        return rng.randrange(2**64, 2**200)
    if roll < 0.35:
        return Loud(rng.randrange(0, 10**6))
    return rng.choice((0, 0, 0, 1, 2, 3, rng.randrange(1000)))


def reference_json_dict(table, notes=()):
    """The former `InvariantTable.as_json_dict`, as the reference for
    `dumps_table`: the document as a dict, in key order."""
    return {
        "kind": table.kind,
        "dim": table.d,
        "entries": [list(row) for row in table.entries],
        "notes": list(notes),
    }


def test_dumps_table_matches_json_dumps():
    rng = random.Random(4040)
    seen = set()
    for kind in (KIND_LYUBEZNIK, KIND_CDR):
        for d in range(7):
            for _ in range(30):
                table = InvariantTable(kind, [[random_cell(rng) for _ in range(d + 1)]
                                              for _ in range(d + 1)])
                notes = ["".join(rng.choices(NOTE_TEXT, k=rng.randrange(6)))
                         for _ in range(rng.randrange(4))]
                text = dumps_table(table, notes)
                expected = reference_json_dict(table, notes)
                assert text == json.dumps(expected), (table.entries, notes)
                assert json.loads(text) == expected
                seen.update(type(v) if v is None or v < 2**64 else "big"
                            for row in table.entries for v in row)
    # the tables reach every kind of cell the writer sees
    assert seen == {type(None), int, Loud, "big"}
