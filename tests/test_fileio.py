"""The file reader against the text-mode reader it replaced.

`load_json` reads bytes and decodes them itself; `reference_load_json` is
the text-mode `json.load` it replaced.  On every file of the corpus both
must return an equal document or raise an `InputError` with identical text.
The module imports nothing outside the standard library and `invar`, so the
comparison also runs without pytest: pass any fresh directory as `tmp_path`.
"""

import json
import sys

from invar.errors import InputError
from invar.fileio import _reject_float, load_json


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
    })
    return cases


def outcome(reader, path: str):
    try:
        doc = reader(path)
    except InputError as exc:
        return "error", str(exc)
    return "doc", repr(doc)


def written_corpus(tmp_path) -> dict[str, str]:
    paths = {}
    for name, content in corpus().items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        paths[name] = str(path)
    paths["missing"] = str(tmp_path / "missing.json")
    paths["directory"] = str(tmp_path)
    return paths


def test_load_json_matches_reference(tmp_path):
    paths = written_corpus(tmp_path)
    differ = {name: (outcome(load_json, path), outcome(reference_load_json, path))
              for name, path in paths.items()}
    differ = {name: pair for name, pair in differ.items() if pair[0] != pair[1]}
    assert not differ


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
    }
    for name, fragment in expected.items():
        kind, text = outcome(load_json, paths[name])
        assert kind == "error" and fragment in text, (name, text)
    for name in DOCS:
        for variant in ("", "-valid-lf", "-valid-crlf", "-valid-cr"):
            assert load_json(paths[name + variant]) == DOCS[name]
    assert load_json(paths["mixed-line-ends"]) == {"a": 1, "b": 2, "c": [1, 2]}


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
