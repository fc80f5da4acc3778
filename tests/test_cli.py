"""End-to-end command line tests: outputs, exit codes, JSON round trips."""

import json

import pytest

from invar.cli import main
from invar.fileio import dumps_table, parse_table
from invar.tables import InvariantTable
from conftest import double_cover_fan, prism_fan


BOOLEAN3 = {
    "ambient_dim": 3,
    "subspaces": [
        {"name": "x=0", "equations": [[1, 0, 0, 0]]},
        {"name": "y=0", "equations": [[0, 1, 0, 0]]},
        {"name": "z=0", "equations": [[0, 0, 1, 0]]},
    ],
}

CUBE = {
    "rays": [
        [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
        [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
    ],
    "max_cones": [
        [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5],
        [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7],
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArrangementCommands:
    def test_cdr_json(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "cdr", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [[0, 0, 1], [0, 0, 3], [0, 0, 3]]
        assert list(doc.keys()) == ["kind", "dim", "entries", "notes"]

    def test_betti(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "betti", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["betti"] == [0, 3, 3, 1, 0, 0]

    def test_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "oracle", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["betti"] == [1, 3, 3, 1]

    def test_lattice(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "lattice", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["flats"]) == 8
        assert doc["top"] == 7

    def test_lyubeznik(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 4,
            "subspaces": [
                {"equations": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]},
                {"equations": [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]},
            ],
        }
        path = write(tmp_path, "planes.json", doc)
        code, out, _ = run(capsys, "arrangement", "lyubeznik", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["entries"] == [[0, 1, 0], [0, 0, 0], [0, 0, 2]]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "arrangement", "cdr", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_float_rejected(self, tmp_path, capsys):
        doc = {"ambient_dim": 2, "subspaces": [{"equations": [[0.5, 1, 0]]}]}
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 2, "subspaces": [{"equations": [[0.5, 1, 0]]}]}')
        code, _, err = run(capsys, "arrangement", "cdr", "--input", str(path))
        assert code == 2
        assert "floating point" in err

    def test_strict_turns_pruning_into_error(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 3,
            "subspaces": [
                {"equations": [[0, 0, 1, 0]]},
                {"equations": [[0, 0, 1, 0], [0, 1, 0, 0]]},  # contained in the plane
            ],
        }
        path = write(tmp_path, "nested.json", doc)
        code, out, err = run(capsys, "arrangement", "cdr", "--input", path)
        assert code == 0
        assert "warning" in err
        code, _, err = run(capsys, "arrangement", "cdr", "--input", path, "--strict")
        assert code == 2
        assert "strict" in err


class TestFanCommands:
    def test_cube_lyubeznik_pretty(self, tmp_path, capsys):
        path = write(tmp_path, "cube.json", CUBE)
        code, out, _ = run(capsys, "fan", "lyubeznik", "--input", path)
        assert code == 0
        grid = [line.split() for line in out.strip().splitlines() if not line.startswith("#")]
        assert len(grid) == 5
        assert grid[4][4] == "1"
        assert all(cell == "·" for row in grid for cell in row[:4])

    def test_picard(self, tmp_path, capsys):
        path = write(tmp_path, "cube.json", CUBE)
        code, out, _ = run(capsys, "fan", "picard", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["picard_rank"] == 1
        assert doc["class_rank"] == 5
        assert doc["projective"] is True

    def test_validate_ok(self, tmp_path, capsys):
        path = write(tmp_path, "cube.json", CUBE)
        code, out, _ = run(capsys, "fan", "validate", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["complete"] is True

    def test_validate_broken(self, tmp_path, capsys):
        broken = {"rays": CUBE["rays"], "max_cones": CUBE["max_cones"][:-1]}
        path = write(tmp_path, "broken.json", broken)
        code, _, err = run(capsys, "fan", "validate", "--input", path)
        assert code == 2
        assert "shared by one cone" in err

    def test_validate_overlaps(self, tmp_path, capsys):
        overlap = {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                   "max_cones": [[0, 1, 2], [0, 1, 3]]}
        fan = double_cover_fan()
        double_cover = {"rays": [list(r) for r in fan.rays],
                        "max_cones": [list(c) for c in fan.max_cones]}
        code, out, err = run(capsys, "fan", "validate", "--input",
                             write(tmp_path, "overlap.json", overlap))
        assert (code, out) == (2, "")
        assert err == (
            "error: maximal cones 0 and 1 do not intersect in a common face: both lie on "
            "one side of the wall spanned by rays 0 and 1; wall spanned by rays 0 and 2 is "
            "shared by one cone only; wall spanned by rays 0 and 3 is shared by one cone "
            "only; wall spanned by rays 1 and 2 is shared by one cone only; wall spanned by "
            "rays 1 and 3 is shared by one cone only\n"
        )
        code, out, err = run(capsys, "fan", "validate", "--input",
                             write(tmp_path, "double_cover.json", double_cover))
        assert (code, out) == (2, "")
        assert err == ("error: maximal cones 0, 8 do not intersect in common faces: "
                       "each contains the direction (1, 1, 1)\n")

    def test_projective(self, tmp_path, capsys):
        path = write(tmp_path, "cube.json", CUBE)
        code, out, _ = run(capsys, "fan", "projective", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["projective"] is True

    def test_non_projective_lyubeznik_exit_2(self, tmp_path, capsys):
        fan = prism_fan(twisted=True)
        doc = {"rays": [list(r) for r in fan.rays], "max_cones": [list(c) for c in fan.max_cones]}
        path = write(tmp_path, "twisted.json", doc)
        code, out, err = run(capsys, "fan", "lyubeznik", "--input", path)
        assert code == 2
        assert out == ""
        assert "not projective" in err
        code, out, _ = run(capsys, "fan", "projective", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["projective"] is False

    def test_ray_rescaling_warns(self, tmp_path, capsys):
        doc = {
            "rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
            "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        }
        path = write(tmp_path, "scaled.json", doc)
        code, out, err = run(capsys, "fan", "picard", "--input", path, "--format", "json")
        assert code == 0
        assert "rescaled" in err
        assert json.loads(out)["picard_rank"] == 1


class TestTableCommands:
    def test_small_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "small", "--dim", "2", "--a", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["entries"] == [[0, 2, 0], [0, 0, 0], [0, 0, 3]]

    def test_small_tables_pretty(self, capsys):
        code, out, _ = run(capsys, "tables", "small", "--dim", "2", "--a", "3")
        assert code == 0
        assert out.splitlines()[0].split() == ["·", "2", "·"]

    def test_check_feasible(self, tmp_path, capsys):
        doc = {"kind": "lyubeznik", "dim": 2, "entries": [[0, 1, 0], [0, 0, 0], [0, 0, 2]]}
        path = write(tmp_path, "t.json", doc)
        code, out, _ = run(capsys, "table", "check", "--input", path, "--format", "json")
        assert code == 0
        notes = json.loads(out)["notes"]
        assert any("feasible" in n for n in notes)
        assert any("witness" in n for n in notes)

    def test_check_infeasible_exit_3(self, tmp_path, capsys):
        doc = {"kind": "lyubeznik", "dim": 2, "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 2]]}
        path = write(tmp_path, "t.json", doc)
        code, out, _ = run(capsys, "table", "check", "--input", path)
        assert code == 3

    def test_check_cdr_with_betti(self, tmp_path, capsys):
        doc = {
            "kind": "cdr",
            "dim": 2,
            "ambient_dim": 3,
            "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]],
            "betti": [0, 3, 3, 1],
        }
        path = write(tmp_path, "t.json", doc)
        code, out, _ = run(capsys, "table", "check", "--input", path, "--format", "json")
        assert code == 0
        notes = json.loads(out)["notes"]
        assert any("degenerate solution matches: yes" in n for n in notes)

    def test_check_cdr_missing_betti(self, tmp_path, capsys):
        doc = {"kind": "cdr", "dim": 2, "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]]}
        path = write(tmp_path, "t.json", doc)
        code, _, err = run(capsys, "table", "check", "--input", path)
        assert code == 2
        assert "betti" in err

    def test_deduce(self, tmp_path, capsys):
        doc = {
            "kind": "lyubeznik",
            "dim": 3,
            "entries": [
                [0, 0, None, 0],
                [0, 0, None, 0],
                [0, 0, 0, None],
                [0, 0, 0, None],
            ],
            "bound": 5,
        }
        path = write(tmp_path, "shape.json", doc)
        code, out, _ = run(capsys, "table", "deduce", "--input", path, "--format", "json")
        assert code == 0
        notes = json.loads(out)["notes"]
        assert any("identity: (0,2) = (2,3)" in n for n in notes)
        assert any("feasible completions: 30" in n for n in notes)

    def test_deduce_contradiction_exit_3(self, tmp_path, capsys):
        doc = {
            "kind": "lyubeznik",
            "dim": 2,
            "entries": [[0, 0, 0], [0, 0, 0], [0, 0, None]],
            "bound": 0,
        }
        path = write(tmp_path, "bad.json", doc)
        code, out, _ = run(capsys, "table", "deduce", "--input", path)
        assert code == 3
        assert "contradiction" in out

    def test_deduce_search_limit_exit_4(self, tmp_path, capsys, monkeypatch):
        doc = {
            "kind": "lyubeznik",
            "dim": 3,
            "entries": [
                [0, 0, None, 0],
                [0, 0, None, 0],
                [0, 0, 0, None],
                [0, 0, 0, None],
            ],
            "bound": 5,
        }
        path = write(tmp_path, "shape.json", doc)
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "50")
        code, out, err = run(capsys, "table", "deduce", "--input", path)
        assert code == 4
        assert out == ""
        assert "node limit of 50" in err

    def test_check_cdr_ignores_search_limit(self, tmp_path, capsys, monkeypatch):
        # the abutment is one max-flow, so no node limit applies to it
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "1")
        doc = {"kind": "cdr", "dim": 3, "ambient_dim": 4, "betti": [0] * 8,
               "entries": [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]}
        code, out, _ = run(capsys, "table", "check", "--input", write(tmp_path, "a.json", doc),
                           "--format", "json")
        assert code == 0
        assert "abutment: feasible" in json.loads(out)["notes"]
        # (1,1) and (0,3) lie on adjacent antidiagonals, but no differential joins them
        doc["entries"] = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        code, out, _ = run(capsys, "table", "check", "--input", write(tmp_path, "b.json", doc))
        assert code == 3
        assert "abutment: infeasible" in out

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestJsonRoundTrip:
    def test_emitted_table_reparses_identically(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "cdr", "--input", path, "--format", "json")
        assert code == 0
        text = out.strip()
        doc = json.loads(text)
        table, _, _, _ = parse_table(doc)
        assert table == InvariantTable("cdr", [[0, 0, 1], [0, 0, 3], [0, 0, 3]])
        assert dumps_table(table, doc["notes"]) == text

    def test_round_trip_with_unknowns(self, tmp_path):
        table = InvariantTable("lyubeznik", [[0, None], [0, 1]])
        text = dumps_table(table, ["a note"])
        reparsed, _, _, _ = parse_table(json.loads(text))
        assert reparsed == table
        assert dumps_table(reparsed, ["a note"]) == text
