"""End-to-end command line tests: outputs, exit codes, JSON round trips."""

import argparse
import io
import json
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from invar import cli, tables
from invar.cli import main
from invar.fileio import dumps_table, parse_table
from invar.tables import InvariantTable
from conftest import double_cover_fan, prism_fan
from test_arrangements import quiet_lattice, random_mixed_components


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

# `invar ... -h` at 80 columns, keyed by the arguments before -h
HELP = {
    (): (
        'usage: invar [-h] {arrangement,fan,table,tables} ...\n'
        '\n'
        'Invariant tables of subspace arrangements and toric 3-folds\n'
        '\n'
        'positional arguments:\n'
        '  {arrangement,fan,table,tables}\n'
        '    arrangement         subspace arrangement commands\n'
        '    fan                 toric fan commands\n'
        '    table               invariant table commands\n'
        '    tables              closed-form small tables\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ('arrangement',): (
        'usage: invar arrangement [-h] {lattice,cdr,betti,lyubeznik,oracle} ...\n'
        '\n'
        'positional arguments:\n'
        '  {lattice,cdr,betti,lyubeznik,oracle}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ('fan',): (
        'usage: invar fan [-h] {validate,picard,projective,lyubeznik} ...\n'
        '\n'
        'positional arguments:\n'
        '  {validate,picard,projective,lyubeznik}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ('table',): (
        'usage: invar table [-h] {check,deduce} ...\n'
        '\n'
        'positional arguments:\n'
        '  {check,deduce}\n'
        '\n'
        'options:\n'
        '  -h, --help      show this help message and exit\n'
    ),
    ('tables',): (
        'usage: invar tables [-h] {small} ...\n'
        '\n'
        'positional arguments:\n'
        '  {small}\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
    ),
    ('arrangement', 'lattice'): (
        'usage: invar arrangement lattice [-h] --input INPUT [--format {json,pretty}]\n'
        '                                 [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('arrangement', 'cdr'): (
        'usage: invar arrangement cdr [-h] --input INPUT [--format {json,pretty}]\n'
        '                             [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('arrangement', 'betti'): (
        'usage: invar arrangement betti [-h] --input INPUT [--format {json,pretty}]\n'
        '                               [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('arrangement', 'lyubeznik'): (
        'usage: invar arrangement lyubeznik [-h] --input INPUT [--format {json,pretty}]\n'
        '                                   [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('arrangement', 'oracle'): (
        'usage: invar arrangement oracle [-h] --input INPUT [--format {json,pretty}]\n'
        '                                [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('fan', 'validate'): (
        'usage: invar fan validate [-h] --input INPUT [--format {json,pretty}]\n'
        '                          [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('fan', 'picard'): (
        'usage: invar fan picard [-h] --input INPUT [--format {json,pretty}] [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('fan', 'projective'): (
        'usage: invar fan projective [-h] --input INPUT [--format {json,pretty}]\n'
        '                            [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('fan', 'lyubeznik'): (
        'usage: invar fan lyubeznik [-h] --input INPUT [--format {json,pretty}]\n'
        '                           [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('table', 'check'): (
        'usage: invar table check [-h] --input INPUT [--format {json,pretty}]\n'
        '                         [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
    ('table', 'deduce'): (
        'usage: invar table deduce [-h] --input INPUT [--format {json,pretty}]\n'
        '                          [--strict] [--bound BOUND]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT         path to a JSON input file\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
        '  --bound BOUND         upper bound for unknown entries (default 10)\n'
    ),
    ('tables', 'small'): (
        'usage: invar tables small [-h] --dim DIM [--a A] [--format {json,pretty}]\n'
        '                          [--strict]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --dim DIM             dimension (0, 1 or 2)\n'
        '  --a A                 connected components of the punctured spectrum (dim 2\n'
        '                        only)\n'
        '  --format {json,pretty}\n'
        '  --strict              treat input warnings as errors\n'
    ),
}

# usage errors at 80 columns: stderr of an argv that exits 2
USAGE_ERRORS = {
    (): (
        'usage: invar [-h] {arrangement,fan,table,tables} ...\n'
        'invar: error: the following arguments are required: group\n'
    ),
    ('bogus',): (
        'usage: invar [-h] {arrangement,fan,table,tables} ...\n'
        "invar: error: argument group: invalid choice: 'bogus' "
        "(choose from 'arrangement', 'fan', 'table', 'tables')\n"
    ),
    ('arrangement',): (
        'usage: invar arrangement [-h] {lattice,cdr,betti,lyubeznik,oracle} ...\n'
        'invar arrangement: error: the following arguments are required: command\n'
    ),
    ('fan', 'bogus'): (
        'usage: invar fan [-h] {validate,picard,projective,lyubeznik} ...\n'
        "invar fan: error: argument command: invalid choice: 'bogus' "
        "(choose from 'validate', 'picard', 'projective', 'lyubeznik')\n"
    ),
    ('fan', 'validate', '--input', 'in.json', 'extra'): (
        'usage: invar [-h] {arrangement,fan,table,tables} ...\n'
        'invar: error: unrecognized arguments: extra\n'
    ),
    ('table', 'check'): (
        'usage: invar table check [-h] --input INPUT [--format {json,pretty}]\n'
        '                         [--strict]\n'
        'invar table check: error: the following arguments are required: --input\n'
    ),
    ('table', 'deduce', '--input', 'in.json', '--bound', 'x'): (
        'usage: invar table deduce [-h] --input INPUT [--format {json,pretty}]\n'
        '                          [--strict] [--bound BOUND]\n'
        "invar table deduce: error: argument --bound: invalid int value: 'x'\n"
    ),
    ('table', 'check', '--input', 'in.json', '--format', 'xml'): (
        'usage: invar table check [-h] --input INPUT [--format {json,pretty}]\n'
        '                         [--strict]\n'
        'invar table check: error: argument --format: invalid '
        "choice: 'xml' (choose from 'json', 'pretty')\n"
    ),
    ('-x', 'table', 'check'): (
        'usage: invar table check [-h] --input INPUT [--format {json,pretty}]\n'
        '                         [--strict]\n'
        'invar table check: error: the following arguments are required: --input\n'
    ),
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# `arrangement lattice` in both formats, recorded from the pair-list builder
# with its Fraction rref sort: boolean n=4, braid n=4, three planes of C^3
# through a line plus a transversal one, and two affine arrangements of
# mixed dimension whose flats have rational rrefs
GOLDEN_LATTICE = json.loads(
    (Path(__file__).parent / "golden" / "arrangement_lattice.json").read_text()
)


class TestLatticeGolden:
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_LATTICE))
    def test_output(self, tmp_path, capsys, name, fmt):
        case = GOLDEN_LATTICE[name]
        path = write(tmp_path, f"{name}.json", case["input"])
        code, out, err = run(capsys, "arrangement", "lattice", "--input", path, "--format", fmt)
        assert (code, out, err) == (0, case[fmt], "")


class TestLatticeOrder:
    def test_order_is_the_sorted_poset(self, tmp_path, capsys):
        # the order written from the up-sets against the poset's pair set
        rng = random.Random(31)
        for i, comps in enumerate(random_mixed_components(rng, 60)):
            n = comps[0].ambient_dim
            doc = {"ambient_dim": n, "subspaces": [
                {"equations": [list(row) for row in c.rows]} for c in comps]}
            path = write(tmp_path, f"mixed{i}.json", doc)
            code, out, _ = run(capsys, "arrangement", "lattice", "--input", path, "--format", "json")
            assert code == 0
            expected = sorted(quiet_lattice(comps).poset.less)
            assert [tuple(pair) for pair in json.loads(out)["order"]] == expected


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

    def test_oracle_builds_no_table(self, tmp_path, capsys, monkeypatch):
        def refused(lattice):
            raise AssertionError("the oracle needs no Cech-de Rham table")

        monkeypatch.setattr(cli.arrangements, "cdr_table", refused)
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        assert run(capsys, "arrangement", "oracle", "--input", path) == (
            0, "b0 = 1\nb1 = 3\nb2 = 3\nb3 = 1\n", "")
        # the plane z = 0 and the z-axis: the line is not a hyperplane
        path = write(tmp_path, "line_and_plane.json", {"ambient_dim": 3, "subspaces": [
            {"equations": [[0, 0, 1, 0]]},
            {"equations": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        ]})
        assert run(capsys, "arrangement", "oracle", "--input", path) == (
            2, "", "error: Moebius oracle needs hyperplane components only\n")

    def test_lattice(self, tmp_path, capsys):
        path = write(tmp_path, "boolean3.json", BOOLEAN3)
        code, out, _ = run(capsys, "arrangement", "lattice", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["flats"]) == 8
        assert doc["top"] == 7

    def test_lattice_rational_both_formats(self, tmp_path, capsys):
        doc = {"ambient_dim": 2, "subspaces": [
            {"equations": [[2, 3, "1/2"]]},
            {"equations": [[1, -1, 5]]},
            {"equations": [["3/4", 1, 0]]},
        ]}
        path = write(tmp_path, "lines.json", doc)
        code, out, _ = run(capsys, "arrangement", "lattice", "--input", path)
        assert code == 0
        assert out == (
            "ambient dimension 2, 7 flats, top id 6\n"
            "flat 0: dim 0  [1 0 -2; 0 1 3/2]\n"
            "flat 1: dim 0  [1 0 20/7; 0 1 -15/7]\n"
            "flat 2: dim 0  [1 0 31/10; 0 1 -19/10]\n"
            "flat 3: dim 1  [1 -1 5]\n"
            "flat 4: dim 1  [1 4/3 0]\n"
            "flat 5: dim 1  [1 3/2 1/4]\n"
            "flat 6: dim 2  [ambient]\n"
            "order: 0<4, 0<5, 0<6, 1<3, 1<4, 1<6, 2<3, 2<5, 2<6, 3<6, 4<6, 5<6\n"
        )
        code, out, _ = run(capsys, "arrangement", "lattice", "--input", path, "--format", "json")
        assert code == 0
        assert out == (
            '{"ambient_dim": 2, "top": 6, "flats": ['
            '{"id": 0, "dim": 0, "equations": [[1, 0, -2], [0, 1, "3/2"]]}, '
            '{"id": 1, "dim": 0, "equations": [[1, 0, "20/7"], [0, 1, "-15/7"]]}, '
            '{"id": 2, "dim": 0, "equations": [[1, 0, "31/10"], [0, 1, "-19/10"]]}, '
            '{"id": 3, "dim": 1, "equations": [[1, -1, 5]]}, '
            '{"id": 4, "dim": 1, "equations": [[1, "4/3", 0]]}, '
            '{"id": 5, "dim": 1, "equations": [[1, "3/2", "1/4"]]}, '
            '{"id": 6, "dim": 2, "equations": []}], '
            '"order": [[0, 4], [0, 5], [0, 6], [1, 3], [1, 4], [1, 6], [2, 3], [2, 5], '
            '[2, 6], [3, 6], [4, 6], [5, 6]], "notes": []}\n'
        )

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

    def test_bad_literal_names_its_subspace(self, tmp_path, capsys):
        doc = {"ambient_dim": 2, "subspaces": [{"name": "L", "equations": [[1, "x", 0]]}]}
        path = write(tmp_path, "bad.json", doc)
        assert run(capsys, "arrangement", "cdr", "--input", path) == (
            2, "", "error: L: not a rational literal: 'x'\n"
        )

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

    @pytest.mark.parametrize("betti, degenerate", [([0, 0, 0, 1, 1], "yes"), ([0], "no")])
    def test_check_cdr_degenerate_note_at_dim_4(self, betti, degenerate, tmp_path, capsys):
        # (3,3) -> (1,4) is a page-2 differential, so both Betti vectors are
        # feasible; the degenerate test compares antidiagonal sums at any dimension
        entries = [[0] * 5 for _ in range(5)]
        entries[1][4] = entries[3][3] = 1
        doc = {"kind": "cdr", "dim": 4, "ambient_dim": 5, "entries": entries, "betti": betti}
        code, out, _ = run(capsys, "table", "check", "--input", write(tmp_path, "t.json", doc),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["notes"] == [
            "abutment: feasible", f"degenerate solution matches: {degenerate}"
        ]

    def test_check_cdr_ambient_dim_too_small(self, tmp_path, capsys):
        doc = {"kind": "cdr", "dim": 2, "ambient_dim": 2, "betti": [0, 1],
               "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]]}
        assert run(capsys, "table", "check", "--input", write(tmp_path, "t.json", doc)) == (
            2, "", "error: ambient dimension 2 is too small for a table of dimension 2\n")

    def test_check_cdr_invalid_before_the_ambient_size(self, tmp_path, capsys):
        # the table is checked first: an ambient dimension too small for it
        # is not reached
        doc = {"kind": "cdr", "dim": 1, "entries": [[0, 0], [2, 1]], "ambient_dim": 1,
               "betti": [0, 1]}
        path = write(tmp_path, "t.json", doc)
        assert run(capsys, "table", "check", "--input", path) == (3, (
            "·  ·\n"
            "2  1\n"
            "# invalid: triangularity violated: entry (1,0) = 2 below the diagonal\n"), "")

    @pytest.mark.parametrize("betti", [[0, 3, 3, 1], [0, 1, 3, 1], [0, 3, 3, 1, 0, 0], [1]])
    def test_check_cdr_derives_each_fact_once(self, betti, tmp_path, capsys, monkeypatch):
        # one validate_cdr and one witness, no check_cdr; the verdict is check_cdr's
        doc = {"kind": "cdr", "dim": 2, "ambient_dim": 3, "betti": betti,
               "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]]}
        table = InvariantTable("cdr", doc["entries"])
        feasible, witness = tables.check_cdr(table, betti, 3)
        calls = []
        for name in ("validate_cdr", "check_cdr", "_cdr_witness"):
            original = getattr(tables, name)
            monkeypatch.setattr(tables, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        code, out, _ = run(capsys, "table", "check", "--input", write(tmp_path, "t.json", doc),
                           "--format", "json")
        assert calls == ["validate_cdr", "_cdr_witness"]
        assert code == (0 if feasible else 3)
        assert json.loads(out)["notes"] == ([
            "abutment: feasible", f"degenerate solution matches: {'yes' if witness == () else 'no'}"
        ] if feasible else ["abutment: infeasible against the given Betti numbers"])

    def test_check_cdr_below_the_diagonal_is_invalid(self, tmp_path, capsys):
        doc = {"kind": "cdr", "dim": 1, "entries": [[0, 0], [2, 1]], "ambient_dim": 2,
               "betti": [0, 1]}
        path = write(tmp_path, "t.json", doc)
        assert run(capsys, "table", "check", "--input", path) == (3, (
            "·  ·\n"
            "2  1\n"
            "# invalid: triangularity violated: entry (1,0) = 2 below the diagonal\n"), "")

    def test_check_lambda_below_the_diagonal_is_invalid(self, tmp_path, capsys):
        # every diagnostic, in row-major order, with the cdr check's triangularity text
        doc = {"kind": "lyubeznik", "dim": 2, "entries": [[0, 0, 1], [1, 0, 0], [0, 2, 0]]}
        path = write(tmp_path, "t.json", doc)
        assert run(capsys, "table", "check", "--input", path) == (3, (
            "·  ·  1\n"
            "1  ·  ·\n"
            "·  2  ·\n"
            "# invalid: entry (0,2) = 1 must vanish: top-column entries (0,d) and (1,d) "
            "are zero whenever d >= 2\n"
            "# invalid: triangularity violated: entry (1,0) = 1 below the diagonal\n"
            "# invalid: triangularity violated: entry (2,1) = 2 below the diagonal\n"
            "# invalid: entry (2,2) must be positive\n"), "")

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

    def test_deduce_refuses_a_cdr_table(self, tmp_path, capsys):
        path = write(tmp_path, "cdr.json", {"kind": "cdr", "dim": 0, "entries": [[1]]})
        assert run(capsys, "table", "deduce", "--input", path) == (
            2, "", "error: table deduce only applies to lyubeznik tables\n")

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
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "30")
        code, out, err = run(capsys, "table", "deduce", "--input", path)
        assert code == 4
        assert out == ""
        assert "node limit of 30" in err

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_deduce_search_limit_below_one_exit_2(self, limit, tmp_path, capsys, monkeypatch):
        doc = {"kind": "lyubeznik", "dim": 1, "entries": [[0, 0], [0, None]]}
        path = write(tmp_path, "t.json", doc)
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", limit)
        code, out, err = run(capsys, "table", "deduce", "--input", path)
        assert (code, out) == (2, "")
        assert err == f"error: INVAR_SEARCH_LIMIT must be a positive integer, got '{limit}'\n"

    def test_check_cdr_ignores_search_limit(self, tmp_path, capsys, monkeypatch):
        # the abutment is one circulation with lower bounds, so no node limit applies
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

    @pytest.mark.parametrize("d", [43, 45])
    def test_deduce_large_table_hits_search_limit(self, d, tmp_path, capsys, monkeypatch):
        # about a thousand free unknowns: deeper than the interpreter's recursion limit
        doc = {"kind": "lyubeznik", "dim": d, "entries": [[None] * (d + 1)] * (d + 1)}
        path = write(tmp_path, "all_unknown.json", doc)
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "2000")
        code, out, err = run(capsys, "table", "deduce", "--input", path)
        assert (code, out) == (4, "")
        assert err == ("error: search exceeded the node limit of 2000; "
                       "raise INVAR_SEARCH_LIMIT to search further\n")


class TestMalformedInput:
    VALID = b'{"ambient_dim": 1, "subspaces": [{"equations": [[1, 0]]}], '

    @pytest.mark.parametrize("content, message", [
        (b'{"name": "\xff\xfe"}', "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 10**5 + b"]" * 10**5, "nests arrays or objects too deeply"),
        (VALID + b'"unused": NaN}', "floating point literal 'NaN' is not allowed"),
        (VALID + b'"unused": Infinity}', "floating point literal 'Infinity' is not allowed"),
        (VALID + b'"unused": -Infinity}', "floating point literal '-Infinity' is not allowed"),
        (VALID + b'"unused": ' + b"7" * 5000 + b"}", "has an integer literal longer than 4300 digits"),
    ], ids=["not-utf8", "deep-nesting", "nan", "infinity", "minus-infinity", "long-integer"])
    def test_exit_2_with_error_line(self, content, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "arrangement", "cdr", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_long_rational_string_names_the_limit(self, tmp_path, capsys):
        doc = {"ambient_dim": 1, "subspaces": [{"name": "L", "equations": [[1, "1/" + "7" * 5000]]}]}
        path = write(tmp_path, "bad.json", doc)
        assert run(capsys, "arrangement", "cdr", "--input", path) == (
            2, "", "error: L: rational literal has an integer longer than 4300 digits\n"
        )


    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_lattice_with_long_rref_names_the_limit(self, fmt, tmp_path, capsys):
        # two lines of C^2 whose coefficients have 4,000 digits meet in a point
        # whose rref needs about 8,000, although every literal is under the limit
        doc = {"ambient_dim": 2, "subspaces": [
            {"equations": [[int("7" * 4000), 1, 1]]},
            {"equations": [[1, int("3" * 3999 + "4"), 1]]},
        ]}
        path = write(tmp_path, "long.json", doc)
        assert run(capsys, "arrangement", "lattice", "--input", path, "--format", fmt) == (
            2, "", "error: a flat's equations have an integer longer than 4300 digits\n"
        )
        assert run(capsys, "arrangement", "cdr", "--input", path, "--format", fmt)[0] == 0

    @pytest.mark.parametrize("key, value, shown", [
        ("entry", "x", "'x'"),
        ("entry", -1, "-1"),
        ("entry", [1, 2], "[1, 2]"),
        ("entry", "7" * 58, "'" + "7" * 58 + "'"),
        ("entry", "7" * 59, "'" + "7" * 59 + "…"),
        ("entry", "7" * 5000, "'" + "7" * 59 + "…"),
        ("entry", list(range(1000)), repr(list(range(1000)))[:60] + "…"),
        ("kind", "rho", "'rho'"),
        ("kind", "k" * 5000, "'" + "k" * 59 + "…"),
    ], ids=["word", "negative", "list", "60-chars", "61-chars", "5000-chars", "long-list",
            "kind", "long-kind"])
    def test_ill_typed_table_value_is_echoed_up_to_60_characters(
        self, key, value, shown, tmp_path, capsys
    ):
        doc = {"kind": "lyubeznik", "dim": 1, "entries": [[0, 0], [0, 1]]}
        if key == "kind":
            doc["kind"] = value
            message = f"kind must be 'lyubeznik' or 'cdr', got {shown}"
        else:
            doc["entries"][0][1] = value
            message = f"table entries must be nonnegative integers or null, got {shown}"
        path = write(tmp_path, "t.json", doc)
        assert run(capsys, "table", "check", "--input", path) == (2, "", f"error: {message}\n")

    @staticmethod
    def arrangement(entry, name=None):
        if name is None:
            return {"ambient_dim": 1, "subspaces": [{"equations": [[1, entry]]}]}
        return {"ambient_dim": 1, "subspaces": [{"name": name, "equations": [[1]]}]}

    @staticmethod
    def fan(index):
        return {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "max_cones": [[0, 1, index]]}

    SHORT_ROW = ": every equation row needs exactly 2 entries (coefficients then constant)"

    @pytest.mark.parametrize("command, doc, message", [
        ("arrangement", arrangement("x"), "subspace 0: not a rational literal: 'x'"),
        ("arrangement", arrangement("x" * 5000),
         "subspace 0: not a rational literal: '" + "x" * 59 + "…"),
        ("arrangement", arrangement(list(range(2000))),
         "subspace 0: not a rational literal: " + repr(list(range(2000)))[:60]
         + "… (floats are not accepted)"),
        ("arrangement", arrangement(True), "subspace 0: not a rational literal: True"),
        ("fan", fan("7"), "maximal cone 0 has a ray index out of range: '7'"),
        ("fan", fan(3), "maximal cone 0 has a ray index out of range: 3"),
        ("fan", fan("7" * 5000),
         "maximal cone 0 has a ray index out of range: '" + "7" * 59 + "…"),
        ("arrangement", arrangement(None, "n" * 60), "n" * 60 + SHORT_ROW),
        ("arrangement", arrangement(None, "n" * 61), "'" + "n" * 59 + "…" + SHORT_ROW),
        ("arrangement", arrangement(None, "n" * 5000), "'" + "n" * 59 + "…" + SHORT_ROW),
        ("arrangement", arrangement(None, list(range(30))),
         repr(list(range(30)))[:60] + "…" + SHORT_ROW),
    ], ids=["short-literal", "long-literal", "long-list-literal", "bool-literal",
            "short-cone-index", "cone-index", "long-cone-index",
            "60-char-name", "61-char-name", "long-name", "long-list-name"])
    def test_long_value_is_echoed_up_to_60_characters(
        self, command, doc, message, tmp_path, capsys
    ):
        path = write(tmp_path, "in.json", doc)
        argv = ["arrangement", "cdr"] if command == "arrangement" else ["fan", "validate"]
        assert run(capsys, *argv, "--input", path) == (2, "", f"error: {message}\n")
        assert len(f"error: {message}\n".encode()) < 200

    @pytest.mark.parametrize("limit, message", [
        ("x" * 3000, "must be an integer, got '" + "x" * 59 + "…"),
        ("7" * 5000, "must be an integer, got '" + "7" * 59 + "…"),
        ("-" + "7" * 3000, "must be a positive integer, got '-" + "7" * 58 + "…"),
    ], ids=["word", "past-digit-limit", "negative"])
    def test_long_search_limit_is_echoed_up_to_60_characters(
        self, limit, message, tmp_path, capsys, monkeypatch
    ):
        path = write(tmp_path, "t.json", {"kind": "lyubeznik", "dim": 1,
                                          "entries": [[0, 0], [0, None]]})
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", limit)
        expected = f"error: INVAR_SEARCH_LIMIT {message}\n"
        assert run(capsys, "table", "deduce", "--input", path) == (2, "", expected)
        assert len(expected.encode()) < 200

    def test_long_float_literal_is_echoed_up_to_60_characters(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_bytes(self.VALID + b'"unused": 1.' + b"0" * 5000 + b"}")
        assert run(capsys, "arrangement", "cdr", "--input", str(path)) == (
            2, "", "error: floating point literal '1." + "0" * 57 + "… is not allowed; "
            "use integers or 'p/q' strings\n"
        )


class TestParser:
    """Help texts, usage errors and parser construction, pinned byte for byte."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", list(HELP))
    def test_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP[argv], "")

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS))
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", USAGE_ERRORS[argv])

    def test_group_after_unknown_option(self, capsys):
        # argparse reads the group past a leading unknown option, so its
        # commands must be built too
        with pytest.raises(SystemExit) as exc:
            main(["-x", "table", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP[("table",)], "")

    @pytest.mark.parametrize("argv, parsers", [
        (["table", "check", "--input", "in.json"], 0),
        (["arrangement", "cdr", "--input", "in.json", "--format", "json"], 0),
        (["fan", "picard", "--input", "in.json", "--strict"], 0),
        (["tables", "small", "--dim", "2", "--a", "3"], 0),
        (["table", "check", "--inp", "in.json"], 17),
        (["table", "deduce", "--input", "in.json", "--bound", "-2"], 17),
        (["table", "-h"], 17),
        (["-x", "table", "-h"], 17),
        (["-h"], 17),
    ], ids=["table-check", "arrangement-cdr", "fan-picard", "tables-small",
            "abbreviated-option", "negative-value", "table-help",
            "unknown-option-table-help", "help"])
    def test_builds_only_the_named_group(self, argv, parsers, monkeypatch, capsys):
        calls = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            main(argv)
        except SystemExit:
            pass
        # none for a canonical argv; otherwise the full tree: the top level,
        # 4 groups and 12 commands
        assert len(calls) == parsers

    def test_options_use_only_what_the_reader_reads(self):
        # _read_canonical reads these keywords alone; it would misread any other
        readable = {"type", "choices", "required", "default", "action", "help"}
        for group, (_, _, commands) in cli._GROUPS.items():
            for command, arguments in commands.items():
                for flag, options in arguments:
                    where = (group, command, flag)
                    assert options.keys() <= readable, where
                    assert options.get("action", "store_true") == "store_true", where

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["invar", "tables", "small", "--dim", "2", "--a", "3"])
        assert main() == 0
        assert capsys.readouterr() == ("·  2  ·\n·  ·  ·\n·  ·  3\n", "")
        monkeypatch.setattr(sys, "argv", ["invar", "table", "check"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", USAGE_ERRORS[("table", "check")])


def reference_build_parser(group):
    """The former _build_parser: every group, with command parsers only under `group`."""
    parser = argparse.ArgumentParser(
        prog="invar",
        description="Invariant tables of subspace arrangements and toric 3-folds",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, _, commands) in cli._GROUPS.items():
        group_parser = sub.add_parser(name, help=help_text)
        if name != group:
            continue
        csub = group_parser.add_subparsers(dest="command", required=True)
        for command, arguments in commands.items():
            command_parser = csub.add_parser(command)
            for flag, options in arguments:
                command_parser.add_argument(flag, **options)
    return parser


def reference_parse(argv):
    group = next((arg for arg in argv if not arg.startswith("-")), None)
    return reference_build_parser(group).parse_args(argv)


class _Parsed(Exception):
    """Raised by a stubbed handler, carrying the namespace main parsed."""


def _stub_handler(args):
    raise _Parsed(args)


def parse_by_main(argv):
    try:
        main(argv)
    except _Parsed as exc:
        return exc.args[0]
    raise AssertionError(f"main returned without calling the handler for {argv}")


def outcome(parse, argv):
    """(("parsed", namespace) or ("exit", code), stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("parsed", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# a valid value for every argument but --format that takes one
_VALUES = {"--input": "in.json", "--bound": "4", "--dim": "2", "--a": "3"}


def valid_argvs():
    """Every command with each of its value arguments, in both formats."""
    for group, (_, _, commands) in cli._GROUPS.items():
        for command, arguments in commands.items():
            values = [x for flag, _ in arguments if flag in _VALUES for x in (flag, _VALUES[flag])]
            for fmt in ("json", "pretty"):
                yield (group, command, *values, "--format", fmt)
                yield (group, command, "--strict", *values, f"--format={fmt}")


def random_argvs(count, seed):
    """Seeded argvs of names, options, option fragments and stray words.

    Half of them start from a group, one of its commands (now and then
    another group's) and that command's value arguments, so that many parse.
    """
    commands = sorted({c for _, _, cs in cli._GROUPS.values() for c in cs})
    tokens = list(cli._GROUPS) + commands + [
        "--", "-", "-1", "-x", "-h", "--help", "--inp", "--form=json", "--bound=-2",
        "--input", "in.json", "--format", "json", "pretty", "--strict", "--bound", "--dim",
        "2", "--a", "stray", "extra words",
    ]
    rng = random.Random(seed)
    for _ in range(count):
        argv = []
        if rng.random() < 0.5:
            group = rng.choice(list(cli._GROUPS))
            own = cli._GROUPS[group][2]
            command = rng.choice(list(own) if rng.random() < 0.9 else commands)
            argv = [group, command]
            for flag, _ in own.get(command, ()):
                if flag in _VALUES and rng.random() < 0.9:
                    argv += [flag, _VALUES[flag]]
        for _ in range(rng.randint(0, 2 if argv else 7)):  # tokens anywhere
            argv.insert(rng.randint(0, len(argv)), rng.choice(tokens))
        if argv and rng.random() < 0.2:  # repeat a flag
            argv.append(rng.choice([t for t in argv if t.startswith("-")] or argv))
        yield tuple(argv)


class TestAgainstReferenceParser:
    """main parses every argv as the former all-group parser did, byte for byte."""

    @pytest.fixture(autouse=True)
    def stubbed(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_GROUPS", {
            name: (help_text, _stub_handler, commands)
            for name, (help_text, _, commands) in cli._GROUPS.items()
        })

    def test_corpus(self):
        corpus = [(*argv, "-h") for argv in HELP] + list(USAGE_ERRORS) + list(valid_argvs())
        corpus += random_argvs(2000, seed=1010)
        # one reference tree per group, built here because the fixture has
        # stubbed _GROUPS; argparse keeps no state between parses, error
        # exits included, so reusing a tree gives reference_parse's outcome
        parsers = {}

        def cached_reference_parse(argv):
            group = next((arg for arg in argv if not arg.startswith("-")), None)
            if group not in parsers:
                parsers[group] = reference_build_parser(group)
            return parsers[group].parse_args(argv)

        kinds = Counter()
        for argv in corpus:
            expected = outcome(cached_reference_parse, argv)
            assert outcome(parse_by_main, argv) == expected, argv
            kinds[expected[0] if expected[0][0] == "exit" else "parsed"] += 1
        # parses, help texts and usage errors all occur often
        assert min(kinds.values()) >= 100 and len(kinds) == 3, kinds

    def test_reader_takes_every_valid_argv(self):
        # as the benchmark calls main: an absolute path, a bound, json last
        path = str(Path(__file__).resolve().parent / "in.json")
        benchmark = ("table", "deduce", "--input", path, "--bound", "8", "--format", "json")
        for argv in [*valid_argvs(), benchmark]:
            # a SimpleNamespace against argparse's Namespace: the same fields and values
            assert vars(cli._read_canonical(list(argv))) == vars(reference_parse(list(argv))), argv

    def test_reader_agrees_on_random_argvs(self):
        accepted = 0
        for argv in random_argvs(2000, seed=1010):
            args = cli._read_canonical(list(argv))
            if args is not None:
                accepted += 1
                assert outcome(reference_parse, argv) == (("parsed", vars(args)), "", ""), argv
        # a reader that declined everything would pass every other parity test
        assert accepted >= 100, accepted

    @pytest.mark.parametrize("argv", [
        ("table", "check", "--inp", "in.json"),
        ("table", "deduce", "--input", "in.json", "--bound", "-2"),
        ("table", "check", "--input"),
        ("table", "check", "--input", "in.json", "--strict=1"),
        ("table", "check", "--input", "in.json", "--format", "xml"),
        ("table", "deduce", "--input", "in.json", "--bound", "x"),
        ("table", "check", "--", "--input", "in.json"),
        ("table", "check", "--input", "in.json", "-h"),
        ("table", "check", "--input", "in.json", "stray"),
        ("table", "check", "--format", "json"),
        ("tables", "small", "--a", "3"),
    ], ids=["abbreviated", "negative-value", "no-value", "strict-value", "bad-choice",
            "bad-int", "double-dash", "help", "stray-word", "no-input", "no-dim"])
    def test_reader_declines(self, argv):
        assert cli._read_canonical(list(argv)) is None
        assert outcome(parse_by_main, argv) == outcome(reference_parse, argv)

    @pytest.mark.parametrize("argv, dest, value", [
        (("table", "check", "--input", "in.json", "--format=json"), "format", "json"),
        (("table", "deduce", "--input", "in.json", "--bound=-2"), "bound", -2),
        (("table", "check", "--input="), "input", ""),
        (("table", "check", "--input", "in.json", "--format", "json", "--format", "pretty"),
         "format", "pretty"),
    ], ids=["format-equals", "negative-bound-equals", "empty-input", "last-format-wins"])
    def test_reader_accepts(self, argv, dest, value):
        args = cli._read_canonical(list(argv))
        assert vars(args) == vars(reference_parse(list(argv)))
        assert getattr(args, dest) == value


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


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Every command runs in a fresh process, which would pay for these
    modules at start-up; under `-S` no `site` preloads any of them.  Only an
    argv that `_read_canonical` declines imports argparse."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import invar.cli; "
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv, imported", [
    (["tables", "small", "--dim", "1", "--format", "json"], False),
    (["tables", "small", "--dim", "1", "--format=json", "--strict"], False),
    (["tables", "small", "--dim", "1", "--form", "json"], True),
], ids=["canonical", "canonical-equals", "abbreviated"])
def test_only_a_declined_argv_imports_argparse(argv, imported):
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import invar.cli; "
            "code = invar.cli.main(sys.argv[2:]); print(code, 'argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src), *argv],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"0 {imported}"
