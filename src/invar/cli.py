"""Command line front end.

Exit codes: 0 success, 2 input or validation error (diagnostics on stderr),
3 infeasibility reported by table check / table deduce, 4 table deduce over
its node limit (INVAR_SEARCH_LIMIT) or a fan command's Fourier-Motzkin stage
over its pair limit (message on stderr).  Output is either an
aligned text table (zeros printed as a middle dot) or a single JSON document;
for tables the JSON keys are always kind, dim, entries, notes in that order.

One table, _GROUPS, names each group's help, handler and commands.  A
well-formed argv, `group command --flag value ... [--flag=value] [--strict]`,
is read straight from _CANONICAL, that table's flags, defaults and required
options per command, built once at import, and builds no parser.  Any other
argv, and every request for help, goes to the full argparse tree of
_GROUPS, which alone writes help, usage and error text.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import arrangements, fans, tables
from .errors import InputError, InputWarning, SearchLimitError
from .fileio import (
    dumps_doc,
    dumps_table,
    load_json,
    parse_arrangement,
    parse_fan,
    parse_table,
)
from .posets import _bits
from .qlinalg import format_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SEARCH_LIMIT = 4


def _emit_table(table: tables.InvariantTable, notes: list[str], fmt: str) -> str:
    if fmt == "json":
        return dumps_table(table, notes)
    out = table.pretty()
    for note in notes:
        out += f"\n# {note}"
    return out


def _emit_doc(doc: dict, fmt: str, pretty_lines: list[str]) -> str:
    if fmt == "json":
        return dumps_doc(doc)
    return "\n".join(pretty_lines)


def _emit_lattice(n: int, lattice: arrangements.IntersectionLattice, fmt: str) -> str:
    flats = [
        {
            "id": f.id,
            "dim": f.dim,
            "equations": [[format_rational(x) for x in row] for row in f.subspace.rref_rows()],
        }
        for f in lattice.flats
    ]
    order = [[i, j] for i, up in enumerate(lattice.up) for j in _bits(up)]
    doc = {"ambient_dim": n, "top": lattice.top_id, "flats": flats, "order": order, "notes": []}
    lines = [f"ambient dimension {n}, {len(flats)} flats, top id {lattice.top_id}"]
    for f in flats:
        eqs = "; ".join(" ".join(map(str, row)) for row in f["equations"])
        lines.append(f"flat {f['id']}: dim {f['dim']}" + (f"  [{eqs}]" if eqs else "  [ambient]"))
    lines.append("order: " + ", ".join(f"{a}<{b}" for a, b in order))
    return _emit_doc(doc, fmt, lines)


def _cmd_arrangement(args) -> tuple[int, str]:
    n, components, names = parse_arrangement(load_json(args.input))
    if args.command == "lyubeznik":
        table = arrangements.lyubeznik_dim2(components)
        return EXIT_OK, _emit_table(table, [f"components: {len(components)}"], args.format)
    lattice = arrangements.build_lattice(components)
    if args.command == "lattice":
        try:
            return EXIT_OK, _emit_lattice(n, lattice, args.format)
        except ValueError as exc:  # str() of an int past the digit limit
            raise InputError(
                f"a flat's equations have an integer longer than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from exc
    if args.command == "oracle":
        betti = arrangements.moebius_betti_oracle(lattice)
        doc = {"ambient_dim": n, "betti": betti, "notes": []}
        lines = [f"b{k} = {v}" for k, v in enumerate(betti)]
        return EXIT_OK, _emit_doc(doc, args.format, lines)
    table = arrangements.cdr_table(lattice)
    if args.command == "cdr":
        notes = [f"ambient dimension: {n}", f"components: {len(names)}"]
        return EXIT_OK, _emit_table(table, notes, args.format)
    betti = arrangements.complement_betti(table, n)
    doc = {"ambient_dim": n, "betti": betti, "notes": []}
    lines = [f"b~{k} = {v}" for k, v in enumerate(betti) if v] or ["all reduced Betti numbers vanish"]
    return EXIT_OK, _emit_doc(doc, args.format, lines)


def _cmd_fan(args) -> tuple[int, str]:
    fan = parse_fan(load_json(args.input))
    if args.command == "validate":
        report = fans.validate_fan(fan)
        if not report.valid:
            raise InputError("; ".join(report.violations))
        doc = {
            "valid": True,
            "complete": report.complete,
            "rays": len(fan.rays),
            "max_cones": len(fan.max_cones),
            "walls": len(report.walls),
            "notes": [],
        }
        lines = [
            "valid fan: complete",
            f"{len(fan.rays)} rays, {len(fan.max_cones)} maximal cones, {len(report.walls)} walls",
        ]
        return EXIT_OK, _emit_doc(doc, args.format, lines)
    if args.command == "picard":
        data = fans.picard_data(fan)
        doc = {
            "picard_rank": data.picard_rank,
            "class_rank": data.class_rank,
            "projective": data.projective,
            "notes": [],
        }
        lines = [
            f"picard_rank = {data.picard_rank}",
            f"class_rank = {data.class_rank}",
            f"projective = {'yes' if data.projective else 'no'}",
        ]
        return EXIT_OK, _emit_doc(doc, args.format, lines)
    if args.command == "projective":
        result = fans.is_projective(fan)
        doc = {"projective": result, "notes": []}
        return EXIT_OK, _emit_doc(doc, args.format,
                                  [f"projective = {'yes' if result else 'no'}"])
    table = fans.toric_lyubeznik(fan)
    notes = [f"picard_rank: {table.entry(0, 3) + 1}"]
    return EXIT_OK, _emit_table(table, notes, args.format)


def _cmd_table(args) -> tuple[int, str]:
    table, ambient, betti, file_bound = parse_table(load_json(args.input))
    if args.command == "deduce":
        bound = args.bound if args.bound is not None else file_bound
        result = tables.deduce_lambda(table, bound)
        if result.contradiction:
            out = _emit_table(table, result.notes(), args.format)
            return EXIT_INFEASIBLE, out
        filled = table.with_entries(result.forced)
        return EXIT_OK, _emit_table(filled, result.notes(), args.format)

    # table check
    if not table.is_complete():
        raise InputError("table check needs fully known entries; use table deduce")
    notes: list[str] = []
    if table.kind == tables.KIND_LYUBEZNIK:
        diags = tables.validate_lambda(table)
        if diags:
            return EXIT_INFEASIBLE, _emit_table(table, ["invalid: " + d for d in diags], args.format)
        es = tables.euler_sum(table)
        notes.append(f"euler sum: {es}")
        feasible, witness = tables.check_convergence_lambda(table)
        if not feasible:
            notes.append("convergence: infeasible")
            return EXIT_INFEASIBLE, _emit_table(table, notes, args.format)
        notes.append("convergence: feasible")
        for page, src, tgt, rank in witness:
            notes.append(
                f"witness: page {page} differential ({src[0]},{src[1]}) -> "
                f"({tgt[0]},{tgt[1]}) of rank {rank}"
            )
        return EXIT_OK, _emit_table(table, notes, args.format)

    # cdr tables need the abutment data
    if ambient is None or betti is None:
        raise InputError("checking a cdr table needs 'ambient_dim' and 'betti' in the file")
    bad = tables.validate_cdr(table)
    if bad:
        return EXIT_INFEASIBLE, _emit_table(table, ["invalid: " + b for b in bad], args.format)
    feasible, witness = tables.check_cdr(table, betti, ambient)
    if not feasible:
        notes.append("abutment: infeasible against the given Betti numbers")
        return EXIT_INFEASIBLE, _emit_table(table, notes, args.format)
    notes.append("abutment: feasible")
    notes.append(f"degenerate solution matches: {'yes' if witness == () else 'no'}")
    return EXIT_OK, _emit_table(table, notes, args.format)


def _cmd_tables(args) -> tuple[int, str]:
    table = tables.canonical_small_tables(args.dim, args.a)
    return EXIT_OK, _emit_table(table, [], args.format)


_OUTPUT = (
    ("--format", {"choices": ("json", "pretty"), "default": "pretty"}),
    ("--strict", {"action": "store_true", "help": "treat input warnings as errors"}),
)
_FILE = (("--input", {"required": True, "help": "path to a JSON input file"}),) + _OUTPUT

# group -> (help, handler, {command: its arguments in usage order})
_GROUPS = {
    "arrangement": ("subspace arrangement commands", _cmd_arrangement,
                    dict.fromkeys(("lattice", "cdr", "betti", "lyubeznik", "oracle"), _FILE)),
    "fan": ("toric fan commands", _cmd_fan,
            dict.fromkeys(("validate", "picard", "projective", "lyubeznik"), _FILE)),
    "table": ("invariant table commands", _cmd_table, {
        "check": _FILE,
        "deduce": _FILE + (("--bound", {"type": int, "default": None,
                                        "help": "upper bound for unknown entries (default 10)"}),),
    }),
    "tables": ("closed-form small tables", _cmd_tables, {
        "small": (
            ("--dim", {"type": int, "required": True, "help": "dimension (0, 1 or 2)"}),
            ("--a", {"type": int, "default": 1,
                     "help": "connected components of the punctured spectrum (dim 2 only)"}),
        ) + _OUTPUT,
    }),
}


# (group, command) -> (flag -> (destination, options), the defaults by destination)
_CANONICAL = {
    (group, command): ({f: (f[2:].replace("-", "_"), o) for f, o in arguments},
                       {f[2:].replace("-", "_"): o.get("default", False if "action" in o else None)
                        for f, o in arguments})
    for group, (_, _, commands) in _GROUPS.items() for command, arguments in commands.items()
}


def _read_canonical(argv: list[str]) -> argparse.Namespace | None:
    """argparse's Namespace for `group command --flag value ... [--flag=value] [--strict]`.

    Names, type, choices, required, default and store_true come from _GROUPS,
    by _CANONICAL, and use no other add_argument keyword (a test pins this).
    Anything else gives None: an unknown or abbreviated option, -h, --, a
    stray word, a separate value starting with "-", a missing required
    option, a bad int or choice, or --strict=....  main then parses with
    argparse, so help, usage and error text have one source.
    """
    spec = _CANONICAL.get(tuple(argv[:2]))
    if spec is None:
        return None
    arguments, defaults = spec
    args = argparse.Namespace(group=argv[0], command=argv[1], **defaults)
    tokens = iter(argv[2:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag not in arguments:
            return None
        dest, options = arguments[flag]
        if "action" in options:
            if equals:
                return None
            setattr(args, dest, True)
            continue
        if not equals:
            value = next(tokens, None)
            # argparse may read "-2" as a value or "-h" as help: let it decide
            if value is None or value.startswith("-"):
                return None
        if "type" in options:
            try:
                value = options["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        setattr(args, dest, value)
    # a required option has no default, and a given value is never None
    missing = any(o.get("required") and getattr(args, d) is None for d, o in arguments.values())
    return None if missing else args


def _build_parser() -> argparse.ArgumentParser:
    """The full argparse tree of _GROUPS.

    main builds it only for an argv that _read_canonical declines, so it is
    the one source of help, usage and error text.
    """
    parser = argparse.ArgumentParser(
        prog="invar",
        description="Invariant tables of subspace arrangements and toric 3-folds",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, _, commands) in _GROUPS.items():
        csub = sub.add_parser(name, help=help_text).add_subparsers(dest="command", required=True)
        for choice, arguments in commands.items():
            command_parser = csub.add_parser(choice)
            for flag, options in arguments:
                command_parser.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    handler = _GROUPS[args.group][1]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", InputWarning)
            code, output = handler(args)
        input_warnings = [w for w in caught if issubclass(w.category, InputWarning)]
        if input_warnings and args.strict:
            for w in input_warnings:
                print(f"error (strict): {w.message}", file=sys.stderr)
            return EXIT_INPUT
        for w in input_warnings:
            print(f"warning: {w.message}", file=sys.stderr)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_LIMIT
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
