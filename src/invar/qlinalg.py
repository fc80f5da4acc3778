"""Exact linear algebra: one integer elimination kernel, rational matrices
at the boundary.

All elimination runs on Python ints and is fraction-free.  There is one
sparse forward-elimination loop, `_extend_sparse_echelon`, which adds one
sparse row at a time to an echelon basis: it ranks the coboundaries of
simplicial complexes and holds the deduction engine's basis of completion
differences.  There is one back-substitution step, `_substitute`, which
clears a row at the pivot columns of reduced rows, one pivot lookup,
`_pivot`, and one normalization, `_primitive`.  Every dense reduced form
comes from `_reduced`, a fraction-free Gauss-Jordan fold of one row at a
time built on them, and `_nullspace_int` reads primitive nullspace vectors
off it; the other layers call these directly.
`fractions.Fraction` appears only at the boundary: rational string literals,
the `QMatrix` wrappers, and `_rref`, the one rational read-out of reduced
rows, which `QMatrix.rref` and `AffineSubspace.rref_rows` return.  Integer
input stays `int`.  Nothing ever rounds.  Desk-scale sizes only.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, _Frozen, _echo, _int

# Entries larger than this trigger a gcd content reduction during forward
# elimination; keeps bit growth polynomial without dividing every step.
_REDUCE_THRESHOLD = 1 << 128
# A rational literal: no decimal point, exponent or underscore, all of which
# Fraction reads ("1e10000000" would expand to a 33-million-bit integer).
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> int | Fraction:
    """Read an exact rational: an int is returned as it is, a Fraction too,
    and a "p/q" or "p" string becomes a Fraction.

    Bools and floats are rejected: floats have already lost exactness
    upstream.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational literal: {_echo(value)}")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value.strip()) is None:
            raise InputError(f"not a rational literal: {_echo(value)}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError as exc:
            raise InputError(f"not a rational literal: {_echo(value)}") from exc
        except ValueError as exc:  # the digits matched, so int() hit its limit
            raise InputError(
                f"rational literal has an integer longer than {sys.get_int_max_str_digits()} digits"
            ) from exc
    raise InputError(f"not a rational literal: {_echo(value)} (floats are not accepted)")


def _scaled_to_int(row: Sequence[int | Fraction]) -> list[int]:
    """A row of ints and Fractions times the lcm of its denominators."""
    m = lcm(*[x.denominator for x in row])
    return [x.numerator * (m // x.denominator) for x in row]


def format_rational(x: Fraction):
    """Serialize a Fraction as a bare int or a "p/q" string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


class QMatrix(_Frozen):
    """Immutable dense matrix over the rationals."""

    __slots__ = ("entries", "nrows", "ncols")
    entries: tuple[tuple[int | Fraction, ...], ...]
    nrows: int
    ncols: int

    def __init__(self, entries: Iterable[Sequence], ncols: int | None = None):
        if ncols is not None:
            _int(ncols, "ncols", 0)
        rows = tuple(tuple(parse_rational(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise InputError(f"expected {ncols} columns, got {width}")
        else:
            if ncols is None:
                ncols = 0
            width = ncols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def scale_rows_to_int(self) -> list[list[int]]:
        """Clear denominators row by row (rank-preserving)."""
        return [_scaled_to_int(row) for row in self.entries]

    def rank(self) -> int:
        return len(_reduced(self.scale_rows_to_int()))

    def rref(self) -> "QMatrix":
        """The unique reduced row echelon form; zero rows stay, at the bottom."""
        rows = _rref(row for _, row in _reduced(self.scale_rows_to_int()))
        rows += [[0] * self.ncols] * (self.nrows - len(rows))
        return QMatrix(rows, ncols=self.ncols)

    def nullspace_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right nullspace, in the canonical rref parameterization."""
        basis = []
        for vec in _nullspace_int(self.scale_rows_to_int(), self.ncols):
            # an integer basis vector's last nonzero entry sits at its free column
            free = next(x for x in reversed(vec) if x)
            basis.append(tuple(Fraction(x, free) for x in vec))
        return basis


def _extend_sparse_echelon(basis: dict[int, dict[int, int]], vec: dict[int, int]) -> bool:
    """Add vec to a sparse echelon basis unless it lies in the basis's span.

    Rows and vec map columns to nonzero ints; basis maps each row's smallest
    column, its pivot, to the row.  Each step cancels vec's smallest column c
    against the row at c, in place: with a = row[c], b = vec[c] and g their
    gcd, vec becomes (a/g) vec - (b/g) row.  Its content is divided out only
    when the step scaled vec and an entry passed _REDUCE_THRESHOLD, which
    keeps bit growth polynomial.  The cost is proportional to the nonzero
    entries, not the columns.  Returns whether vec was added.  vec is used
    up: it becomes the new basis row, or is left partly reduced.
    """
    while vec:
        c = min(vec)
        row = basis.get(c)
        if row is None:
            basis[c] = vec
            return True
        a, b = row[c], vec[c]
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g  # a > 0
        if a > 1:
            for k in vec:
                vec[k] *= a
        for k, v in row.items():
            x = vec.get(k, 0) - b * v
            if x:
                vec[k] = x
            else:
                del vec[k]
        if a > 1 and vec and max(map(abs, vec.values())) > _REDUCE_THRESHOLD:
            vec = dict(zip(vec, _content_free(vec.values())))
    return False


def _content_free(row: Sequence[int]) -> tuple[int, ...]:
    """An integer row divided by the (positive) gcd of its entries."""
    g = gcd(*row)
    return tuple(row) if g <= 1 else tuple([x // g for x in row])


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer row divided by its content, its pivot made positive."""
    g = gcd(*row)
    if row[_pivot(row)] < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _pivot(row: Sequence[int]) -> int:
    """The column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _pivots(rows: Iterable[Sequence[int]]) -> list[tuple[int, Sequence[int]]]:
    """The (pivot column, row) pairs of nonzero rows, as `_substitute` takes them."""
    return [(_pivot(row), row) for row in rows]


def _rref(rows: Iterable[Sequence[int]]) -> list[list[Fraction]]:
    """The rational rref of primitive reduced rows: each divided by its pivot."""
    return [[Fraction(x, row[c]) for x in row] for c, row in _pivots(rows)]


def _substitute(row: Sequence[int], pivots) -> Sequence[int]:
    """`row` with each column c of the (c, reduced row) pairs `pivots`
    cleared, as reduced[c] * row - row[c] * reduced; `row` itself when no
    column needs clearing.  Each reduced row is positive at its own column
    and zero at the others', so no step undoes another, and an entry where
    all are zero keeps its sign.  Entries grow by one fixed pivot's bits per
    step, so the caller divides out the content once, at the end.
    """
    for c, reduced in pivots:
        v = row[c]
        if v:
            p = reduced[c]
            row = [a * p - v * b for a, b in zip(row, reduced)]
    return row


def _reduced(rows: Iterable[Sequence[int]], pairs=()) -> list[tuple[int, Sequence[int]]]:
    """The (pivot column, row) pairs of the primitive reduced form of the
    span of `rows` and the (c, reduced row) pairs `pairs`, sorted by column.

    A fraction-free Gauss-Jordan fold: each row is cleared at the pivots so
    far by `_substitute`; what is left, if anything, is made primitive, and
    the earlier rows are cleared at its pivot and have their content divided
    out.  Each row is primitive with a positive pivot, and every pivot column
    is zero outside its pivot row; dividing each row by its pivot gives the
    unique rref, so equal row spaces give equal results.  Zero rows are
    dropped, so the number of pairs is the rank.
    """
    done = list(pairs)
    for row in rows:
        row = _substitute(row, done)
        if any(row):
            row = _primitive(row)
            c = _pivot(row)
            for i, (d, old) in enumerate(done):
                if old[c]:
                    done[i] = (d, _content_free(_substitute(old, ((c, row),))))
            done.append((c, row))
    done.sort()  # the columns differ, so no two rows are compared
    return done


def _nullspace_int(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right nullspace of an integer matrix.

    One vector per free (non-pivot) column f, in increasing order of f: it is
    positive at f, zero at the other free columns, so it is a positive
    multiple of the rref-parameterized basis vector of f.
    """
    pivots = _reduced(rows)
    # a common multiple of the pivots clears every denominator of the rref
    scale = lcm(*(row[c] for c, row in pivots))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f not in pivot_cols:
            vec = [0] * ncols
            vec[f] = scale
            for c, row in pivots:
                vec[c] = -row[f] * (scale // row[c])
            basis.append(_content_free(vec))
    return basis
