"""Exact linear algebra: frozen examples plus randomized invariants."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from invar import InputError, QMatrix, parse_rational, qlinalg
from invar.qlinalg import (
    _extend_sparse_echelon, _nullspace_int, _pivot, _primitive, _reduced, _substitute,
    format_rational,
)


def reference_rref(rows, ncols):
    """Reference oracle: plain Gauss-Jordan elimination over Fractions (the
    implementation the integer kernel replaced).  Keeps zero rows, last."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr = len(rows)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    return rows


def reference_nullspace(rows, ncols):
    """Nullspace basis in the rref parameterization, from `reference_rref`."""
    red = [r for r in reference_rref(rows, ncols) if any(r)]
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(red, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis


def reference_echelon_int(rows, ncols):
    """Reference oracle: dense fraction-free forward elimination (the loop
    the former `_echelon_int` ran before it read the sparse kernel's basis).
    Prefers unit pivots and divides a row by its content once an entry passes the
    threshold.  Returns the nonzero echelon rows; their number is the rank."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            v = work[i][c]
            if v == 1 or v == -1:
                piv = i
                break
            if v != 0 and piv is None:
                piv = i
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(r + 1, len(work)):
            lead = work[i][c]
            if lead:
                row = [a * pv - lead * b for a, b in zip(work[i], prow)]
                if pv not in (1, -1) and max(map(abs, row)) > qlinalg._REDUCE_THRESHOLD:
                    g = gcd(*row)
                    row = [x // g for x in row]
                work[i] = row
        r += 1
    return work[:r]


def reference_sparse_echelon_int(rows, ncols):
    """Reference oracle: the former `_echelon_int`, the basis
    `_extend_sparse_echelon` builds from the rows in order, as dense rows
    sorted by pivot column."""
    basis = {}
    for row in rows:
        _extend_sparse_echelon(basis, {j: x for j, x in enumerate(row) if x})
    out = []
    for c in sorted(basis):
        dense = [0] * ncols
        for j, x in basis[c].items():
            dense[j] = x
        out.append(dense)
    return out


def reference_reduced_int(echelon):
    """Reference oracle: the former `_reduced_int`, the reduced form of
    echelon rows by back-substitution, bottom up, each row made primitive."""
    done = []  # (pivot column, row), bottom up
    for row in reversed(echelon):
        row = _primitive(_substitute(row, done))
        done.append((_pivot(row), row))
    return [row for _, row in reversed(done)]


def differential_matrices(seed, count):
    """Seeded matrices for the kernel-against-reference comparison: integer
    and rational entries, zero and duplicate rows, wide and tall shapes, and
    entries large enough to set off the content reduction."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        kind = t % 5
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        if kind == 1:  # wide
            ncols = rng.randint(nrows + 1, nrows + 9)
        elif kind == 2:  # tall
            nrows = rng.randint(ncols + 1, ncols + 8)
        if kind == 3:
            entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        elif kind == 4:
            entry = lambda: rng.choice((0, 1, -1, rng.getrandbits(90) - (1 << 89)))
        else:
            entry = lambda: rng.choice((0, 0, rng.randint(-5, 5)))
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.4:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        if rows and rng.random() < 0.4:
            src = rng.choice(rows)
            rows.insert(rng.randrange(len(rows) + 1), [x * rng.choice((1, -2)) for x in src])
        out.append((rows, ncols))
    return out


def huge_matrices(seed, count):
    """Seeded matrices with entries past the content-reduction threshold,
    each with a repeated row and a zero row."""
    rng = random.Random(seed)
    big = qlinalg._REDUCE_THRESHOLD
    out = []
    for _ in range(count):
        ncols = rng.randint(1, 6)
        entry = lambda: rng.choice((0, 0, 1, -3, big + rng.getrandbits(40), -big))
        rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
        out.append((rows + [list(rng.choice(rows)), [0] * ncols], ncols))
    return out


def cofactor_det(rows):
    """Independent determinant by recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def gf_rank(rows, p):
    """Independent rank over GF(p) by plain elimination."""
    work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
    return r


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def transposed(m: QMatrix) -> QMatrix:
    return QMatrix(zip(*m.entries), ncols=m.nrows)


class TestRank:
    def test_proportional_rows(self):
        assert QMatrix([[1, 2], [2, 4]]).rank() == 1

    def test_hilbert_segment(self):
        rows = [
            [Fraction(1), Fraction(1, 2), Fraction(1, 3)],
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
            [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
        ]
        # oracle first: the exact determinant is nonzero, so full rank
        assert cofactor_det(rows) == Fraction(1, 2160)
        assert QMatrix(rows).rank() == 3

    def test_empty(self):
        assert QMatrix([], ncols=4).rank() == 0

    @pytest.mark.parametrize("rows, ncols, text", [
        ([], "3", "ncols must be a nonnegative integer, got '3'"),
        ([], -1, "ncols must be a nonnegative integer, got -1"),
        ([], True, "ncols must be a nonnegative integer, got True"),
        ([[1, 2]], "2", "ncols must be a nonnegative integer, got '2'"),
        ([[1, 2]], 3, "expected 3 columns, got 2"),
    ])
    def test_ncols_is_checked(self, rows, ncols, text):
        with pytest.raises(InputError) as err:
            QMatrix(rows, ncols=ncols)
        assert str(err.value) == text

    def test_ncols_none_reads_the_rows(self):
        assert QMatrix([], ncols=None).ncols == 0
        assert QMatrix([[1, 2]], ncols=None).ncols == 2

    def test_transpose_invariance_random(self, rng):
        for _ in range(60):
            m = QMatrix(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
            assert m.rank() == transposed(m).rank()

    def test_row_permutation_and_scaling_invariance(self, rng):
        for _ in range(40):
            rows = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            base = QMatrix(rows).rank()
            perm = list(rng.choice(list(permutations(range(len(rows))))))
            scaled = [
                [Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2, 7])) * x for x in rows[i]]
                for i in perm
            ]
            assert QMatrix(scaled).rank() == base

    def test_modular_cross_check(self, rng):
        # two primes beyond any minor of these matrices, so ranks must agree
        primes = (2**61 - 1, 2**89 - 1)
        for _ in range(100):
            rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            q_rank = QMatrix(rows).rank()
            for p in primes:
                assert gf_rank(rows, p) == q_rank


class TestRref:
    def test_scaling(self):
        assert QMatrix([[2, 4]]).rref().entries == ((1, 2),)

    def test_zero_matrix(self):
        assert QMatrix([[0, 0], [0, 0]]).rref().entries == ((0, 0), (0, 0))

    def test_hand_elimination(self):
        got = QMatrix([[1, 1, 0], [0, 1, 1]]).rref()
        assert got == QMatrix([[1, 0, -1], [0, 1, 1]])

    def test_idempotent_random(self, rng):
        for _ in range(60):
            m = QMatrix(random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
            once = m.rref()
            assert once.rref() == once


class TestNullspace:
    def test_zero_row(self):
        assert len(QMatrix([[0, 0, 0]]).nullspace_basis()) == 3

    def test_rank_one(self):
        assert len(QMatrix([[1, 2], [2, 4]]).nullspace_basis()) == 1

    def test_basis_annihilates(self, rng):
        for _ in range(30):
            m = QMatrix(random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5)))
            basis = m.nullspace_basis()
            assert len(basis) == m.ncols - m.rank()
            for vec in basis:
                for row in m.entries:
                    assert sum(a * b for a, b in zip(row, vec)) == 0


class TestAgainstReferenceRref:
    """The integer kernel and its QMatrix wrappers against the deleted
    Fraction Gauss-Jordan, on 600 seeded matrices."""

    CASES = differential_matrices(4711, 600)
    HUGE = huge_matrices(4712, 60)

    def test_content_reduction_is_exercised(self, monkeypatch):
        calls = []

        def counting_content_free(row):
            calls.append(row)
            return content_free(row)

        # in `reference_sparse_echelon_int`, `_content_free` is called only
        # by the sparse kernel's past-threshold content reduction
        content_free = qlinalg._content_free
        monkeypatch.setattr(qlinalg, "_content_free", counting_content_free)
        reduced = 0
        for rows, ncols in self.CASES:
            before = len(calls)
            ints = QMatrix(rows, ncols=ncols).scale_rows_to_int()
            sparse = reference_sparse_echelon_int(ints, ncols)
            assert len(sparse) == len(reference_echelon_int(ints, ncols))
            reduced += len(calls) > before
        assert reduced >= 30
        assert all(max(map(abs, row)) > qlinalg._REDUCE_THRESHOLD for row in calls)

    def test_rref_rank_nullspace_match(self):
        for rows, ncols in self.CASES:
            m = QMatrix(rows, ncols=ncols)
            want = reference_rref(rows, ncols)
            assert m.rref() == QMatrix(want, ncols=ncols)
            assert m.rref().nrows == len(rows)
            assert m.rank() == sum(1 for r in want if any(r))
            assert m.nullspace_basis() == reference_nullspace(rows, ncols)

    def test_integer_kernel_shapes(self):
        # the huge matrices back-substitute past the threshold with no
        # content reduction on the way; the oracles and `_reduced` are held
        # to the same shape checks, and to each other
        for rows, ncols in self.CASES + self.HUGE:
            ints = QMatrix(rows, ncols=ncols).scale_rows_to_int()
            want = [r for r in reference_rref(rows, ncols) if any(r)]
            echelon = reference_sparse_echelon_int(ints, ncols)
            leads = [next(j for j, x in enumerate(r) if x) for r in echelon]
            assert leads == sorted(set(leads)) and len(echelon) == len(want)
            reduced = reference_reduced_int(echelon)
            pairs = _reduced(ints)
            assert pairs == [(_pivot(row), row) for row in reduced]
            for candidate in (reduced, [row for _, row in pairs]):
                assert len(candidate) == len(want)
                for row, ref in zip(candidate, want):
                    pivot = next(x for x in row if x)
                    assert pivot > 0 and gcd(*row) == 1
                    assert [Fraction(x, pivot) for x in row] == ref
            for vec, ref in zip(_nullspace_int(ints, ncols), reference_nullspace(rows, ncols)):
                assert gcd(*vec) == 1
                free = next(x for x in reversed(vec) if x)
                assert free > 0 and [Fraction(x, free) for x in vec] == list(ref)

    def test_sparse_echelon_matches_dense_ranks(self):
        for rows, ncols in self.CASES + self.HUGE:
            ints = QMatrix(rows, ncols=ncols).scale_rows_to_int()
            basis = {}
            for i, row in enumerate(ints):
                grows = (len(reference_echelon_int(ints[: i + 1], ncols))
                         > len(reference_echelon_int(ints[:i], ncols)))
                vec = {j: x for j, x in enumerate(row) if x}
                assert qlinalg._extend_sparse_echelon(basis, vec) == grows
            assert len(basis) == len(reference_echelon_int(ints, ncols))
            # echelon form: each row is keyed by its smallest column
            assert all(min(row) == c and all(row.values()) for c, row in basis.items())

    def test_input_rows_untouched(self):
        rows = [[2, 4, 6], [3, 1, 0], [5, 5, 6]]
        copy = [list(r) for r in rows]
        _nullspace_int(rows, 3)
        assert rows == copy


class TestReducedAgainstSparseThenBackSubstitute:
    """`_reduced`, the one dense reduced-form fold, against the sparse
    echelon and bottom-up back-substitution it replaced."""

    def test_random_systems(self):
        rng = random.Random(3737)
        kinds = {"zero row": 0, "0 = c row": 0, "dependent row": 0, "starting pairs": 0}
        for _ in range(20000):
            ncols = rng.randint(1, 7)
            rows = []
            for _ in range(rng.randint(0, 5)):
                shape = rng.random()
                if shape < 0.1:
                    row = [0] * ncols
                elif shape < 0.2:
                    row = [0] * (ncols - 1) + [rng.choice((-3, -1, 1, 2))]
                elif shape < 0.3 and rows:
                    a, b = rng.choice(rows), rng.choice(rows)
                    row = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
                else:
                    row = [rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(ncols)]
                rows.append(row)
            start = []
            if rng.random() < 0.3:
                start = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(ncols)]
                         for _ in range(rng.randint(1, 3))]
            # a reduced form folded on: the rows of one fold fed to another
            pairs = _reduced(start)
            expected = reference_reduced_int(reference_sparse_echelon_int(start + rows, ncols))
            got = _reduced([row for _, row in pairs] + rows)
            assert got == [(_pivot(row), row) for row in expected], (start, rows)
            assert all(type(row) is tuple for _, row in got)
            kinds["zero row"] += any(not any(row) for row in rows)
            kinds["0 = c row"] += any(row[-1] and not any(row[:-1]) for row in rows)
            kinds["dependent row"] += len(got) < len(pairs) + len(rows)
            kinds["starting pairs"] += bool(pairs)
        assert min(kinds.values()) >= 2000, kinds

    def test_remainders_and_stop_column(self):
        """The remainders of rows against reduced pairs, made by `_substitute`
        as the fold reads them (as `arrangements._cut` does), and the stop
        column, against the reduced form of the remainders taken over the
        rationals: None exactly when that form has a pivot there."""
        rng = random.Random(3939)
        kinds = {"stopped": 0, "held": 0, "contained": 0, "ran through": 0}
        for _ in range(5000):
            ncols = rng.randint(1, 7)
            entry = lambda: rng.choice((0, 0, rng.randint(-5, 5)))
            held = _reduced([[entry() for _ in range(ncols)] for _ in range(rng.randint(0, 3))])
            rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
            if held and rng.random() < 0.3:  # rows in the held span too
                rows.append([sum(rng.randint(-2, 2) * r[j] for _, r in held) for j in range(ncols)])
            stop = rng.randrange(ncols)
            remainders = []
            for row in rows:
                rem = [Fraction(x) for x in row]
                for c, r in held:
                    factor = rem[c] / r[c]
                    rem = [a - factor * b for a, b in zip(rem, r)]
                scale = 1
                for x in rem:
                    scale = scale * x.denominator // gcd(scale, x.denominator)
                remainders.append([int(x * scale) for x in rem])
            expected = reference_reduced_int(reference_sparse_echelon_int(remainders, ncols))
            expected = [(_pivot(row), row) for row in expected]
            got = _reduced((_substitute(row, held) for row in rows), stop=stop)
            if any(c == stop for c, _ in expected):
                assert got is None, (held, rows, stop)
                kinds["stopped"] += 1
                continue
            assert got == expected, (held, rows, stop)
            assert all(row[c] == 0 for _, row in got for c, _ in held)
            kinds["held"] += bool(held)
            kinds["contained"] += bool(rows) and not got
            kinds["ran through"] += 1
        assert min(kinds.values()) >= 500, kinds

    def test_stops_at_the_first_pivot_in_the_stop_column(self):
        def rows():
            yield [1, 2, 0]
            yield [2, 4, 3]  # 0 = 3 once cleared at column 0
            raise AssertionError("a row after the stop was read")

        assert _reduced(rows(), stop=2) is None
        assert _reduced(iter([[1, 2, 0], [0, 1, 3]]), stop=2) == [(0, (1, 0, -6)), (1, (0, 1, 3))]

    def test_inputs_untouched(self):
        rows = [[2, 4, 6], [3, 1, 0]]
        _reduced(rows)
        _reduced(rows, stop=2)
        assert rows == [[2, 4, 6], [3, 1, 0]]


class TestRationalLiterals:
    def test_parse(self):
        assert type(parse_rational(5)) is int and parse_rational(5) == 5
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == -2

    def test_reject_float(self):
        with pytest.raises(InputError):
            parse_rational(0.5)

    def test_reject_garbage(self):
        # Fraction would read the decimal point, exponent and underscore forms;
        # "1e10000000" would take seconds to expand to a 33-million-bit integer
        for text in ("x+1", "1/0", "1.5", ".5", "1e10000000", "2E3", "1_000", "1/2_0", "3/-4", ""):
            with pytest.raises(InputError):
                parse_rational(text)
        assert parse_rational(" +7/3 ") == Fraction(7, 3)

    def test_format_round_trip(self, rng):
        for _ in range(50):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 23))
            assert parse_rational(format_rational(x)) == x


class TestMatrixBasics:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            QMatrix([[1, 2], [3]])

    def test_immutable(self):
        m = QMatrix([[1]])
        with pytest.raises(AttributeError):
            m.entries = ()
