"""Property tests of the Cech-de Rham table, with seeded, bounded sizes.

Two cross-checks that hold for every arrangement, central or not, with
components of any dimension:

* Kuenneth: the complement of A x B = {X x C^m} u {C^n x Y} in C^(n+m) is the
  product of the complements of A and B, so its Poincare polynomial is the
  product of theirs.  Products of a hyperplane arrangement with one that is
  not mix Moebius numbers and ranked complexes in one table.  Cell by cell,
  the lattice of A x B is L(A) x L(B), and an open interval of a product is
  the suspension of the join of the factors' intervals (J. W. Walker, 1981),
  so the table of A x B is a convolution of the factors' tables (see
  `kuenneth_cells`).
* Invariance: an invertible affine change of coordinates maps the
  arrangement to an isomorphic one, so the table does not change.
"""

import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invar import (  # noqa: E402
    AffineSubspace,
    InputWarning,
    QMatrix,
    build_lattice,
    cdr_table,
    complement_betti,
)
from conftest import random_subspace  # noqa: E402
from test_arrangements import ranks_an_interval  # noqa: E402

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def arrangements(draw, max_n=3, max_components=3):
    """(n, rows of each component): central, or each component through its
    own point; every component has independent integer equations."""
    n = draw(st.integers(1, max_n))
    central = draw(st.booleans())
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    components = []
    for _ in range(draw(st.integers(1, max_components))):
        codim = draw(st.integers(1, n))
        rows = draw(st.lists(entries, min_size=codim, max_size=codim))
        assume(QMatrix(rows).rank() == codim)
        point = [0] * n if central else draw(entries)
        components.append([row + [-sum(a * b for a, b in zip(row, point))] for row in rows])
    return n, components


def lattice_of(n, components):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InputWarning)
        return build_lattice([AffineSubspace.from_rows(n, c) for c in components])


def table_of(n, components):
    return cdr_table(lattice_of(n, components))


def poincare(n, components) -> list[int]:
    """Betti numbers of the complement, from degree 0, trailing zeros cut."""
    reduced = complement_betti(table_of(n, components), n)
    betti = [1 + reduced[0]] + reduced[1:]
    while betti[-1] == 0:
        betti.pop()
    return betti


def product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@SETTINGS
@given(arrangements(), arrangements())
def test_kuenneth(first, second):
    (n, a), (m, b) = first, second
    padded = padded_product(n, a, m, b)
    assert poincare(n + m, padded) == product(poincare(n, a), poincare(m, b))


def padded_product(n, a, m, b):
    """The components of A x B in C^(n+m), A's first."""
    padded = [[row[:n] + [0] * m + row[n:] for row in c] for c in a]
    return padded + [[[0] * n + row for row in c] for c in b]


def kuenneth_cells(table_a, n, table_b, m) -> dict:
    """The nonzero cells of the table of A x B from the tables of A in C^n
    and B in C^m: rho(p, q) sums rho_A(p1, q1) rho_B(p2, q2) over p1 + p2 = p
    and q1 + q2 + 1 = q.  Each factor has one virtual entry (n_i, n_i - 1) = 1
    for its ambient flat, whose interval is empty, and the product of the two
    virtual entries, the ambient flat of the product, is dropped."""
    def cells(table, k):
        out = {(p, q): v for p, row in enumerate(table.entries) for q, v in enumerate(row) if v}
        out[k, k - 1] = 1
        return out

    virtual = ((n, n - 1), (m, m - 1))
    rho = Counter()
    for (p1, q1), x in cells(table_a, n).items():
        for (p2, q2), y in cells(table_b, m).items():
            if ((p1, q1), (p2, q2)) != virtual:
                rho[p1 + p2, q1 + q2 + 1] += x * y
    return {cell: v for cell, v in rho.items() if v}


def nonzero_cells(table) -> dict:
    return {(p, q): v for p, row in enumerate(table.entries) for q, v in enumerate(row) if v}


@SETTINGS
@given(arrangements(), arrangements())
def test_kuenneth_cell_by_cell(first, second):
    (n, a), (m, b) = first, second
    expected = kuenneth_cells(table_of(n, a), n, table_of(m, b), m)
    assert nonzero_cells(table_of(n + m, padded_product(n, a, m, b))) == expected


def test_kuenneth_cell_by_cell_on_seeded_products():
    # many of these products rank an interval through a complex
    rng = random.Random(7)
    ranked = 0
    for _ in range(200):
        factors = []
        for _ in range(2):
            k = rng.randint(1, 3)
            central = rng.random() < 0.5
            comps = [random_subspace(rng, k, central) for _ in range(rng.randint(1, 4))]
            factors.append((k, [[list(row) for row in c.rows] for c in comps]))
        (n, a), (m, b) = factors
        lattice = lattice_of(n + m, padded_product(n, a, m, b))
        expected = kuenneth_cells(table_of(n, a), n, table_of(m, b), m)
        assert nonzero_cells(cdr_table(lattice)) == expected
        ranked += ranks_an_interval(lattice)
    assert ranked >= 50, ranked


@st.composite
def affine_changes(draw, n):
    """(h, s) with h in GL_n(Q) and s in Q^n: x = h y + s."""
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    h = draw(st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(QMatrix(h).rank() == n)
    return h, draw(st.lists(fractions, min_size=n, max_size=n))


@SETTINGS
@given(st.data())
def test_table_invariant_under_affine_change(data):
    n, components = data.draw(arrangements(max_n=4, max_components=4))
    h, s = data.draw(affine_changes(n))
    moved = []
    for rows in components:
        # a row (c, k) of c.x + k = 0 becomes (c h, c.s + k) in y
        moved.append([
            [sum(row[i] * h[i][j] for i in range(n)) for j in range(n)]
            + [sum(row[i] * s[i] for i in range(n)) + row[n]]
            for row in rows
        ])
    assert table_of(n, moved).entries == table_of(n, components).entries
