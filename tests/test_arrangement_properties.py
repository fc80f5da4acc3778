"""Property tests of the Cech-de Rham table, with seeded, bounded sizes.

Two cross-checks that hold for every arrangement, central or not, with
components of any dimension:

* Kuenneth: the complement of A x B = {X x C^m} u {C^n x Y} in C^(n+m) is the
  product of the complements of A and B, so its Poincare polynomial is the
  product of theirs.  Products of a hyperplane arrangement with one that is
  not mix Moebius numbers and ranked complexes in one table.
* Invariance: an invertible affine change of coordinates maps the
  arrangement to an isomorphic one, so the table does not change.
"""

import warnings
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


def table_of(n, components):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InputWarning)
        return cdr_table(build_lattice([AffineSubspace.from_rows(n, c) for c in components]))


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
    padded = [[row[:n] + [0] * m + row[n:] for row in c] for c in a]
    padded += [[[0] * n + row for row in c] for c in b]
    assert poincare(n + m, padded) == product(poincare(n, a), poincare(m, b))


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
