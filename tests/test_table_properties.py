"""Property tests of the Lyubeznik deduction, with seeded, bounded sizes.

A convergent table is built from random differential ranks over one
diagonal unit; masking some of its cells and deducing with the bound set to
its largest entry must find the table itself among the completions, and
every reported identity must hold on it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invar import InvariantTable, SpectralState, deduce_lambda  # noqa: E402


@st.composite
def masked_convergent_tables(draw):
    """(rows, masked cells) for a convergent table of dimension 1 to 4."""
    d = draw(st.integers(1, 4))
    limit = [[0] * (d + 1) for _ in range(d + 1)]
    k = draw(st.integers(0, d))
    limit[k][k] = 1
    corner = {(0, d), (1, d)} if d >= 2 else set()
    arrows = [(r, (p, q), (p + r, q + r - 1)) for r in range(2, d + 1)
              for p in range(d + 1) for q in range(p + 1, d + 1)
              if p + r <= q + r - 1 <= d and not {(p, q), (p + r, q + r - 1)} & corner]
    rows = [list(r) for r in limit]
    ranks: dict = {}
    if arrows:
        for r, (sp, sq), (tp, tq) in draw(st.lists(st.sampled_from(arrows), max_size=4)):
            w = draw(st.integers(1, 3))
            rows[sp][sq] += w
            rows[tp][tq] += w
            ranks.setdefault(r, {})
            ranks[r][sp, sq] = ranks[r].get((sp, sq), 0) + w
    assume(rows[d][d] > 0)  # a valid table needs (d,d) > 0
    state = SpectralState.start(InvariantTable("lyubeznik", rows))
    for page in range(2, d + 2):
        state = state.apply_page(ranks.get(page, {}))
    assert [list(r) for r in state.entries] == limit
    upper = [(p, q) for p in range(d + 1) for q in range(p, d + 1)]
    cells = draw(st.lists(st.sampled_from(upper), min_size=1, max_size=4, unique=True))
    return rows, cells


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(masked_convergent_tables())
def test_masked_table_is_a_completion(case):
    rows, cells = case
    masked = [list(r) for r in rows]
    for p, q in cells:
        masked[p][q] = None
    bound = max(map(max, rows))
    result = deduce_lambda(InvariantTable("lyubeznik", masked), bound)
    assert not result.contradiction
    assert not result.truncated
    own = tuple(rows[p][q] for p, q in result.unknown_cells)
    assert own in result.completions
    for cell, value in result.forced.items():
        assert rows[cell[0]][cell[1]] == value
    for rel in result.identities:
        assert sum(c * rows[p][q] for (p, q), c in rel.coeffs) + rel.const == 0
