"""Table validators, the Euler constraint, and the convergence/deduction engine."""

import ast
import json
import random
from collections import Counter
from itertools import islice, product
from pathlib import Path

import pytest

from invar import (
    InputError,
    InvariantTable,
    OgusBounds,
    SearchLimitError,
    SpectralState,
    canonical_small_tables,
    check_cdr,
    check_convergence_lambda,
    deduce_lambda,
    differential_target,
    euler_sum,
    validate_cdr,
    validate_lambda,
)
from invar import cli, tables
from invar.fileio import dumps_table
from invar.qlinalg import _extend_sparse_echelon, _nullspace_int
from invar.tables import (
    _COMPLETION_CAP,
    DEFAULT_BOUND,
    DeductionResult,
    LinearRelation,
    _alternating_sum,
    _antidiagonal_sums,
    _cdr_witness,
    _Counter,
    _FlowGraph,
    _lambda_completions,
    _lambda_graph,
    _lambda_root,
    _lambda_witness,
    _normalize_betti,
    _raise_floors,
    _search_limit,
    _shift,
)
from test_fileio import reference_json_dict
from test_qlinalg import reference_echelon_int

N = None


def reference_convergence(entries):
    """The former depth-first search over differential ranks, page by page.

    Kept as an oracle for the circulation with lower bounds that decides
    check_convergence_lambda, and for the leaves of reference_deduce: it
    tries every rank of every page-r differential, largest first, and prunes
    a branch when an off-diagonal cell can no longer be lowered or the
    diagonal is empty.  Returns a witness tuple or None.
    """
    d = len(entries) - 1
    if sum((-1) ** (p + q) * entries[p][q] for p in range(d + 1) for q in range(d + 1)) != 1:
        return None

    def live(rows, cell):
        return 0 <= cell[0] <= d and 0 <= cell[1] <= d and rows[cell[0]][cell[1]] > 0

    def can_change_later(rows, p, q, next_page):
        return any(
            live(rows, (p + r, q + r - 1)) or live(rows, (p - r, q - r + 1))
            for r in range(next_page, d + 2)
        )

    def prune(rows, next_page):
        if any(rows[p][q] and p != q and not can_change_later(rows, p, q, next_page)
               for p in range(d + 1) for q in range(d + 1)):
            return False
        return sum(rows[p][p] for p in range(d + 1)) >= 1

    def accept(rows):
        off = any(rows[p][q] for p in range(d + 1) for q in range(d + 1) if p != q)
        return not off and sum(rows[p][p] for p in range(d + 1)) == 1

    witness = []

    def search(rows, page):
        if page > d + 1:
            return accept(rows)
        cands = [((p, q), (p + page, q + page - 1))
                 for p in range(d + 1) for q in range(d + 1)
                 if rows[p][q] and live(rows, (p + page, q + page - 1))]

        def choose(i):
            if i == len(cands):
                return prune(rows, page + 1) and search(rows, page + 1)
            (sp, sq), (tp, tq) = cands[i]
            for rank in range(min(rows[sp][sq], rows[tp][tq]), -1, -1):
                rows[sp][sq] -= rank
                rows[tp][tq] -= rank
                if rank:
                    witness.append((page, (sp, sq), (tp, tq), rank))
                if choose(i + 1):
                    return True
                if rank:
                    witness.pop()
                rows[sp][sq] += rank
                rows[tp][tq] += rank
            return False

        return choose(0)

    return tuple(witness) if search([list(r) for r in entries], 2) else None


def reference_cdr(entries, target, n):
    """The former CdR check: an alternating-sum test, then a depth-first search.

    Kept as an oracle for the circulation with lower bounds in check_cdr: it
    tries every rank of every page-r differential (p,q) -> (p-r, q+r-1),
    largest first, and drops a page whose antidiagonal sums fell below the
    target.  target has length 2n.  Returns whether some choice of ranks
    ends on the target sums.
    """
    d = len(entries) - 1
    if sum((-1) ** k * v for k, v in enumerate(target)) != -sum(
        (-1) ** (p + q) * entries[p][q] for p in range(d + 1) for q in range(d + 1)
    ):
        return False

    def search(rows, page):
        if page > d + 1:
            return _antidiagonal_sums(rows, n) == target
        cands = [((p, q), (p - page, q + page - 1))
                 for p in range(d + 1) for q in range(d + 1)
                 if rows[p][q] and p - page >= 0 and q + page - 1 <= d
                 and rows[p - page][q + page - 1]]
        if not cands:
            return search(rows, page + 1)
        work = [list(r) for r in rows]

        def choose(i):
            if i == len(cands):
                new = tuple(tuple(r) for r in work)
                # ranks only lower antidiagonal sums, so a sum below its target is final
                if any(s < t for s, t in zip(_antidiagonal_sums(new, n), target)):
                    return False
                return search(new, page + 1)
            (sp, sq), (tp, tq) = cands[i]
            for rank in range(min(work[sp][sq], work[tp][tq]), -1, -1):
                work[sp][sq] -= rank
                work[tp][tq] -= rank
                if choose(i + 1):
                    return True
                work[sp][sq] += rank
                work[tp][tq] += rank
            return False

        return choose(0)

    return search(entries, 2)


def reference_deduce(table, bound=None, *, search_limit=None):
    """The former deduce_lambda: every value vector up to the bound, then a search.

    Kept as an oracle for the pruned search.  It walks all (bound+1)^k
    vectors of the k free unknowns (all but the last, which the alternating
    sum determines) in lexicographic order, one tick per node, and checks
    each leaf with reference_convergence, which shares no code with the
    circulation.  Returns a DeductionResult whose nodes is
    the sum of (bound+1)^i for i < k+1.
    """
    b = DEFAULT_BOUND if bound is None else bound
    d = table.d
    structural = {}
    for p, q in table.unknown_cells():
        if p > q or (d >= 2 and q == d and p in (0, 1)):
            structural[(p, q)] = 0
    base = table.with_entries(structural)
    unknowns = base.unknown_cells()
    counter = _Counter(_search_limit(search_limit))
    base_diags = validate_lambda(base)
    first = None
    diffs = []
    constant = {}
    varying = set()
    completions = []
    truncated = False
    count = 0
    known_euler = _alternating_sum(base.entries)

    def record(vec):
        nonlocal first, truncated, count
        count += 1
        if first is None:
            first = vec
            for cell, v in zip(unknowns, vec):
                constant[cell] = v
        else:
            for i, cell in enumerate(unknowns):
                if cell not in varying and constant.get(cell) != vec[i]:
                    varying.add(cell)
                    constant.pop(cell, None)
            diff = [a - b_ for a, b_ in zip(vec, first)]
            if len(reference_echelon_int(diffs + [diff], len(diff))) > len(diffs):
                diffs.append(diff)
        if len(completions) < _COMPLETION_CAP:
            completions.append(vec)
        else:
            truncated = True

    grid = [list(row) for row in base.entries]

    def try_completion(values):
        for (p, q), v in zip(unknowns, values):
            grid[p][q] = v
        if grid[d][d] > 0 and reference_convergence(grid) is not None:
            record(values)

    if base_diags:
        pass
    elif not unknowns:
        counter.tick()
        try_completion(())
    else:
        last = unknowns[-1]
        last_sign = (-1) ** (last[0] + last[1])
        signs = [(-1) ** (p + q) for p, q in unknowns[:-1]]
        n = len(signs)
        values = [0] * n
        partial = [0] * (n + 1)  # partial[i] is the alternating sum of values[:i]
        i = 0  # the depth of the node just entered
        while True:
            counter.tick()
            if i < n:
                values[i] = 0
                partial[i + 1] = partial[i]
                i += 1
                continue
            residual = (1 - known_euler - partial[n]) * last_sign
            if 0 <= residual <= b:
                try_completion(tuple(values) + (residual,))
            i -= 1
            while i >= 0 and values[i] == b:
                i -= 1
            if i < 0:
                break
            values[i] += 1
            partial[i + 1] += signs[i]
            i += 1

    forced = dict(sorted(constant.items()))
    if count > 0:
        forced = dict(sorted({**structural, **forced}.items()))
    identities = []
    if count > 0 and diffs:
        nonforced = [c for c in unknowns if c in varying]
        col_of = {c: i for i, c in enumerate(unknowns)}
        dmat = [[row[col_of[c]] for c in nonforced] for row in diffs]
        for ints in _nullspace_int(dmat, len(nonforced)):
            lead = next(i for i, x in enumerate(ints) if x != 0)
            if ints[lead] < 0:
                ints = [-x for x in ints]
            const = -sum(coeff * first[col_of[cell]] for cell, coeff in zip(nonforced, ints))
            coeffs = tuple((cell, coeff) for cell, coeff in zip(nonforced, ints) if coeff)
            identities.append(LinearRelation(coeffs, const))
        identities.sort(key=lambda r: r.coeffs)
    return DeductionResult(
        unknown_cells=unknowns, bound=b, contradiction=count == 0, feasible_count=count,
        forced=forced, identities=tuple(identities), completions=tuple(completions),
        truncated=truncated, nodes=counter.nodes, _first=first,
        _diffs=tuple(tuple(v) for v in diffs),
    )


def reference_lambda_completions(entries, unknowns, bound, tick):
    """The former completion search, kept as an oracle for the free-unknown walk.

    It walks every unknown but the last in order, each over its feasible
    interval, and reads the last off the flow on its edge, plus the floor
    that the root applied to it.  tick is called once per node below the
    root.
    """
    upper = [[bound if v is None else v for v in row] for row in entries]
    graph, edge, floors, _ = _lambda_graph(entries, upper)
    cap, hub = graph.cap, graph.node("hub")
    if not _raise_floors(graph, hub, floors):
        return
    if not unknowns:
        yield ()
        return
    *edges, last = [edge[c] for c in unknowns]
    lift = dict(floors).get(last, 0)
    n = len(edges)
    values, i = [0] * n, 0
    while True:
        while i < n:
            e = edges[i]
            x = cap[e ^ 1]
            cap[e] = cap[e ^ 1] = 0
            values[i] = x - _shift(graph, hub, e, -x)
            tick()
            i += 1
        yield tuple(values) + (cap[last ^ 1] + lift,)
        while True:
            i -= 1
            if i < 0:
                return
            e, x = edges[i], values[i]
            if x < bound and _shift(graph, hub, e, 1):
                values[i] = x + 1
                tick()
                i += 1
                break
            cap[e], cap[e ^ 1] = bound - x, x


def searched(table, result):
    """The table deduce_lambda searched for `result`: its structural zeros filled in."""
    return table.with_entries(
        dict.fromkeys(set(table.unknown_cells()) - set(result.unknown_cells), 0))


def free_and_pivots(table, bound, result):
    """The search against reference_lambda_completions on what deduce_lambda
    searched for `result`; returns the free unknowns' indices and the pivot
    columns of `result._diffs`, both sorted.

    Asserts that both searches yield the same completions, that the search
    enters no more nodes than the reference and as many as `result` counts,
    and that `result._diffs` is the echelon basis of every completion's
    difference from the first, as if no rank bound had stopped it.
    """
    unknowns, base = result.unknown_cells, searched(table, result)
    valid = not validate_lambda(base)
    root = _lambda_root(base.entries, unknowns, bound) if valid else None
    new, old = _Counter(10**7), _Counter(10**7)
    got = [] if root is None else list(_lambda_completions(*root, bound, new.tick))
    want = list(reference_lambda_completions(base.entries, unknowns, bound, old.tick)
                ) if valid else []
    assert got == want, table.entries
    assert new.nodes <= old.nodes
    assert result.nodes == 1 + new.nodes
    echelon = {}
    for vec in got[1:]:
        _extend_sparse_echelon(echelon, {i: v - f for i, (v, f) in enumerate(zip(vec, got[0]))
                                         if v != f})
    assert result._diffs == tuple(tuple(row.get(i, 0) for i in range(len(unknowns)))
                                  for row in echelon.values())
    free = () if root is None else root[-1]
    return free, tuple(sorted(min(row) for row in echelon.values()))


def replay(entries, witness, kind="lyubeznik"):
    """Limit page after applying the witness ranks page by page."""
    state = SpectralState.start(InvariantTable(kind, entries))
    for page in range(2, len(entries) + 1):
        state = state.apply_page({src: rank for pg, src, _, rank in witness if pg == page})
    return state.entries


def random_lambda(rng, d, adjust):
    """Upper-triangular table with sparse entries 0..3; adjust sets the alternating sum to 1."""
    rows = [[rng.randint(1, 3) if p <= q and rng.random() < 0.4 else 0
             for q in range(d + 1)] for p in range(d + 1)]
    if adjust:
        euler = sum((-1) ** (p + q) * rows[p][q] for p in range(d + 1) for q in range(d + 1))
        if euler < 1:
            rows[d][d] += 1 - euler
        elif d >= 1:
            rows[0][1] += euler - 1
    return rows


def constructed_lambda(rng, d, perturb):
    """One diagonal 1 plus random arrows between upper-triangular cells: convergent.

    perturb moves one unit between two cells of the same parity, which keeps
    the alternating sum at 1 but usually breaks convergence.
    """
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    k = rng.randint(0, d)
    rows[k][k] = 1
    arrows = [((p, q), (p + r, q + r - 1)) for r in range(2, d + 1)
              for p in range(d + 1) for q in range(p + 1, d + 1)
              if p + r <= q + r - 1 <= d]
    for _ in range(rng.randint(1, 4) if arrows else 0):
        (sp, sq), (tp, tq) = rng.choice(arrows)
        w = rng.randint(1, 2)
        rows[sp][sq] += w
        rows[tp][tq] += w
    if perturb:
        full = [(p, q) for p in range(d + 1) for q in range(p, d + 1) if rows[p][q]]
        sp, sq = rng.choice(full)
        same = [(p, q) for p in range(d + 1) for q in range(p, d + 1)
                if (p + q) % 2 == (sp + sq) % 2 and (p, q) != (sp, sq)]
        if same:
            tp, tq = rng.choice(same)
            rows[sp][sq] -= 1
            rows[tp][tq] += 1
    return rows


def random_cdr(rng, d, triangular):
    """Entries 0..3, about two nonzero per row, on and above the diagonal or anywhere."""
    return [[rng.randint(1, 3) if (p <= q or not triangular) and rng.random() < 2 / (d + 2) else 0
             for q in range(d + 1)] for p in range(d + 1)]


def replayed_betti(rng, rows, n):
    """Antidiagonal sums of the limit page after random ranks: a feasible target."""
    state = SpectralState.start(cdr(rows))
    while state.page <= state.d:
        left = [list(r) for r in state.entries]
        ranks = {}
        for (sp, sq), (tp, tq) in state.differentials():
            rank = rng.randint(0, min(left[sp][sq], left[tp][tq]))
            left[sp][sq] -= rank
            left[tp][tq] -= rank
            ranks[sp, sq] = rank
        state = state.apply_page(ranks)
    return _antidiagonal_sums(state.entries, n)


def replayed_lambda(rng, d):
    """A convergent table built from random ranks over one diagonal unit.

    Each rank is added to both ends of a random differential that avoids
    the cells (0,d) and (1,d); replaying the ranks page by page through
    SpectralState.apply_page must give back the diagonal unit.
    """
    limit = [[0] * (d + 1) for _ in range(d + 1)]
    k = d if rng.random() < 0.75 else rng.randint(0, d)
    limit[k][k] = 1
    rows = [list(r) for r in limit]
    corner = {(0, d), (1, d)} if d >= 2 else set()
    arrows = [(r, (p, q), (p + r, q + r - 1)) for r in range(2, d + 1)
              for p in range(d + 1) for q in range(p + 1, d + 1)
              if p + r <= q + r - 1 <= d and not {(p, q), (p + r, q + r - 1)} & corner]
    ranks: dict = {}
    for _ in range(rng.randint(0, 4) if arrows else 0):
        r, (sp, sq), (tp, tq) = rng.choice(arrows)
        w = rng.randint(1, 2)
        rows[sp][sq] += w
        rows[tp][tq] += w
        ranks.setdefault(r, {})
        ranks[r][sp, sq] = ranks[r].get((sp, sq), 0) + w
    state = SpectralState.start(lam(rows))
    for page in range(2, d + 2):
        state = state.apply_page(ranks.get(page, {}))
    assert [list(r) for r in state.entries] == limit
    return rows


def perturbed(rng, rows):
    """Move one unit from a nonzero cell to another cell of the same parity.

    The alternating sum stays 1, but convergence usually breaks.
    """
    d = len(rows) - 1
    rows = [list(r) for r in rows]
    cells = [(p, q) for p in range(d + 1) for q in range(p, d + 1)
             if not (d >= 2 and q == d and p < 2)]
    sp, sq = rng.choice([c for c in cells if rows[c[0]][c[1]]])
    same = [c for c in cells if (c[0] + c[1]) % 2 == (sp + sq) % 2 and c != (sp, sq)]
    if same:
        tp, tq = rng.choice(same)
        rows[sp][sq] -= 1
        rows[tp][tq] += 1
    return rows


def masked(rng, rows, k):
    """rows with k cells on or above the diagonal unknown, and sometimes a
    cell below it too (a structural zero)."""
    d = len(rows) - 1
    rows = [list(r) for r in rows]
    upper = [(p, q) for p in range(d + 1) for q in range(p, d + 1)]
    lower = [(p, q) for p in range(d + 1) for q in range(p)]
    cells = rng.sample(upper, min(k, len(upper)))
    if lower and rng.random() < 0.25:
        cells.append(rng.choice(lower))
    for p, q in cells:
        rows[p][q] = None
    return rows


def lam(rows):
    return InvariantTable("lyubeznik", rows)


def cdr(rows):
    return InvariantTable("cdr", rows)


def dim3_shape(**known):
    """The 4x4 shape with unknowns (0,2), (1,2), (2,3), (3,3) and (0,1) given."""
    rows = [
        [0, known.get("l01", 0), N, 0],
        [0, 0, N, 0],
        [0, 0, 0, N],
        [0, 0, 0, N],
    ]
    return lam(rows)


def dim4_shape():
    """The 6x6 shape with (1,3) = (2,4) = 0 and eight unknown cells."""
    return lam([
        [0, 0, N, N, N, 0],
        [0, 0, 0, 0, N, 0],
        [0, 0, 0, 0, 0, N],
        [0, 0, 0, 0, 0, N],
        [0, 0, 0, 0, 0, N],
        [0, 0, 0, 0, 0, N],
    ])


def dim3_contra(a, b):
    """The dim-3 shape with (1,1) = a and (2,2) = b known; no differential
    reaches either cell, so a + b >= 2 leaves two socle copies: a contradiction."""
    return lam([[0, 0, N, 0], [0, a, N, 0], [0, 0, b, N], [0, 0, 0, N]])


def dim4_contra():
    """The dim-4 shape with (1,1) = (2,2) = 1 known: a contradiction."""
    return lam([
        [0, 0, N, N, N, 0],
        [0, 1, 0, 0, N, 0],
        [0, 0, 1, 0, 0, N],
        [0, 0, 0, 0, 0, N],
        [0, 0, 0, 0, 0, N],
        [0, 0, 0, 0, 0, N],
    ])


DIM3_CONTRA = [(1, 1), (2, 0), (0, 2), (1, 2), (2, 1), (3, 0), (0, 3), (2, 2)]
# the table deduce jobs of the engine benchmark: (table, bound)
ENGINE_DEDUCTIONS = (
    [(dim3_shape(), b) for b in (8, 10, 12)] + [(dim4_shape(), b) for b in (3, 4)]
    + [(dim4_contra(), 3)] + [(dim3_contra(a, b), 10) for a, b in DIM3_CONTRA]
)


def reference_render(relation):
    """The former body of `LinearRelation.render`, kept as an oracle: a
    four-way branch per term, a separate constant branch and a second pass
    that joins the signed parts."""
    terms = list(relation.coeffs)
    if not terms:
        return f"{relation.const} = 0"
    (cell, a), rest = terms[0], terms[1:]
    lhs = f"({cell[0]},{cell[1]})" if a == 1 else f"{a}*({cell[0]},{cell[1]})"
    parts = []
    for c, coeff in rest:
        coeff = -coeff
        name = f"({c[0]},{c[1]})"
        if coeff == 1:
            parts.append(("+", name))
        elif coeff == -1:
            parts.append(("-", name))
        elif coeff > 0:
            parts.append(("+", f"{coeff}*{name}"))
        else:
            parts.append(("-", f"{-coeff}*{name}"))
    if relation.const:
        k = -relation.const
        parts.append(("+", str(k)) if k > 0 else ("-", str(-k)))
    if not parts:
        return f"{lhs} = 0"
    first_sign, first_term = parts[0]
    rhs = (f"-{first_term}" if first_sign == "-" else first_term)
    for sign, term in parts[1:]:
        rhs += f" {sign} {term}"
    return f"{lhs} = {rhs}"


def random_relations(rng, result):
    """Integer relations on the unknowns: two random ones, most exact on the
    first completion, and a random integer combination of the identities."""
    first = result.completions[0] if result.completions else (0,) * len(result.unknown_cells)
    for _ in range(2):
        coeffs = {cell: rng.randint(-2, 2) for cell in result.unknown_cells}
        const = -sum(a * v for a, v in zip(coeffs.values(), first))
        yield coeffs, const + rng.choice((0, 0, 1))
    coeffs, const = Counter(), 0
    for rel in result.identities:
        k = rng.randint(-2, 2)
        for cell, a in rel.coeffs:
            coeffs[cell] += k * a
        const += k * rel.const
    yield dict(coeffs), const


def holds_on_completions(result, coeffs, const):
    index = {cell: i for i, cell in enumerate(result.unknown_cells)}
    return all(sum(a * vec[index[cell]] for cell, a in coeffs.items()) + const == 0
               for vec in result.completions)


def assert_same_deduction(result, expected):
    """Every field of two DeductionResults but nodes, and the notes."""
    for name in ("unknown_cells", "bound", "contradiction", "feasible_count", "forced",
                 "identities", "completions", "truncated"):
        assert getattr(result, name) == getattr(expected, name), name
    assert list(result.forced) == list(expected.forced)
    assert result.notes() == expected.notes()


class TestValidateLambda:
    def test_dim2_two_components_valid(self):
        table = lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        assert validate_lambda(table) == []

    def test_triangularity_violation(self):
        table = lam([[0, 0], [1, 1]])
        diags = validate_lambda(table)
        assert any("triangularity" in d for d in diags)

    def test_top_column_violation(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][3] = 1
        rows[3][3] = 1
        diags = validate_lambda(lam(rows))
        assert any("(0,3)" in d for d in diags)

    def test_bottom_corner_must_be_positive(self):
        diags = validate_lambda(lam([[0, 0], [0, 0]]))
        assert any("positive" in d for d in diags)

    def test_unknowns_are_skipped(self):
        table = lam([[N, N], [N, N]])
        assert validate_lambda(table) == []

    def test_ogus_ranges(self):
        # n = 5, v_y = 3: columns q < 2 must vanish entirely;
        # f_y = 2: columns q < 3 must vanish outside row 0
        rows = [[0] * 4 for _ in range(4)]
        rows[1][2] = 1
        rows[3][3] = 1
        bounds = OgusBounds(f_y=2, v_y=3, ambient_dim=5)
        diags = validate_lambda(lam(rows), bounds)
        assert any("Artinian" in d for d in diags)
        bounds_hard = OgusBounds(f_y=2, v_y=2, ambient_dim=5)
        diags = validate_lambda(lam(rows), bounds_hard)
        assert any("vanishing" in d for d in diags)

    def test_bounds_order_enforced(self):
        with pytest.raises(InputError):
            OgusBounds(f_y=3, v_y=1, ambient_dim=4)

    @pytest.mark.parametrize("value, echo", [
        ("1", "'1'"),
        (1.5, "1.5"),
        (True, "True"),
        (None, "None"),
        ("9" * 5000, "'" + "9" * 59 + "…"),
    ], ids=["str", "float", "bool", "None", "5000-chars"])
    @pytest.mark.parametrize("field", ["f_y", "v_y", "ambient_dim"])
    def test_non_integer_bound_refused(self, field, value, echo):
        args = {"f_y": 1, "v_y": 2, "ambient_dim": 3, field: value}
        with pytest.raises(InputError) as err:
            OgusBounds(**args)
        assert str(err.value) == f"{field} must be an integer, got {echo}"

    def test_wrong_kind(self):
        with pytest.raises(InputError):
            validate_lambda(cdr([[1]]))


class TestValidateCdr:
    def test_upper_triangular_is_valid(self):
        assert validate_cdr(cdr([[0, 0, 1], [0, 0, 3], [0, 0, 3]])) == []

    def test_every_entry_below_the_diagonal_is_named(self):
        assert validate_cdr(cdr([[0, 0, 0], [2, 1, 0], [0, 5, 1]])) == [
            "triangularity violated: entry (1,0) = 2 below the diagonal",
            "triangularity violated: entry (2,1) = 5 below the diagonal",
        ]

    def test_unknowns_are_skipped(self):
        assert validate_cdr(cdr([[N, N], [N, N]])) == []
        assert validate_cdr(cdr([[N, N], [3, N]])) == [
            "triangularity violated: entry (1,0) = 3 below the diagonal"]

    def test_wrong_kind(self):
        with pytest.raises(InputError) as err:
            validate_cdr(lam([[1]]))
        assert str(err.value) == "validate_cdr expects a cdr table"


class TestRender:
    @pytest.mark.parametrize("coeffs, const, text", [
        ((), 0, "0 = 0"),
        ((), -3, "-3 = 0"),
        ((((0, 2), 1),), 0, "(0,2) = 0"),
        ((((0, 2), -1),), 4, "-1*(0,2) = -4"),
        ((((0, 2), 2), ((1, 3), -1), ((2, 3), 3)), -5, "2*(0,2) = (1,3) - 3*(2,3) + 5"),
        ((((0, 3), 1), ((1, 4), 1), ((3, 5), -1)), 0, "(0,3) = -(1,4) + (3,5)"),
    ])
    def test_examples(self, coeffs, const, text):
        assert LinearRelation(coeffs, const).render() == text

    def test_matches_reference_on_random_relations(self):
        rng = random.Random(2024)
        cells = [(p, q) for p in range(6) for q in range(6)]
        for _ in range(100_000):
            size = rng.randint(0, 5)
            coeffs = tuple((cell, rng.choice((-1, 1, rng.randint(-12, 12))))
                           for cell in rng.sample(cells, size))
            const = rng.choice((0, rng.randint(-30, 30)))
            relation = LinearRelation(coeffs, const)
            assert relation.render() == reference_render(relation), relation


def test_tables_imports_nothing_from_posets():
    """The engine builds no complex: the Betti-list check it shares with
    `posets` lives in `errors`."""
    tree = ast.parse(Path(tables.__file__).read_bytes())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert "posets" not in imported and "invar.posets" not in imported, imported


class TestEulerSum:
    def test_dim0(self):
        assert euler_sum(canonical_small_tables(0)) == 1

    def test_dim2_family(self):
        for a in range(1, 6):
            assert euler_sum(canonical_small_tables(2, a)) == 1

    def test_all_zero(self):
        assert euler_sum(lam([[0, 0], [0, 0]])) == 0

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            euler_sum(lam([[N]]))


class TestDifferentialGeometry:
    def test_lyubeznik_direction(self):
        assert differential_target("lyubeznik", 2, (0, 1)) == (2, 2)
        assert differential_target("lyubeznik", 3, (0, 1)) == (3, 3)

    def test_cdr_direction(self):
        assert differential_target("cdr", 2, (2, 2)) == (0, 3)


class TestConvergenceLambda:
    def test_dim2_two_components_feasible_with_witness(self):
        feasible, witness = check_convergence_lambda(lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
        assert feasible
        assert witness == ((2, (0, 1), (2, 2), 1),)

    def test_euler_two_infeasible(self):
        feasible, witness = check_convergence_lambda(lam([[0, 0, 0], [0, 0, 0], [0, 0, 2]]))
        assert not feasible and witness is None

    def test_dim3_forced_isomorphism(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][2] = 1
        rows[2][3] = 1
        rows[3][3] = 1
        feasible, witness = check_convergence_lambda(lam(rows))
        assert feasible
        assert (2, (0, 2), (2, 3), 1) in witness

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            check_convergence_lambda(dim3_shape())


def flow_verdict(table, *target):
    """(feasible, witness) of the table's circulation.  A structurally valid
    table goes through its public check; an invalid one, which the check
    refuses naming the validator's first diagnostic, through the circulation
    itself, so the flow is still compared on it."""
    if table.kind == "cdr":
        diagnostics, check = validate_cdr(table), check_cdr
        betti, n = target
        flow = lambda: _cdr_witness(table.entries, _normalize_betti(betti, n), n)
    else:
        diagnostics, check = validate_lambda(table), check_convergence_lambda
        flow = lambda: _lambda_witness(table.entries)
    if not diagnostics:
        return check(table, *target)
    with pytest.raises(InputError) as err:
        check(table, *target)
    assert str(err.value) == f"invalid table: {diagnostics[0]}"
    witness = flow()
    return witness is not None, witness


def structural_cases():
    """(kind, d, cell, value, refused): one cell of the valid table with a 1
    at (d, d) and 0 elsewhere set to value, and whether the kind's rules
    refuse the result."""
    for kind in ("lyubeznik", "cdr"):
        for d in range(1, 5):
            yield kind, d, (1, 0), 1, True  # below the diagonal
            yield kind, d, (d, 0), 2, True
            yield kind, d, (d, d), 0, kind == "lyubeznik"
            for p in (0, 1):
                # the top-column rule of a lyubeznik table holds from d = 2
                yield kind, d, (p, d), 1, kind == "lyubeznik" and d >= 2 and p < d


class TestChecksApplyStructuralRules:
    """Each spectral check refuses a table its kind's validator calls
    invalid, naming the first diagnostic that `table check` prints."""

    @pytest.mark.parametrize("kind,d,cell,value,refused", list(structural_cases()))
    def test_library_and_table_check_agree(self, kind, d, cell, value, refused, tmp_path, capsys):
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        rows[d][d] = 1
        rows[cell[0]][cell[1]] = value
        table = InvariantTable(kind, rows)
        n, betti = d + 1, [0] * (2 * d + 2)
        if kind == "cdr":
            diagnostics = validate_cdr(table)
            check = lambda: check_cdr(table, betti, n)
        else:
            diagnostics = validate_lambda(table)
            check = lambda: check_convergence_lambda(table)
        assert bool(diagnostics) == refused
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"kind": kind, "dim": d, "entries": rows,
                                    "ambient_dim": n, "betti": betti}))
        code = cli.main(["table", "check", "--input", str(path)])
        notes = [line[2:] for line in capsys.readouterr().out.splitlines() if line.startswith("# ")]
        if refused:
            with pytest.raises(InputError) as err:
                check()
            assert str(err.value) == f"invalid table: {diagnostics[0]}"
            assert code == 3 and notes[0] == f"invalid: {diagnostics[0]}"
        else:
            check()
            assert not any(note.startswith("invalid") for note in notes)

    def test_the_former_infeasible_answers(self):
        prefix = r"^invalid table: triangularity violated: entry \(1,0\)"
        with pytest.raises(InputError, match=prefix + " = 2 below the diagonal$"):
            check_cdr(InvariantTable("cdr", [[0, 0], [2, 1]]), [0, 1], 2)
        with pytest.raises(InputError, match=prefix + " = 1 below the diagonal$"):
            check_convergence_lambda(InvariantTable("lyubeznik", [[0, 0], [1, 1]]))


class TestFlowAgainstSearch:
    def test_feasibility_matches_reference(self):
        rng = random.Random(4242)
        feasible = 0
        for i in range(3000):
            if i < 2000:
                rows = random_lambda(rng, rng.randint(0, 6), adjust=i % 2 == 0)
            else:
                rows = constructed_lambda(rng, rng.randint(2, 6), perturb=i % 2 == 0)
            ok, witness = flow_verdict(lam(rows))
            assert ok == (reference_convergence(rows) is not None), rows
            if ok:
                feasible += 1
                limit = replay(rows, witness)
                nonzero = [(p, q, v) for p, row in enumerate(limit)
                           for q, v in enumerate(row) if v]
                assert len(nonzero) == 1 and nonzero[0][0] == nonzero[0][1], (rows, witness)
                assert nonzero[0][2] == 1
                assert [w[0] for w in witness] == sorted(w[0] for w in witness)
            else:
                assert witness is None
        # both verdicts are well represented
        assert 500 < feasible < 2500

    @pytest.mark.parametrize("shape,bound", [(dim3_shape, b) for b in range(9)]
                             + [(dim4_shape, 2)])
    def test_deduction_matches_reference(self, shape, bound):
        table = shape()
        result = deduce_lambda(table, bound)
        expected = []
        for values in product(range(bound + 1), repeat=len(result.unknown_cells)):
            candidate = table.with_entries(dict(zip(result.unknown_cells, values)))
            if not validate_lambda(candidate) and reference_convergence(candidate.entries) is not None:
                expected.append(values)
        assert list(result.completions) == expected
        assert result.feasible_count == len(expected)


class TestDeduceAgainstEnumeration:
    """The pruned search against the former enumeration, reference_deduce."""

    def test_random_partial_tables(self):
        rng = random.Random(9090)
        outcomes = {"contradiction": 0, "one": 0, "several": 0}
        implied = Counter()
        for i in range(600):
            rows = replayed_lambda(rng, rng.randint(1, 4))
            if i % 2:
                rows = perturbed(rng, rows)
            table = lam(masked(rng, rows, rng.randint(1, 6)))
            bound = rng.randint(0, 4)
            result = deduce_lambda(table, bound)
            assert_same_deduction(result, reference_deduce(table, bound))
            free, pivots = free_and_pivots(table, bound, result)
            assert set(pivots) <= set(free)
            if not result.truncated:
                for coeffs, const in random_relations(rng, result):
                    holds = holds_on_completions(result, coeffs, const)
                    assert result.implies(coeffs, const) == holds, (coeffs, const)
                    implied[holds, result.feasible_count > 1] += 1
            # one node per feasible value of each free unknown under a
            # feasible prefix, and the root
            k = len(result.unknown_cells)
            assert result.nodes <= 1 + max(k - 1, 0) * result.feasible_count
            if result.contradiction:
                assert result.nodes == 1
                outcomes["contradiction"] += 1
            else:
                outcomes["one" if result.feasible_count == 1 else "several"] += 1
        assert min(outcomes.values()) > 100, outcomes
        # implied and refuted relations, on one completion and on several
        assert len(implied) == 4 and min(implied.values()) > 100, implied

    @pytest.mark.parametrize("table, bound", ENGINE_DEDUCTIONS)
    def test_engine_shapes(self, table, bound):
        assert_same_deduction(deduce_lambda(table, bound), reference_deduce(table, bound))

    @pytest.mark.parametrize("table, bound", ENGINE_DEDUCTIONS)
    def test_engine_shapes_walk_exactly_the_pivot_columns(self, table, bound):
        # on these shapes every free unknown varies independently of the
        # earlier ones: the free set is the echelon's pivot columns
        free, pivots = free_and_pivots(table, bound, deduce_lambda(table, bound))
        assert free == pivots

    @pytest.mark.parametrize("table, bound", [(dim4_contra(), 3), (dim4_contra(), 10)]
                             + [(dim3_contra(a, b), 10) for a, b in DIM3_CONTRA])
    def test_contradiction_decided_at_root(self, table, bound):
        result = deduce_lambda(table, bound)
        assert result.contradiction
        assert result.nodes == 1

    @pytest.mark.parametrize("table, bound, nodes, count", [
        (dim3_shape(), 20, 442, 420), (dim4_shape(), 5, 1015, 756),
    ])
    def test_search_tree_pinned(self, table, bound, nodes, count):
        # the search enters exactly the feasible prefixes, so a search that
        # enters one node more or less changes these recorded counts
        result = deduce_lambda(table, bound)
        assert (result.nodes, result.feasible_count) == (nodes, count)


class TestRaiseFloors:
    """_raise_floors meets each lower bound in turn by cycles through its edge.

    The graph is hub -> a (capacity 3, floor 2) -> b (capacity `middle`)
    -> hub (capacity 3, floor 1).
    """

    def graph(self, middle):
        graph = _FlowGraph()
        floors = [(graph.add("hub", "a", 3), 2), (graph.add("b", "hub", 3), 1)]
        graph.add("a", "b", middle)
        return graph, floors

    def test_floors_met(self):
        graph, floors = self.graph(2)
        assert _raise_floors(graph, graph.node("hub"), floors)
        # each edge keeps only its room above its floor
        assert [graph.cap[e ^ 1] + floor for e, floor in floors] == [2, 2]
        assert [graph.cap[e] for e, _ in floors] == [1, 1]

    def test_unmet_floor(self):
        graph, floors = self.graph(1)
        assert not _raise_floors(graph, graph.node("hub"), floors)


class TestFlowGraphHold:
    """How the deduction's searches treat a cell it holds fixed, its edge to
    the hub blocked: flow conservation alone decides whether a path may pass
    through it.

    The graph is the lambda graph of a dimension-4 table whose nonzero cells
    are (0,2), (2,3) and (3,4): the hub feeds the even cell (0,2), whose
    arrows lead to the odd cells (2,3) and (3,4), which drain to the hub.
    `flow` units run hub -> (0,2) -> (2,3) -> hub, and the hub edges of
    (0,2) and (2,3) are blocked.
    """

    def fixed_graph(self, flow):
        graph = _FlowGraph()
        fixed = graph.add("hub", (0, 2), 2)
        lowered = graph.add((2, 3), "hub", 2)
        raised = graph.add((3, 4), "hub", 2)
        first = graph.add((0, 2), (2, 3), 9)
        second = graph.add((0, 2), (3, 4), 9)
        for e in (fixed, first, lowered):
            graph.cap[e] -= flow
            graph.cap[e ^ 1] += flow
        for e in (fixed, lowered):
            graph.cap[e] = graph.cap[e ^ 1] = 0
        return graph, first, second, raised

    def test_positive_fixed_cell_stays_open(self):
        # with (0,2) fixed at 1, lowering (2,3) to 0 has to reroute the unit
        # to (3,4) through (0,2)
        graph, first, second, _ = self.fixed_graph(1)
        assert graph.push(graph.ids[2, 3], graph.ids["hub"], 1) == 1
        assert (graph.cap[first ^ 1], graph.cap[second ^ 1]) == (0, 1)

    def test_cell_fixed_at_zero_is_closed(self):
        # with (0,2) fixed at 0, raising (3,4) needs a unit through (0,2);
        # the backward search, which the deduction runs from (3,4), reaches
        # (0,2) over its arrow and finds no residual edge into it
        graph, first, second, raised = self.fixed_graph(0)
        graph.cap[raised] = 0
        hub, cell = graph.ids["hub"], graph.ids[3, 4]
        assert graph.push(hub, cell, 1, backward=True) == 0
        assert graph.push(hub, cell, 1) == 0
        assert (graph.cap[first ^ 1], graph.cap[second ^ 1]) == (0, 0)


class TestCdrFlowAgainstSearch:
    def cases(self):
        """Seeded (rows, target, n, kind).

        kind 0: a replayed target; kind 1: the same one shifted by +-1 on two
        adjacent antidiagonals, which keeps the alternating sum and, when it
        can, every demand nonnegative; kind 2: random values up to the
        antidiagonal sums.
        """
        rng = random.Random(5151)
        for i in range(3600):
            d = rng.randint(0, 6)
            n = d + rng.randint(1, 2)
            rows = random_cdr(rng, d, triangular=i % 4 != 0)
            sums = _antidiagonal_sums(rows, n)
            target = replayed_betti(rng, rows, n)
            kind = i % 3
            if kind == 1:
                shifts = [(k, step) for k in range(2 * n - 1) for step in (1, -1)
                          if min(target[k], target[k + 1]) >= max(0, -step)
                          and min(sums[k] - target[k], sums[k + 1] - target[k + 1]) >= step]
                k, step = rng.choice(shifts) if shifts else (0, 1)
                target[k] += step
                target[k + 1] += step
            elif kind == 2:
                target = [rng.randint(0, s) for s in sums]
            yield rows, target, n, kind

    def test_feasibility_matches_reference(self):
        verdicts = {0: [0, 0], 1: [0, 0], 2: [0, 0]}
        degenerate = [0, 0]
        for rows, target, n, kind in self.cases():
            ok, witness = flow_verdict(cdr(rows), target, n)
            assert ok == reference_cdr(rows, target, n), (rows, target, n)
            assert ok == (witness is not None)
            # the oracle for an empty witness is the comparison that check_cdr's
            # former degenerate mode made: every rank zero matches
            sums_match = _antidiagonal_sums(rows, n) == target
            assert (witness == ()) == sums_match, (rows, target, n)
            verdicts[kind][ok] += 1
            degenerate[sums_match] += 1
            if ok:
                assert _antidiagonal_sums(replay(rows, witness, "cdr"), n) == target
                assert [w[0] for w in witness] == sorted(w[0] for w in witness)
        # replayed targets are always feasible; the others give both verdicts
        assert verdicts[0] == [0, 1200]
        assert min(verdicts[1] + verdicts[2]) > 100
        assert min(degenerate) > 100


class TestSpectralState:
    def test_start_and_apply(self):
        state = SpectralState.start(lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
        assert state.page == 2
        assert state.differentials() == [((0, 1), (2, 2))]
        after = state.apply_page({(0, 1): 1})
        assert after.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
        assert after.history == ((2, (0, 1), (2, 2), 1),)

    def test_rank_bound_enforced(self):
        state = SpectralState.start(lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
        with pytest.raises(InputError):
            state.apply_page({(0, 1): 2})

    @pytest.mark.parametrize("rank, echo", [(0.5, "0.5"), (True, "True"), ("1", "'1'")])
    def test_non_integer_rank_refused(self, rank, echo):
        state = SpectralState.start(lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
        with pytest.raises(InputError) as err:
            state.apply_page({(0, 1): rank})
        assert str(err.value) == f"rank at (0, 1) must be an integer, got {echo}"

    @pytest.mark.parametrize("page, echo", [("2", "'2'"), (2.5, "2.5"), (None, "None"),
                                            (True, "True")])
    def test_non_integer_page_refused(self, page, echo):
        with pytest.raises(InputError) as err:
            SpectralState("lyubeznik", page, [[0]])
        assert str(err.value) == f"page must be an integer of at least 2, got {echo}"

    @pytest.mark.parametrize("entries, text", [
        ([[1.5]], "table entries must be nonnegative integers, got 1.5"),
        ([["a", 1], [0, 1]], "table entries must be nonnegative integers, got 'a'"),
        ([[1, 1], [0]], "table entries must form a nonempty square array"),
        ([[-1]], "table entries must be nonnegative integers, got -1"),
        ([[None]], "table entries must be nonnegative integers, got None"),
    ], ids=["float", "str", "ragged", "negative", "unknown"])
    def test_entries_must_be_a_square_of_nonnegative_integers(self, entries, text):
        with pytest.raises(InputError) as err:
            SpectralState("lyubeznik", 2, entries)
        assert str(err.value) == text

    def test_start_refuses_a_table_with_unknown_cells(self):
        with pytest.raises(InputError) as err:
            SpectralState.start(lam([[0, N], [0, 1]]))
        assert str(err.value) == "table entries must be nonnegative integers, got None"

    @pytest.mark.parametrize("ranks, text", [
        ({("a", 0): 1}, "a cell must be a pair of integers, got ('a', 0)"),
        ({(0, 1, 2): 0}, "a cell must be a pair of integers, got (0, 1, 2)"),
        ({5: 0}, "a cell must be a pair of integers, got 5"),
        ({(0, 1): 1, ("a", 0): 1}, "a cell must be a pair of integers, got ('a', 0)"),
        ({(True, 0): 0}, "a cell must be a pair of integers, got (True, 0)"),
        ({(4, 0): 0}, "cell (4, 0) outside table of dimension 3"),
    ], ids=["str", "triple", "int", "sorted with a good cell", "bool", "outside"])
    def test_apply_page_refuses_a_bad_cell(self, ranks, text):
        state = SpectralState("lyubeznik", 2, [[0, 1, 0, 0], [0] * 4, [0, 0, 0, 1], [0] * 4])
        with pytest.raises(InputError) as err:
            state.apply_page(ranks)
        assert str(err.value) == text

    @pytest.mark.parametrize("page, echo", [("2", "'2'"), (2.5, "2.5"), (None, "None"),
                                            (True, "True"), (1, "1")])
    def test_differential_target_refuses_a_bad_page(self, page, echo):
        with pytest.raises(InputError) as err:
            differential_target("cdr", page, (0, 0))
        assert str(err.value) == f"page must be an integer of at least 2, got {echo}"

    @pytest.mark.parametrize("cell, echo", [(None, "None"), (("a", 0), "('a', 0)"),
                                            ((0, 1, 2), "(0, 1, 2)"), ([0, 0], "[0, 0]"),
                                            ((0, True), "(0, True)")])
    def test_differential_target_refuses_a_bad_cell(self, cell, echo):
        with pytest.raises(InputError) as err:
            differential_target("cdr", 2, cell)
        assert str(err.value) == f"a cell must be a pair of integers, got {echo}"

    def test_euler_conserved_random_transitions(self, rng):
        def euler(state):
            return sum((-1) ** (p + q) * v for p, row in enumerate(state.entries)
                       for q, v in enumerate(row))

        for _ in range(40):
            d = rng.randint(1, 4)
            rows = [[0] * (d + 1) for _ in range(d + 1)]
            for p in range(d + 1):
                for q in range(p, d + 1):
                    rows[p][q] = rng.randint(0, 4)
            state = SpectralState.start(lam(rows))
            for _ in range(d):
                before = euler(state)
                ranks = {}
                for src, tgt in state.differentials():
                    cap = min(
                        state.entries[src[0]][src[1]], state.entries[tgt[0]][tgt[1]]
                    )
                    ranks[src] = rng.randint(0, cap)
                try:
                    state = state.apply_page(ranks)
                except InputError:
                    break  # ranks collided on a shared cell; legal to reject
                assert euler(state) == before


class TestDeduce:
    def test_dim3_identities(self):
        result = deduce_lambda(dim3_shape(), 5)
        assert not result.contradiction
        assert result.feasible_count == 30
        assert result.implies({(2, 3): 1, (0, 2): -1})
        assert result.implies({(3, 3): 1, (1, 2): -1}, -1)
        rendered = [r.render() for r in result.identities]
        assert "(0,2) = (2,3)" in rendered

    def test_dim3_identities_not_overclaimed(self):
        result = deduce_lambda(dim3_shape(), 5)
        assert not result.implies({(2, 3): 1, (1, 2): -1})
        assert not result.implies({(0, 2): 1}, -1)

    def test_dim4_identities(self):
        result = deduce_lambda(dim4_shape(), 3)
        assert not result.contradiction
        assert result.forced[(5, 5)] == 1
        assert result.implies({(0, 4): 1, (2, 5): -1})
        assert result.implies({(1, 4): 1, (3, 5): -1, (0, 3): 1})

    def test_fully_known_feasible(self):
        result = deduce_lambda(lam([[0, 1, 0], [0, 0, 0], [0, 0, 2]]), 5)
        assert not result.contradiction
        assert result.feasible_count == 1
        assert result.unknown_cells == ()

    def test_fully_known_contradiction(self):
        result = deduce_lambda(lam([[0, 0, 0], [0, 0, 0], [0, 0, 2]]), 5)
        assert result.contradiction

    def test_structural_zeros_inherited(self):
        table = lam([
            [0, N, N, N],
            [N, 0, N, N],
            [0, 0, 0, N],
            [0, 0, 0, N],
        ])
        result = deduce_lambda(table, 2)
        assert not result.contradiction
        # below-diagonal and the (0,d)/(1,d) corner resolve to zero before search
        assert result.forced[(1, 0)] == 0
        assert result.forced[(0, 3)] == 0
        assert result.forced[(1, 3)] == 0
        assert (1, 0) not in result.unknown_cells

    def test_monotone_under_added_knowledge(self):
        base = deduce_lambda(dim3_shape(), 3)
        base_set = set(base.completions)
        idx = base.unknown_cells.index((1, 2))
        for value in (0, 1, 2):
            pinned = deduce_lambda(dim3_shape().with_entries({(1, 2): value}), 3)
            assert pinned.feasible_count <= base.feasible_count
            for completion in pinned.completions:
                rebuilt = list(completion)
                rebuilt.insert(idx, value)
                assert tuple(rebuilt) in base_set

    def test_search_limit_guard(self):
        with pytest.raises(SearchLimitError):
            deduce_lambda(dim4_shape(), 5, search_limit=500)

    def test_search_limit_from_environment(self, monkeypatch):
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "200")
        with pytest.raises(SearchLimitError):
            deduce_lambda(dim4_shape(), 3)
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", "not-a-number")
        with pytest.raises(InputError):
            deduce_lambda(dim3_shape(), 1)

    @pytest.mark.parametrize("table, bound", [
        (dim3_shape(), b) for b in range(5)
    ] + [
        (lam([[N] * 3] * 3), b) for b in range(4)
    ] + [
        (lam([[0, N, N, N], [N, 0, N, N], [0, 0, 0, N], [0, 0, 0, N]]), 2),
    ])
    def test_enumeration_against_product(self, table, bound):
        # the oracle counts every node of the tree over the free unknowns, and
        # the completions come in the lexicographic order of the unknowns
        result = deduce_lambda(table, bound)
        k = len(result.unknown_cells)
        assert reference_deduce(table, bound).nodes == sum((bound + 1) ** i for i in range(k))
        structural = dict.fromkeys(table.unknown_cells(), 0)
        expected = []
        for vec in product(range(bound + 1), repeat=k):
            full = table.with_entries({**structural, **dict(zip(result.unknown_cells, vec))})
            if not validate_lambda(full) and check_convergence_lambda(full)[0]:
                expected.append(vec)
        assert list(result.completions) == expected
        assert result.feasible_count == len(expected)

    @pytest.mark.parametrize("bound", [2.5, 3.0, True, False, "3", -1])
    def test_bound_must_be_a_nonnegative_int(self, bound):
        with pytest.raises(InputError) as err:
            deduce_lambda(dim3_shape(), bound)
        assert str(err.value) == f"bound must be a nonnegative integer, got {bound!r}"

    @pytest.mark.parametrize("limit", [0, -1, True, 2.5])
    def test_search_limit_below_one_rejected(self, limit):
        with pytest.raises(InputError, match="search_limit must be a positive integer"):
            deduce_lambda(dim3_shape(), 1, search_limit=limit)

    def test_long_search_limit_is_echoed_up_to_60_characters(self):
        with pytest.raises(InputError) as err:
            deduce_lambda(dim3_shape(), 1, search_limit="x" * 5000)
        assert str(err.value) == "search_limit must be a positive integer, got '" + "x" * 59 + "…"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_search_limit_below_one_rejected_from_environment(self, limit, monkeypatch):
        monkeypatch.setenv("INVAR_SEARCH_LIMIT", limit)
        with pytest.raises(InputError, match="INVAR_SEARCH_LIMIT must be a positive integer"):
            deduce_lambda(dim3_shape(), 1)

    def test_search_limit_of_one_allows_the_root(self):
        assert deduce_lambda(dim4_contra(), 3, search_limit=1).nodes == 1
        with pytest.raises(SearchLimitError):
            deduce_lambda(dim3_shape(), 1, search_limit=1)

    @pytest.mark.parametrize("d", [43, 45])
    def test_large_table_hits_search_limit(self, d):
        # about a thousand free unknowns, deeper than the recursion limit
        with pytest.raises(SearchLimitError):
            deduce_lambda(lam([[N] * (d + 1)] * (d + 1)), search_limit=2000)

    def test_large_table_keeps_at_most_200000_values(self, monkeypatch):
        # the search stops after 1,000 completions of 988 unknowns each, of
        # which the list keeps the first 202
        monkeypatch.setattr("invar.tables._lambda_completions",
                            lambda *args: islice(_lambda_completions(*args), 1000))
        result = deduce_lambda(lam([[N] * 44] * 44), search_limit=10**5)
        assert (len(result.unknown_cells), result.feasible_count) == (988, 1000)
        assert len(result.completions) == 202 and result.truncated
        assert sum(map(len, result.completions)) <= 200000

    def test_deep_search_completes(self, monkeypatch):
        # the first completion of the all-unknown d = 45 table lies more than
        # 1,000 free unknowns deep, below the recursion limit
        monkeypatch.setattr("invar.tables._lambda_completions",
                            lambda *args: islice(_lambda_completions(*args), 1))
        table = lam([[N] * 46] * 46)
        result = deduce_lambda(table, 1)
        k = len(result.unknown_cells)
        free = _lambda_root(searched(table, result).entries, result.unknown_cells, 1)[-1]
        assert (k, len(free), result.nodes) == (1079, 1076, 1077)
        assert result.feasible_count == 1
        assert result.completions == ((0,) * (k - 1) + (1,),)

    def test_bound_respected(self):
        result = deduce_lambda(dim3_shape(), 0)
        # with every unknown capped at 0 the (3,3) = 1 requirement fails
        assert result.contradiction

    def test_wrong_kind(self):
        with pytest.raises(InputError) as err:
            deduce_lambda(cdr([[1]]))
        assert str(err.value) == "table deduce only applies to lyubeznik tables"


class TestCheckCdr:
    def test_boolean_degenerate(self):
        table = cdr([[0, 0, 1], [0, 0, 3], [0, 0, 3]])
        assert check_cdr(table, [0, 3, 3, 1, 0, 0], 3) == (True, ())

    def test_forced_cancellation_needs_differential(self):
        table = cdr([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        assert check_cdr(table, [0] * 8, 4) == (True, ((2, (2, 2), (0, 3), 1),))

    def test_empty_table_zero_betti(self):
        assert check_cdr(cdr([[0]]), [0, 0, 0, 0], 2) == (True, ())

    def test_wrong_betti_rejected_as_infeasible(self):
        table = cdr([[0, 0, 1], [0, 0, 3], [0, 0, 3]])
        assert check_cdr(table, [0, 3, 3, 2, 0, 0], 3) == (False, None)

    def test_betti_length_mismatch(self):
        with pytest.raises(InputError):
            check_cdr(cdr([[1]]), [0, 0, 0, 1], 1)  # degree 3 impossible for n=1... n too small
        with pytest.raises(InputError):
            check_cdr(cdr([[0, 0], [0, 1]]), [0] * 9 + [1], 4)

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            check_cdr(cdr([[N]]), [0, 0], 1)

    @pytest.mark.parametrize("n, echo", [(2.5, "2.5"), ("3", "'3'"), (None, "None"),
                                         (True, "True")])
    def test_non_integer_ambient_dimension(self, n, echo):
        with pytest.raises(InputError) as err:
            check_cdr(cdr([[1]]), [0, 1], n)
        assert str(err.value) == f"ambient_dim must be a positive integer, got {echo}"

    @pytest.mark.parametrize("betti, echo", [(None, "None"), (5, "5"), ([0, True], "True"),
                                             ([0, 1.0], "1.0"), ("01", "'0'"), ([1, -1], "-1")])
    def test_betti_must_be_nonnegative_integers(self, betti, echo):
        with pytest.raises(InputError) as err:
            check_cdr(cdr([[1]]), betti, 1)
        assert str(err.value) == f"Betti numbers must be nonnegative integers, got {echo}"

    def test_ambient_dimension_too_small(self):
        with pytest.raises(InputError) as err:
            check_cdr(cdr([[0, 0], [0, 1]]), [0, 1], 1)
        assert str(err.value) == "ambient dimension 1 is too small for a table of dimension 1"


class TestSmallTables:
    def test_dim0(self):
        assert canonical_small_tables(0).entries == ((1,),)

    def test_dim1(self):
        assert canonical_small_tables(1).entries == ((0, 0), (0, 1))

    def test_dim2(self):
        table = canonical_small_tables(2, 3)
        assert table.entry(0, 1) == 2 and table.entry(2, 2) == 3

    def test_errors(self):
        with pytest.raises(InputError):
            canonical_small_tables(3)
        with pytest.raises(InputError):
            canonical_small_tables(2, 0)
        for dim_y in (-1, 3, True, False, 2.0, "2"):
            with pytest.raises(InputError, match=r"^closed-form tables exist only for "
                                                 r"dimension 0, 1 or 2$"):
                canonical_small_tables(dim_y)
        for a in (0, True, 2.0, "2"):
            with pytest.raises(InputError) as err:
                canonical_small_tables(2, a)
            assert str(err.value) == f"a must be a positive integer, got {a!r}"


class TestInvariantTable:
    def test_rejects_negative(self):
        with pytest.raises(InputError):
            lam([[-1]])

    def test_rejects_ragged(self):
        with pytest.raises(InputError):
            lam([[0, 1], [0]])

    @pytest.mark.parametrize("value, echo", [
        ("x", "'x'"),
        (-1, "-1"),
        ("x" * 5000, "'" + "x" * 59 + "…"),
    ], ids=["short", "negative", "5000-chars"])
    def test_ill_typed_entry_is_echoed_up_to_60_characters(self, value, echo):
        with pytest.raises(InputError) as err:
            InvariantTable("lyubeznik", [[value]])
        assert str(err.value) == f"table entries must be nonnegative integers or null, got {echo}"

    @pytest.mark.parametrize("kind, echo", [
        ("ogus", "'ogus'"),
        ("k" * 5000, "'" + "k" * 59 + "…"),
    ], ids=["short", "5000-chars"])
    @pytest.mark.parametrize("site", [
        lambda kind: InvariantTable(kind, [[0]]),
        lambda kind: differential_target(kind, 2, (0, 0)),
        lambda kind: SpectralState(kind, 2, [[0]]),
    ], ids=["InvariantTable", "differential_target", "SpectralState"])
    def test_unknown_kind_is_echoed_up_to_60_characters(self, site, kind, echo):
        with pytest.raises(InputError) as err:
            site(kind)
        assert str(err.value) == f"kind must be 'lyubeznik' or 'cdr', got {echo}"

    @pytest.mark.parametrize("cell, echo", [
        (("a", 0), "('a', 0)"),
        ((0, 1.0), "(0, 1.0)"),
        ((True, 0), "(True, 0)"),
        ((0,), "(0,)"),
        ((0, 1, 1), "(0, 1, 1)"),
        (1, "1"),
        ("01", "'01'"),
    ], ids=["str", "float", "bool", "short", "long", "int", "str-key"])
    def test_with_entries_refuses_a_cell_that_is_not_a_pair_of_integers(self, cell, echo):
        with pytest.raises(InputError) as err:
            lam([[0, N], [0, 2]]).with_entries({cell: 1})
        assert str(err.value) == f"a cell must be a pair of integers, got {echo}"

    @pytest.mark.parametrize("p, q, text", [
        ("a", 0, "a cell must be a pair of integers, got ('a', 0)"),
        (0, None, "a cell must be a pair of integers, got (0, None)"),
        (2, 0, "cell (2, 0) outside table of dimension 1"),
        (-1, 0, "cell (-1, 0) outside table of dimension 1"),
    ], ids=["str", "none", "outside", "negative"])
    def test_entry_refuses_a_bad_cell(self, p, q, text):
        with pytest.raises(InputError) as err:
            lam([[0, N], [0, 2]]).entry(p, q)
        assert str(err.value) == text

    def test_pretty_marks(self):
        table = lam([[0, N], [0, 2]])
        text = table.pretty()
        assert "·" in text and "?" in text and "2" in text

    def test_json_dict_key_order(self):
        table = canonical_small_tables(2, 2)
        doc = json.loads(dumps_table(table, ["x"]))
        assert list(doc.keys()) == ["kind", "dim", "entries", "notes"]
        assert doc == reference_json_dict(table, ["x"])
