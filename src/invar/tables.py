"""Invariant tables and the spectral bookkeeping engine.

Tables are (d+1)x(d+1) grids of nonnegative integers (or None for unknown
cells), row index p downward, column index q rightward.  Two kinds exist:

* ``lyubeznik``: socle-dimension tables; differentials move (p,q) to
  (p+r, q+r-1) on page r and the limit page must vanish off the diagonal
  with total diagonal mass exactly 1 (structural rules: validate_lambda).
* ``cdr``: Cech-de Rham tables; differentials move (p,q) to (p-r, q+r-1)
  and the limit page is compared against reduced Betti numbers of the
  complement along the anti-diagonals 2n - p - q - 1 = k.  A cdr table
  must be upper-triangular (validate_cdr).

Every differential flips the parity of p+q, so each convergence check is
one circulation with lower bounds on a bipartite graph (see _lambda_witness
and _cdr_witness).  Ranks only subtract, so a cell's remainder always covers
its later ranks and any flow is realizable page by page.  Both checks,
check_convergence_lambda and check_cdr, return (feasible, witness): the
witness is the positive ranks as (page, source, target, rank), or None.

Deduction finds the completions with unknown entries up to a bound B on the
lambda graph: each cell's edge (hub to an even cell, odd cell to hub)
carries the cell's value, bounded by [v, v] for a known cell and [0, B] for
an unknown one ([1, B] at (d,d)), and the diagonal sends exactly one unit to
the hub.  By Hoffman's circulation theorem and the integrality theorem, the
convergent completions are exactly the integer circulations, read off the
cell edges.  These form an integral polytope, so under any bounds the
feasible values of one cell form an interval of integers.  One flow at the
root decides a contradiction.  Any two circulations differ by a circulation
on the edges whose flow can still move, and a bridge of those edges carries
none.  So the root also finds the free unknowns: an unknown is free when
its edge lies on a cycle of such edges once the earlier unknowns' edges are
removed, and every other unknown takes the one value the earlier ones leave
it (_free_unknowns).  The search fixes only the free unknowns, in order.
At each node it moves the next free cell's flow down as far as cycles
through its edge allow, then up one unit at a time to the bound or until no
cycle is left; at each leaf it reads every other unknown off the flow on
its edge.  So every node it enters is feasible and every leaf is a
completion.  The environment variable INVAR_SEARCH_LIMIT (default 10**7)
caps its nodes: the root, and one per feasible value of each free unknown
under each feasible prefix.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping, Sequence

from .errors import InputError, SearchLimitError, _Frozen, _betti, _echo, _int, _is_int
from .qlinalg import _extend_sparse_echelon, _nullspace_int, _primitive

KIND_LYUBEZNIK = "lyubeznik"
KIND_CDR = "cdr"
_KINDS = (KIND_LYUBEZNIK, KIND_CDR)
# the diagnostic of both validators for a nonzero entry (p,q) = v with p > q
_BELOW_DIAGONAL = "triangularity violated: entry ({},{}) = {} below the diagonal"

DEFAULT_BOUND = 10
DEFAULT_SEARCH_LIMIT = 10**7

Cell = tuple[int, int]


def _search_limit(explicit: int | None) -> int:
    if explicit is not None:
        return _int(explicit, "search_limit", 1)
    env = os.environ.get("INVAR_SEARCH_LIMIT")
    if env is None:
        return DEFAULT_SEARCH_LIMIT
    try:
        limit = int(env)
    except ValueError as exc:
        raise InputError(f"INVAR_SEARCH_LIMIT must be an integer, got {_echo(env)}") from exc
    if limit < 1:
        raise InputError(f"INVAR_SEARCH_LIMIT must be a positive integer, got {_echo(env)}")
    return limit


def _kind(kind: str) -> str:
    if kind not in _KINDS:
        raise InputError(f"kind must be '{KIND_LYUBEZNIK}' or '{KIND_CDR}', got {_echo(kind)}")
    return kind


def _entries(entries, unknown: bool) -> tuple[tuple, ...]:
    """entries as a square tuple of rows of nonnegative ints, refusing
    anything else; None is an unknown cell, allowed when `unknown` is true."""
    rows = tuple(tuple(row) for row in entries)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError("table entries must form a nonempty square array")
    for row in rows:
        for v in row:
            if not (_is_int(v) and v >= 0 or unknown and v is None):
                raise InputError("table entries must be nonnegative integers"
                                 f"{' or null' if unknown else ''}, got {_echo(v)}")
    return rows


class InvariantTable(_Frozen):
    """Upper-triangular table of nonnegative integers with optional unknowns."""

    __slots__ = ("kind", "entries")
    kind: str
    entries: tuple[tuple[int | None, ...], ...]

    def __init__(self, kind: str, entries: Iterable[Sequence]):
        object.__setattr__(self, "kind", _kind(kind))
        object.__setattr__(self, "entries", _entries(entries, True))

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def entry(self, p: int, q: int):
        _cell((p, q), self.d)
        return self.entries[p][q]

    def cells(self) -> list[Cell]:
        n = self.d + 1
        return [(p, q) for p in range(n) for q in range(n)]

    def unknown_cells(self) -> tuple[Cell, ...]:
        return tuple((p, q) for p, q in self.cells() if self.entries[p][q] is None)

    def is_complete(self) -> bool:
        return not self.unknown_cells()

    def with_entries(self, assignment: Mapping[Cell, int | None]) -> "InvariantTable":
        rows = [list(r) for r in self.entries]
        for cell, v in assignment.items():
            p, q = _cell(cell, self.d)
            rows[p][q] = v
        return InvariantTable(self.kind, rows)

    def __repr__(self):
        return f"InvariantTable(kind={self.kind!r}, d={self.d})"

    def pretty(self) -> str:
        """Aligned grid; zero prints as a middle dot, unknown as '?'."""
        cells = [
            ["?" if v is None else ("·" if v == 0 else str(v)) for v in row]
            for row in self.entries
        ]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)

    def as_json_dict(self, notes: Sequence[str] = ()) -> dict:
        return {
            "kind": self.kind,
            "dim": self.d,
            "entries": [list(row) for row in self.entries],
            "notes": list(notes),
        }


class OgusBounds(_Frozen):
    """Thresholds above which local cohomology is Artinian (f_y) or zero (v_y).

    ambient_dim is the dimension n of the surrounding affine space; it is
    needed to convert the thresholds into vanishing column ranges q < n - v_y
    and q < n - f_y of a Lyubeznik table.
    """

    __slots__ = ("f_y", "v_y", "ambient_dim")
    f_y: int
    v_y: int
    ambient_dim: int

    def __init__(self, f_y: int, v_y: int, ambient_dim: int):
        object.__setattr__(self, "f_y", _int(f_y, "f_y"))
        object.__setattr__(self, "v_y", _int(v_y, "v_y"))
        object.__setattr__(self, "ambient_dim", _int(ambient_dim, "ambient_dim"))
        if f_y > v_y:
            raise InputError("f_y must not exceed v_y")


def validate_lambda(table: InvariantTable, bounds: OgusBounds | None = None) -> list[str]:
    """Structural diagnostics for a Lyubeznik table; empty list means valid.

    Unknown cells are skipped: only known entries can violate a constraint.
    """
    if table.kind != KIND_LYUBEZNIK:
        raise InputError("validate_lambda expects a lyubeznik table")
    d = table.d
    diags: list[str] = []
    for p, row in enumerate(table.entries):
        for q, v in enumerate(row):
            if v is None:
                continue
            if p > q and v != 0:
                diags.append(_BELOW_DIAGONAL.format(p, q, v))
            if d >= 2 and q == d and p in (0, 1) and v != 0:
                diags.append(
                    f"entry ({p},{d}) = {v} must vanish: top-column entries (0,d) and (1,d) "
                    "are zero whenever d >= 2"
                )
    if table.entries[d][d] == 0:
        diags.append(f"entry ({d},{d}) must be positive")
    if bounds is not None:
        n = bounds.ambient_dim
        for p, q in table.cells():
            v = table.entries[p][q]
            if v is None or v == 0:
                continue
            if q < n - bounds.v_y:
                diags.append(
                    f"entry ({p},{q}) = {v} lies in the vanishing range q < {n - bounds.v_y}"
                )
            elif p >= 1 and q < n - bounds.f_y:
                diags.append(
                    f"entry ({p},{q}) = {v} lies in the Artinian range q < {n - bounds.f_y} "
                    "where only row 0 may be nonzero"
                )
    return diags


def validate_cdr(table: InvariantTable) -> list[str]:
    """Each known nonzero entry below the diagonal of a Cech-de Rham table,
    which must be upper-triangular; an empty list means valid."""
    if table.kind != KIND_CDR:
        raise InputError("validate_cdr expects a cdr table")
    return [_BELOW_DIAGONAL.format(p, q, v)
            for p, row in enumerate(table.entries) for q, v in enumerate(row[:p]) if v]


def _require(table: InvariantTable, kind: str, caller: str, n=None) -> None:
    """Refuse a table that is not a complete table of this kind.

    A cdr table's antidiagonals k = 2n-p-q-1 depend on the ambient dimension,
    so for that kind n must also be an int of at least d+1.
    """
    if table.kind != kind:
        raise InputError(f"{caller} expects a {kind} table")
    if not table.is_complete():
        raise InputError(f"{caller} requires a table without unknown cells")
    if kind == KIND_CDR and _int(n, "ambient_dim", 1) < table.d + 1:
        raise InputError(f"ambient dimension {n} is too small for a table of dimension {table.d}")


def _alternating_sum(entries) -> int:
    """Sum of (-1)^(p+q) * entry over the known cells."""
    return sum(-v if (p + q) % 2 else v for p, row in enumerate(entries)
               for q, v in enumerate(row) if v is not None)


def euler_sum(table: InvariantTable) -> int:
    """Alternating sum of all entries with sign (-1)^(p+q)."""
    _require(table, KIND_LYUBEZNIK, "euler_sum")
    return _alternating_sum(table.entries)


def differential_target(kind: str, page: int, cell: Cell) -> Cell:
    """Where the page-r differential sends a table cell."""
    _int(page, "page", 2)
    p, q = _pair(cell)
    if _kind(kind) == KIND_LYUBEZNIK:
        return (p + page, q + page - 1)
    return (p - page, q + page - 1)


def _in_table(cell: Cell, d: int) -> bool:
    p, q = cell
    return 0 <= p <= d and 0 <= q <= d


def _pair(cell) -> Cell:
    """cell, refusing anything but a pair (a tuple) of ints."""
    if not isinstance(cell, tuple) or len(cell) != 2 or not all(map(_is_int, cell)):
        raise InputError(f"a cell must be a pair of integers, got {_echo(cell)}")
    return cell


def _cell(cell, d: int) -> Cell:
    """cell, refusing anything but a pair of ints inside a table of dimension d."""
    if not _in_table(_pair(cell), d):
        raise InputError(f"cell {cell} outside table of dimension {d}")
    return cell


def _arrows(entries, kind: str) -> list[tuple[int, Cell, Cell]]:
    """(page, source, target) of each differential between nonzero cells, by source."""
    d = len(entries) - 1
    step = 1 if kind == KIND_LYUBEZNIK else -1
    out = []
    for p, row in enumerate(entries):
        last_p = d - p if step > 0 else p  # the last page whose target row is inside
        for q, v in enumerate(row):
            if v:
                for r in range(2, min(last_p, d + 1 - q) + 1):
                    tp = p + step * r
                    if entries[tp][q + r - 1]:
                        out.append((r, (p, q), (tp, q + r - 1)))
    return out


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise SearchLimitError(
                f"search exceeded the node limit of {self.limit}; "
                "raise INVAR_SEARCH_LIMIT to search further"
            )


class _FlowGraph:
    """Residual graph for Edmonds-Karp augmentation along shortest paths.

    Edges are numbered in pairs: edge e runs from node head[e ^ 1] to node
    head[e] with residual capacity cap[e], so the flow on an edge added with
    capacity c is cap[e ^ 1].  Nodes are numbered in order of first use.
    A path may pass through any node.  In the deduction's graph, flow
    conservation already closes a cell whose edge to the hub is blocked at
    zero flow: its other edges carry no flow either, so no residual edge
    enters it if it is even or leaves it if it is odd.
    """

    __slots__ = ("ids", "head", "cap", "adj")

    def __init__(self):
        self.ids: dict = {}
        self.head: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = []

    def node(self, name) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.adj)
            self.adj.append([])
        return i

    def add(self, u, v, c: int) -> int:
        """Add the edge u -> v of capacity c; returns its number."""
        a, b = self.node(u), self.node(v)
        e = len(self.head)
        self.head += (b, a)
        self.cap += (c, 0)
        self.adj[a].append(e)
        self.adj[b].append(e + 1)
        return e

    def _path(self, start: int, goal: int, flip: int) -> list[int] | None:
        """Edges of a shortest residual path between start and goal, or None.

        flip 0 searches forward from start; flip 1 searches backward, over
        reversed residual edges, so the path then runs from goal to start.
        """
        head, cap = self.head, self.cap
        via = {start: -1}
        queue = [start]
        for u in queue:
            for e in self.adj[u]:
                if cap[e ^ flip] > 0:
                    v = head[e]
                    if v not in via:
                        via[v] = e ^ flip
                        if v == goal:
                            path = []
                            while v != start:
                                e = via[v]
                                path.append(e)
                                v = head[e ^ 1 ^ flip]
                            return path
                        queue.append(v)
        return None

    def push(self, src: int, dst: int, want: int, backward: bool = False) -> int:
        """Augment from src to dst, up to want units.

        backward runs each search from dst, which is cheaper when dst has
        the smaller neighbourhood.  Returns the units pushed.
        """
        cap = self.cap
        pushed = 0
        while pushed < want:
            path = self._path(dst, src, 1) if backward else self._path(src, dst, 0)
            if path is None:
                break
            step = min(want - pushed, *(cap[e] for e in path))
            for e in path:
                cap[e] -= step
                cap[e ^ 1] += step
            pushed += step
        return pushed


def _shift(graph: _FlowGraph, hub: int, e: int, delta: int) -> int:
    """Move the flow on edge e, blocked by the caller, by up to delta units.

    Each unit goes round a cycle through e; the search starts at e's end
    away from the hub.  Returns the units moved.
    """
    a, b = graph.head[e ^ 1], graph.head[e]
    if delta > 0:
        return graph.push(b, a, delta, b == hub)
    return graph.push(a, b, -delta, a == hub)


def _raise_floors(graph: _FlowGraph, hub: int, floors) -> bool:
    """Raise the flow on each (edge, floor) of floors to its floor, in turn.

    Each edge then keeps only its room above the floor, so its flow reads
    cap[e ^ 1] + floor.  False when a floor cannot be met: no circulation can.
    """
    cap = graph.cap
    for e, floor in floors:
        x, u = cap[e ^ 1], cap[e] + cap[e ^ 1]
        cap[e] = cap[e ^ 1] = 0
        if x < floor <= u:
            x += _shift(graph, hub, e, floor - x)
        if x < floor:
            return False
        cap[e], cap[e ^ 1] = u - x, x - floor
    return True


def _add_arrows(graph: _FlowGraph, entries, kind: str, total: int) -> list:
    """Add each differential as an edge from its even end; (page, source, target, edge) each."""
    arrows = []
    for r, src, tgt in _arrows(entries, kind):
        even, odd = (src, tgt) if (src[0] + src[1]) % 2 == 0 else (tgt, src)
        arrows.append((r, src, tgt, graph.add(even, odd, total)))
    return arrows


def _witness(graph: _FlowGraph, floors, arrows) -> tuple | None:
    """The arrows' (page, source, target, rank > 0) in a circulation meeting floors, or None."""
    if not _raise_floors(graph, graph.node("hub"), floors):
        return None
    cap = graph.cap
    return tuple(sorted((r, src, tgt, cap[e ^ 1]) for r, src, tgt, e in arrows if cap[e ^ 1]))


def _lambda_graph(entries, upper):
    """The lambda graph of the module docstring, with zero flow.

    entries hold the known values (None at the unknowns), upper every cell's
    bound.  Returns (graph, edge, floors, arrows): edge maps a cell to its
    hub edge, floors is for _raise_floors and arrows as from _add_arrows.
    """
    d = len(entries) - 1
    total = sum(map(sum, upper))  # no cell or arrow carries more
    graph = _FlowGraph()
    edge, known = {}, []
    for p, row in enumerate(upper):
        for q, u in enumerate(row):
            v = entries[p][q]
            if u or v is None:
                ends = ("hub", (p, q)) if (p + q) % 2 == 0 else ((p, q), "hub")
                edge[p, q] = graph.add(*ends, u)
                if v:
                    known.append((edge[p, q], v))
    for p in range(d + 1):
        if upper[p][p]:
            graph.add((p, p), "diag", total)
    floors = [(graph.add("diag", "hub", 1), 1)] + known  # the surviving unit first
    if entries[d][d] is None:
        floors.append((edge[d, d], 1))
    return graph, edge, floors, _add_arrows(graph, upper, KIND_LYUBEZNIK, total)


def _lambda_witness(entries) -> tuple | None:
    """Differential ranks that leave one diagonal 1 on the limit page, or None.

    Rank choices are nonnegative arrow weights summing at each cell to its
    entry, less one surviving diagonal unit: the circulations of _lambda_graph.
    """
    if _alternating_sum(entries) != 1:
        return None  # conserved, it must end at 1: most tables fail here, flow-free
    graph, _, floors, arrows = _lambda_graph(entries, entries)
    return _witness(graph, floors, arrows)


def check_convergence_lambda(table: InvariantTable):
    """Decide whether differential ranks can converge the table to one socle copy.

    Returns (feasible, witness); the witness is a tuple of (page,
    source_cell, target_cell, rank) with positive ranks, or None.  A table
    `validate_lambda` calls invalid is refused, naming the first diagnostic.
    """
    _require(table, KIND_LYUBEZNIK, "check_convergence_lambda")
    if diagnostics := validate_lambda(table):
        raise InputError(f"invalid table: {diagnostics[0]}")
    witness = _lambda_witness(table.entries)
    return witness is not None, witness


def _antidiagonal_sums(entries, n: int) -> list[int]:
    sums = [0] * (2 * n)
    for p, row in enumerate(entries):
        for q, v in enumerate(row):
            sums[2 * n - p - q - 1] += v
    return sums


def _normalize_betti(betti: Sequence[int], n: int) -> list[int]:
    vals = _betti(betti)
    if any(vals[2 * n:]):
        raise InputError(
            f"Betti vector has nonzero entries beyond degree {2 * n - 1}, "
            "impossible for the given ambient dimension"
        )
    return (vals + [0] * (2 * n))[: 2 * n]


def _cdr_witness(entries, target: list[int], n: int) -> tuple | None:
    """Differential ranks that carry the antidiagonal sums to target, or None.

    The ranks must take D_k = sum_k - target_k off antidiagonal k (see
    check_cdr), so every D_k >= 0 and the odd and even k demand the same.
    Circulation: hub -> odd k [D_k, D_k] -> cell (at most its entry) ->
    arrow -> cell (at most its entry) -> even k [D_k, D_k] -> hub.
    """
    demand = [s - t for s, t in zip(_antidiagonal_sums(entries, n), target)]
    total = sum(demand[1::2])
    if min(demand) < 0 or total != sum(demand[0::2]):
        return None
    graph = _FlowGraph()
    floors = [(graph.add(*(("hub", k) if k % 2 else (k, "hub")), dk), dk)
              for k, dk in enumerate(demand)]
    for p, row in enumerate(entries):
        for q, v in enumerate(row):
            if v:
                k = 2 * n - p - q - 1
                graph.add(*((k, (p, q)) if k % 2 else ((p, q), k)), v)
    arrows = _add_arrows(graph, entries, KIND_CDR, total)
    return _witness(graph, floors[1::2] + floors[0::2], arrows)  # odd k first; even k follow


def check_cdr(table: InvariantTable, betti: Sequence[int], n: int):
    """Decide whether the table can converge to the given complement Betti numbers.

    betti is the reduced Betti vector of the complement, indexed from degree 0.
    Every differential (p,q) -> (p-r, q+r-1) joins antidiagonal
    k = 2n-p-q-1 to k+1, so the ranks must remove exactly sum_k - betti_k
    from each antidiagonal k.  The k's alternate in parity, which makes this
    a bipartite transportation problem, decided by one circulation with
    lower bounds (see _cdr_witness).

    Returns (feasible, witness) as check_convergence_lambda does.  The
    witness is () exactly when the antidiagonal sums already equal the
    target, so the degenerate solution (every rank zero) matches.  A table
    `validate_cdr` calls invalid is refused, naming the first diagnostic.
    """
    _require(table, KIND_CDR, "check_cdr", n)
    if diagnostics := validate_cdr(table):
        raise InputError(f"invalid table: {diagnostics[0]}")
    witness = _cdr_witness(table.entries, _normalize_betti(betti, n), n)
    return witness is not None, witness


class SpectralState(_Frozen):
    """One page of a spectral table together with the rank choices taken so
    far.  Two states compare by identity."""

    __slots__ = ("kind", "page", "entries", "history")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    kind: str
    page: int
    entries: tuple[tuple[int, ...], ...]
    history: tuple[tuple[int, Cell, Cell, int], ...]

    def __init__(self, kind: str, page: int, entries, history=()):
        object.__setattr__(self, "kind", _kind(kind))
        object.__setattr__(self, "page", _int(page, "page", 2))
        object.__setattr__(self, "entries", _entries(entries, False))
        object.__setattr__(self, "history", tuple(history))

    @classmethod
    def start(cls, table: InvariantTable) -> "SpectralState":
        return cls(table.kind, 2, table.entries)

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def differentials(self) -> list[tuple[Cell, Cell]]:
        """Source/target pairs that admit a nonzero rank on this page."""
        return [(src, tgt) for r, src, tgt in _arrows(self.entries, self.kind)
                if r == self.page]

    def apply_page(self, ranks: Mapping[Cell, int]) -> "SpectralState":
        """Advance one page, subtracting each rank from its source and target."""
        d = self.d
        rows = [list(r) for r in self.entries]
        history = list(self.history)
        for src in sorted(_cell(cell, d) for cell in ranks):
            rank = ranks[src]
            tgt = differential_target(self.kind, self.page, src)
            if not _in_table(tgt, d):
                raise InputError(f"differential from {src} leaves the table on page {self.page}")
            if not _is_int(rank):
                raise InputError(f"rank at {src} must be an integer, got {_echo(rank)}")
            if rank < 0 or rank > min(self.entries[src[0]][src[1]], self.entries[tgt[0]][tgt[1]]):
                raise InputError(
                    f"rank {rank} at {src} exceeds min(source, target) on page {self.page}"
                )
            rows[src[0]][src[1]] -= rank
            rows[tgt[0]][tgt[1]] -= rank
            if rank:
                history.append((self.page, src, tgt, rank))
        for p in range(d + 1):
            for q in range(d + 1):
                if rows[p][q] < 0:
                    raise InputError(
                        f"cell ({p},{q}) driven negative on page {self.page}: "
                        "incoming plus outgoing ranks exceed the entry"
                    )
        return SpectralState(self.kind, self.page + 1, rows, history)


class LinearRelation(_Frozen):
    """An integer relation sum(coeff * entry(cell)) + const = 0."""

    __slots__ = ("coeffs", "const")
    coeffs: tuple[tuple[Cell, int], ...]
    const: int

    def __init__(self, coeffs: tuple[tuple[Cell, int], ...], const: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    def render(self) -> str:
        """The first term = the others and the constant, negated, as signed `_term`s."""
        if not self.coeffs:
            return f"{self.const} = 0"
        (first, a), *rest = self.coeffs
        moved = [(-c, cell) for cell, c in rest] + ([(-self.const, None)] if self.const else [])
        rhs = ""
        for c, cell in moved:
            sign = "+" if c > 0 else "-"
            rhs += (f" {sign} " if rhs else "-" if sign == "-" else "") + _term(abs(c), cell)
        return f"{_term(a, first)} = {rhs or 0}"


def _term(c: int, cell: Cell | None) -> str:
    """c times the cell's entry as "c*(p,q)", the 1 left out; c alone for no cell."""
    if cell is None:
        return str(c)
    name = f"({cell[0]},{cell[1]})"
    return name if c == 1 else f"{c}*{name}"


class DeductionResult(_Frozen):
    """Summary of an exhaustive bounded completion search.

    nodes counts the search-tree nodes entered, the root included: below it,
    one per feasible value of each free unknown (see _free_unknowns) under
    each feasible prefix; the flow fixes the others.  The last unknown is
    never free.  So a contradiction takes one node, and
    nodes <= 1 + free * feasible_count <= 1 + (unknowns - 1) * feasible_count.
    `_first` (the first completion) and `_diffs` (an echelon basis of the
    differences from it) answer `implies`; the repr leaves them out.
    """

    __slots__ = ("unknown_cells", "bound", "contradiction", "feasible_count", "forced",
                 "identities", "completions", "truncated", "nodes", "_first", "_diffs")
    unknown_cells: tuple[Cell, ...]
    bound: int
    contradiction: bool
    feasible_count: int
    forced: dict
    identities: tuple[LinearRelation, ...]
    completions: tuple[tuple[int, ...], ...]
    truncated: bool
    nodes: int
    _first: tuple[int, ...] | None
    _diffs: tuple[tuple[int, ...], ...]

    def __init__(self, unknown_cells: tuple[Cell, ...], bound: int, contradiction: bool,
                 feasible_count: int, forced: dict, identities: tuple[LinearRelation, ...],
                 completions: tuple[tuple[int, ...], ...], truncated: bool, nodes: int,
                 _first: tuple[int, ...] | None = None, _diffs: tuple[tuple[int, ...], ...] = ()):
        object.__setattr__(self, "unknown_cells", unknown_cells)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "contradiction", contradiction)
        object.__setattr__(self, "feasible_count", feasible_count)
        object.__setattr__(self, "forced", forced)
        object.__setattr__(self, "identities", identities)
        object.__setattr__(self, "completions", completions)
        object.__setattr__(self, "truncated", truncated)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_first", _first)
        object.__setattr__(self, "_diffs", _diffs)

    def implies(self, coeffs: Mapping[Cell, int], const: int = 0) -> bool:
        """Whether the relation, of int coefficients and const, holds on every completion."""
        _int(const, "const")
        index = {c: i for i, c in enumerate(self.unknown_cells)}
        vec = [0] * len(self.unknown_cells)
        for cell, coeff in coeffs.items():
            if cell not in index:
                raise InputError(f"cell {cell} was not unknown in this deduction")
            vec[index[cell]] = _int(coeff, f"coefficient of cell {cell}")
        if self.contradiction:
            return True
        if sum(a * b for a, b in zip(vec, self._first)) + const != 0:
            return False
        return all(
            sum(a * b for a, b in zip(vec, diff)) == 0 for diff in self._diffs
        )

    def notes(self) -> list[str]:
        out = []
        if self.contradiction:
            out.append("contradiction: no completion satisfies the constraints")
            return out
        out.append(f"feasible completions: {self.feasible_count}"
                   + (" (list truncated)" if self.truncated else ""))
        for cell in sorted(self.forced):
            out.append(f"forced: ({cell[0]},{cell[1]}) = {self.forced[cell]}")
        for rel in self.identities:
            out.append(f"identity: {rel.render()}")
        return out


# DeductionResult.completions keeps at most this many completions, and at
# most _VALUE_CAP values in all: so tables with up to 10 unknowns keep 20,000
_COMPLETION_CAP = 20000
_VALUE_CAP = 200000


def _free_unknowns(graph: _FlowGraph, edges: Sequence[int]) -> tuple[int, ...]:
    """Indices of the unknowns whose values the earlier ones leave free.

    edges are the unknowns' edges, in order, in a graph whose floors are
    met, so an edge has room when its flow may still move.  Unknown i is
    free when its edge lies on an undirected cycle of edges with room once
    the edges of unknowns 0..i-1 are removed.  Any two circulations differ
    by a circulation on the edges with room, and a bridge carries none: so
    an unknown that is not free takes the one value the earlier ones leave
    it.  The test is structural, so it may call free an unknown that the
    earlier ones do fix: the search then enters one node for its one value,
    and loses no completion.  Union-find over the other edges with room,
    then over the unknowns' edges from the last to the first, decides every
    unknown in one pass.
    """
    head, cap = graph.head, graph.cap
    parent = list(range(len(graph.adj)))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    unknown = set(edges)
    for e in range(0, len(head), 2):
        if cap[e] + cap[e ^ 1] and e not in unknown:
            parent[root(head[e])] = root(head[e ^ 1])
    free = []
    for i in reversed(range(len(edges))):
        e = edges[i]
        if cap[e] + cap[e ^ 1]:
            a, b = root(head[e]), root(head[e ^ 1])
            if a == b:
                free.append(i)
            parent[a] = b
    return tuple(reversed(free))


def _lambda_root(entries, unknowns: tuple[Cell, ...], bound: int):
    """The root of the completion search, or None when no completion exists.

    entries hold the known values, with None at the unknowns, and already
    pass validate_lambda; every unknown ranges over 0..bound, and (d,d) over
    1..bound.  Returns (graph, edges, floors, free): one circulation of
    _lambda_graph that meets its floors, the unknowns' edges and floors, in
    order, and the indices of the free unknowns (_free_unknowns).
    """
    upper = [[bound if v is None else v for v in row] for row in entries]
    graph, edge, floors, _ = _lambda_graph(entries, upper)
    if not _raise_floors(graph, graph.node("hub"), floors):
        return None  # a contradiction
    edges = [edge[c] for c in unknowns]
    floor = dict(floors)
    return graph, edges, [floor.get(e, 0) for e in edges], _free_unknowns(graph, edges)


def _lambda_completions(graph: _FlowGraph, edges, floors, free, bound: int, tick):
    """Yield the unknowns' values of every convergent completion, in lexicographic order.

    Takes a root from _lambda_root and the bound.  The search walks only the
    free unknowns, in order, keeping one circulation that is feasible for
    the current node, and reads every other unknown off it at each leaf as
    the flow on its edge plus its floor.  A free unknown's floor is 0: only
    (d,d) has one, and the last unknown is never free, since the unknowns'
    edges are the hub's only edges with room.  Two completions that agree
    up to an unknown that is not free agree there too, so the leaves come
    in lexicographic order of all the unknowns.  tick is called once per
    node below the root.  No augmenting path passes through a cell fixed
    at 0, since no flow can (see _FlowGraph).
    """
    cap, hub = graph.cap, graph.node("hub")
    values = [0] * len(edges)
    walk = [(i, edges[i]) for i in free]
    walked = set(free)
    read = [(i, e ^ 1, f) for i, (e, f) in enumerate(zip(edges, floors)) if i not in walked]
    n, k = len(walk), 0
    while True:
        while k < n:  # descend, fixing each free unknown at its least feasible value
            i, e = walk[k]
            x = cap[e ^ 1]
            cap[e] = cap[e ^ 1] = 0
            values[i] = x - _shift(graph, hub, e, -x)
            tick()
            k += 1
        for i, r, f in read:
            values[i] = cap[r] + f
        yield tuple(values)
        while True:  # the next value of the deepest free unknown that has one
            k -= 1
            if k < 0:
                return
            i, e = walk[k]
            x = values[i]
            if x < bound and _shift(graph, hub, e, 1):
                values[i] = x + 1
                tick()
                k += 1
                break
            cap[e], cap[e ^ 1] = bound - x, x


def deduce_lambda(table: InvariantTable, bound: int | None = None, *,
                  search_limit: int | None = None) -> DeductionResult:
    """Find all valid, convergent completions of a partially known table.

    Unknown cells first inherit the structural zeros (below the diagonal, and
    the (0,d)/(1,d) corner for d >= 2); the remaining unknowns range over
    0..bound.  Reports cells that take the same value in every feasible
    completion (structurally zeroed cells included) and a basis of integer
    linear relations satisfied by all of them.  Both come from one sparse
    echelon basis of the differences (completion - first): an unknown is
    forced when no basis row touches it, and the relations are the integer
    nullspace of the rows.
    """
    if table.kind != KIND_LYUBEZNIK:
        raise InputError("table deduce only applies to lyubeznik tables")
    b = _int(DEFAULT_BOUND if bound is None else bound, "bound", 0)
    d = table.d
    structural = {}
    for p, q in table.unknown_cells():
        if p > q or (d >= 2 and q == d and p in (0, 1)):
            structural[(p, q)] = 0
    base = table.with_entries(structural)
    unknowns = base.unknown_cells()
    counter = _Counter(_search_limit(search_limit))
    counter.tick()  # the root

    first: tuple[int, ...] | None = None
    echelon: dict = {}  # a sparse echelon basis of the completions less first
    completions: list[tuple[int, ...]] = []
    cap = min(_COMPLETION_CAP, _VALUE_CAP // max(len(unknowns), 1))
    count = 0
    # if the known entries alone violate the structure, no completion exists
    root = None if validate_lambda(base) else _lambda_root(base.entries, unknowns, b)
    if root is not None:
        # the free unknowns fix the rest: the differences span at most len(free) dimensions
        rank = len(root[-1])
        for vec in _lambda_completions(*root, b, counter.tick):
            count += 1
            if first is None:
                first = vec
            elif len(echelon) < rank:
                _extend_sparse_echelon(
                    echelon, {i: v - f for i, (v, f) in enumerate(zip(vec, first)) if v != f})
            if count <= cap:
                completions.append(vec)

    # an unknown varies iff some difference, so some basis row, is nonzero there
    diffs = list(echelon.values())
    varying = set().union(*diffs)
    forced: dict[Cell, int] = {}
    identities: list[LinearRelation] = []
    if count > 0:
        forced = dict(sorted({**structural, **{
            cell: v for i, (cell, v) in enumerate(zip(unknowns, first)) if i not in varying
        }}.items()))
    cols = sorted(varying)
    for ints in _nullspace_int([[row.get(i, 0) for i in cols] for row in diffs], len(cols)):
        ints = _primitive(ints)
        const = -sum(coeff * first[i] for i, coeff in zip(cols, ints))
        coeffs = tuple(
            (unknowns[i], coeff) for i, coeff in zip(cols, ints) if coeff
        )
        identities.append(LinearRelation(coeffs, const))
    identities.sort(key=lambda r: r.coeffs)

    return DeductionResult(
        unknown_cells=unknowns,
        bound=b,
        contradiction=count == 0,
        feasible_count=count,
        forced=forced,
        identities=tuple(identities),
        completions=tuple(completions),
        truncated=count > cap,
        nodes=counter.nodes,
        _first=first,
        _diffs=tuple(tuple(row.get(i, 0) for i in range(len(unknowns))) for row in diffs),
    )


def canonical_small_tables(dim_y: int, a: int = 1) -> InvariantTable:
    """Closed-form Lyubeznik tables in dimension 0, 1, 2.

    In dimension 2, a is the number of connected components of the punctured
    spectrum: the table has a-1 in cell (0,1) and a in cell (2,2).
    """
    _int(a, "a", 1)
    if not _is_int(dim_y) or not 0 <= dim_y <= 2:
        raise InputError("closed-form tables exist only for dimension 0, 1 or 2")
    if dim_y == 0:
        return InvariantTable(KIND_LYUBEZNIK, [[1]])
    if dim_y == 1:
        return InvariantTable(KIND_LYUBEZNIK, [[0, 0], [0, 1]])
    return InvariantTable(KIND_LYUBEZNIK, [[0, a - 1, 0], [0, 0, 0], [0, 0, a]])
