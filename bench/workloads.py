"""Seeded job lists for the three benchmark workloads.

A job is one `invar` command line run on one generated input file.  Every
input is derived from the workload seed alone, so the same seed always gives
byte-identical files.  This module is plain Python: it never imports `invar`,
so input generation cannot lean on the code it measures.

Each job carries an `expect` record that the oracles in `oracles.py` check the
command's exit code and JSON output against.  Closed-form answers (Kuenneth
binomials, Whitney numbers, Picard ranks of the base fans, deduction counts
of fixed shapes) are stored here; answers that need the input (Euler
characteristics, witness replays, certificates) are derived at check time.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb, gcd

WORKLOADS = ("arrangements", "engine", "fans")

# ---------------------------------------------------------------------------
# shared helpers


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{part}")


def _job(job_id, cmd, doc, expect, extra=()):
    return {
        "id": job_id,
        "cmd": list(cmd),
        "input": f"{job_id}.json",
        "doc": doc,
        "extra": list(extra),
        "expect": expect,
    }


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _apply(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


# ---------------------------------------------------------------------------
# arrangements


def _elementary(values):
    """Coefficients of prod(1 + v t)."""
    coeffs = [1]
    for v in values:
        coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _central_hyperplane_expect(n: int, whitney: list[int]):
    """Expected outputs of a central hyperplane arrangement from its Betti numbers.

    whitney[k] is the unreduced Betti number b_k of the complement.  Every
    flat of codimension k has an interval of rank k with homology in degree
    k - 2, so the whole Cech-de Rham table sits in column n - 1 with
    rho[n - k][n - 1] = b_k.
    """
    betti = [0] + list(whitney[1:]) + [0] * (2 * n - len(whitney))
    column = [0] * n
    for k in range(1, len(whitney)):
        if n - k >= 0 and whitney[k]:
            column[n - k] = whitney[k]
    table = [[0] * n for _ in range(n)]
    for p in range(n):
        table[p][n - 1] = column[p]
    return betti[: 2 * n], table


def _hyperplane_doc(rng: random.Random, n: int, normals):
    """A central hyperplane arrangement after a seeded signed permutation,
    shuffled component order and random row scaling."""
    m = _signed_permutation(rng, n)
    rows = []
    for normal in normals:
        # normals transform by the inverse transpose; for a signed
        # permutation that is the matrix itself
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append([scale * x for x in _apply(m, list(normal))] + [0])
    rng.shuffle(rows)
    return {
        "ambient_dim": n,
        "subspaces": [{"name": f"H{i}", "equations": [row]} for i, row in enumerate(rows)],
    }


# fixed for every seed, because the lattice's cost grows with the size of
# the coefficients; the seed moves the coordinates only
_GENERIC_POINTS = [(-2, -1, 1, 2, 3), (-3, -1, 1, 2, 4), (-3, -2, 1, 2, 3), (-4, -2, -1, 1, 3)]


def _structured_arrangements(seed: int):
    rng = _rng("arrangements", seed, "structured")
    cases = []
    for n in (4, 5):
        normals = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        cases.append((f"boolean{n}", n, normals, [comb(n, k) for k in range(n + 1)]))
    for n in (4, 5):
        normals = [
            [1 if k == i else (-1 if k == j else 0) for k in range(n)]
            for i, j in combinations(range(n), 2)
        ]
        cases.append((f"braid{n}", n, normals, _elementary(range(1, n))))
    n = 4
    for index, ts in enumerate(_GENERIC_POINTS):
        # points on the moment curve: every n of them are independent, so the
        # arrangement is generic with b_k = C(m, k) for k < n and
        # b_n = C(m - 1, n - 1)
        m = len(ts)
        normals = [[t ** k for k in range(n)] for t in ts]
        whitney = [comb(m, k) for k in range(n)] + [comb(m - 1, n - 1)]
        cases.append((f"generic{n}x{m}-{index}", n, normals, whitney))

    return [job for case in cases for job in _hyperplane_jobs(rng, *case)]


def _hyperplane_jobs(rng: random.Random, name: str, n: int, normals, whitney):
    betti, table = _central_hyperplane_expect(n, whitney)
    jobs = []
    for cmd in ("betti", "cdr"):
        doc = _hyperplane_doc(rng, n, normals)
        if cmd == "betti":
            expect = {"kind": "betti", "ambient_dim": n, "betti": betti}
        else:
            expect = {"kind": "cdr_table", "entries": table,
                      "notes": [f"ambient dimension: {n}", f"components: {len(normals)}"]}
        jobs.append(_job(f"{name}-{cmd}", ("arrangement", cmd), doc, expect))
    return jobs


def _random_subspace_rows(rng: random.Random, n: int, codim: int, central: bool):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(codim)]
        if int_rank(rows) == codim:
            break
    if central:
        return [row + [0] for row in rows]
    point = [rng.randint(-2, 2) for _ in range(n)]
    return [row + [-sum(a * b for a, b in zip(row, point))] for row in rows]


def int_rank(rows) -> int:
    """Rank of a small integer matrix by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c]
                work[i] = [a * p[c] - f * b for a, b in zip(work[i], p)]
        rank += 1
    return rank


def _moved_arrangement(rng: random.Random, n: int, subspaces):
    """The same arrangement after a seeded signed permutation of coordinates
    and row scaling: a different file with the same invariants."""
    m = _signed_permutation(rng, n)
    moved = []
    for s in subspaces:
        rows = []
        for row in s["equations"]:
            scale = rng.choice((-2, -1, 1, 2))
            rows.append([scale * x for x in _apply(m, row[:-1]) + [row[-1]]])
        moved.append({"name": s["name"], "equations": rows})
    return {"ambient_dim": n, "subspaces": moved}


def _mixed_arrangements(seed: int):
    """48 random arrangements, stratified so every seed has the same mix:
    ambient dimension 3..5, central or affine, 2..5 components, two each;
    component i has codimension 1 + i mod (n - 1)."""
    rng = _rng("arrangements", seed, "mixed")
    jobs = []
    index = 0
    for n in (3, 4, 5):
        for central in (True, False):
            for m in (2, 3, 4, 5):
                for _ in range(2):
                    # the codimensions are fixed per stratum too, so a seed
                    # changes only coefficients and points
                    subspaces = [
                        {"name": f"S{i}",
                         "equations": _random_subspace_rows(rng, n, 1 + i % (n - 1), central)}
                        for i in range(m)
                    ]
                    pair = f"mixed{index:02d}"
                    docs = {"betti": {"ambient_dim": n, "subspaces": subspaces},
                            "cdr": _moved_arrangement(rng, n, subspaces)}
                    for cmd, doc in docs.items():
                        jobs.append(_job(f"{pair}-{cmd}", ("arrangement", cmd), doc,
                                         {"kind": f"mixed_{cmd}", "pair": pair}))
                    index += 1
    return jobs


def arrangement_jobs(seed: int):
    return _structured_arrangements(seed) + _mixed_arrangements(seed)


# ---------------------------------------------------------------------------
# engine

_DIM3_SHAPE = [[0, 0, None, 0], [0, 0, None, 0], [0, 0, 0, None], [0, 0, 0, None]]
_DIM4_SHAPE = [
    [0, 0, None, None, None, 0],
    [0, 0, 0, 0, None, 0],
    [0, 0, 0, 0, 0, None],
    [0, 0, 0, 0, 0, None],
    [0, 0, 0, 0, 0, None],
    [0, 0, 0, 0, 0, None],
]
# The same shapes with known diagonal entries at (1,1) and (2,2), which no
# differential can ever reach: two or more socle copies survive to the limit
# page, so every completion is infeasible, and the engine has to enumerate
# all of them to say so.


def _dim3_contra(a: int, b: int):
    return [[0, 0, None, 0], [0, a, None, 0], [0, 0, b, None], [0, 0, 0, None]]


_DIM4_CONTRA = [
    [0, 0, None, None, None, 0],
    [0, 1, 0, 0, None, 0],
    [0, 0, 1, 0, 0, None],
    [0, 0, 0, 0, 0, None],
    [0, 0, 0, 0, 0, None],
    [0, 0, 0, 0, 0, None],
]
# acceptance criterion 6: identities every completion satisfies, written as
# ({cell: coeff}, const) for sum(coeff * entry) + const = 0
_DIM3_IDENTITIES = [({(2, 3): 1, (0, 2): -1}, 0), ({(3, 3): 1, (1, 2): -1}, -1)]
_DIM4_IDENTITIES = [({(0, 4): 1, (2, 5): -1}, 0), ({(1, 4): 1, (3, 5): -1, (0, 3): 1}, 0)]
# feasible-completion counts recorded at the commit that introduced the
# benchmark; the shapes do not depend on the seed
_DEDUCTIONS = [
    ("dim3", _DIM3_SHAPE, _DIM3_IDENTITIES, {8: 72, 10: 110, 12: 156}),
    ("dim4", _DIM4_SHAPE, _DIM4_IDENTITIES, {3: 160, 4: 375}),
]
# (name, shape, bound).  The eight dim-3 variants enumerate the same
# completions at about the same cost, so the 11th slowest job of the
# workload, which sets job_tail_ms, is the middle of a cluster of similar
# jobs instead of one job whose own noise would be the metric's.
_CONTRADICTIONS = [("dim4contra", _DIM4_CONTRA, 3)] + [
    (f"dim3contra{a}{b}", _dim3_contra(a, b), 10)
    for a, b in ((1, 1), (2, 0), (0, 2), (1, 2), (2, 1), (3, 0), (0, 3), (2, 2))
]


def _identity_spec(identities):
    return [[sorted([list(c), a] for c, a in coeffs.items()), const]
            for coeffs, const in identities]


def _lambda_arrows(d: int):
    """All Lyubeznik differentials (p,q) -> (p+r, q+r-1), r >= 2, that stay in
    the upper triangle and avoid the cells (0,d), (1,d) that must vanish."""
    banned = {(0, d), (1, d)} if d >= 2 else set()
    out = []
    for p, q in product(range(d + 1), repeat=2):
        if q < p + 1 or (p, q) in banned:
            continue
        for r in range(2, d + 2):
            t = (p + r, q + r - 1)
            if t[0] <= d and t[1] <= d and t not in banned:
                out.append(((p, q), t))
    return out


def _feasible_lambda(rng: random.Random, d: int):
    """A complete Lyubeznik table that converges by construction: one socle
    copy at (d,d) plus a few arrows, each adding its weight to both ends."""
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    rows[d][d] = 1
    arrows = _lambda_arrows(d)
    for _ in range(rng.randint(1, 2 + d)):
        (sp, sq), (tp, tq) = rng.choice(arrows)
        w = rng.randint(1, 2)
        rows[sp][sq] += w
        rows[tp][tq] += w
    return rows


def _partners(cell, d: int):
    """Cells a differential on any page can join to this one."""
    p, q = cell
    out = []
    for r in range(2, d + 2):
        for a, b in ((p + r, q + r - 1), (p - r, q - r + 1)):
            if 0 <= a <= b <= d:
                out.append((a, b))
    return out


def frozen_certificate(entries) -> str | None:
    """Why no completion of a Lyubeznik table can converge, or None.

    A known nonzero cell whose partners are all known zeros can never
    change.  No completion converges when such a frozen cell off the
    diagonal is nonzero, or when frozen diagonal cells already hold two or
    more socle copies.  Unknown cells are None.
    """
    d = len(entries) - 1
    frozen = 0
    for p, q in product(range(d + 1), repeat=2):
        v = entries[p][q]
        if v and all(entries[a][b] == 0 for a, b in _partners((p, q), d)):
            if p != q:
                return f"frozen off-diagonal entry at ({p},{q})"
            frozen += v
    return f"{frozen} frozen socle copies on the diagonal" if frozen >= 2 else None


def lambda_certificate(rows) -> str | None:
    """Why a complete Lyubeznik table cannot converge, or None: its
    alternating sum is not 1, or it has a frozen-cell certificate."""
    euler = _euler(rows)
    if euler != 1:
        return f"alternating sum {euler} != 1"
    return frozen_certificate(rows)


def _infeasible_lambda(rng: random.Random, d: int, euler_one: bool):
    """A table that passes the structural checks but carries a certificate of
    infeasibility; with euler_one its alternating sum is 1, so the engine
    cannot stop at the Euler test and has to search."""
    cells = [(p, q) for p, q in product(range(d + 1), repeat=2)
             if p <= q and (p, q) not in {(0, d), (1, d)}]
    while True:
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        rows[d][d] = 1
        for _ in range(rng.randint(1, 3)):
            p, q = rng.choice(cells)
            rows[p][q] += rng.randint(1, 2)
        if lambda_certificate(rows) and (_euler(rows) == 1) == euler_one:
            return rows


def _euler(rows) -> int:
    n = len(rows)
    return sum((-1) ** (p + q) * rows[p][q] for p, q in product(range(n), repeat=2))


def _cdr_arrows(d: int):
    out = []
    for p, q in product(range(d + 1), repeat=2):
        if q < p:
            continue
        for r in range(2, d + 2):
            t = (p - r, q + r - 1)
            if 0 <= t[0] and t[1] <= d:
                out.append(((p, q), t))
    return out


def antidiagonal_sums(rows, n: int) -> list[int]:
    sums = [0] * (2 * n)
    d = len(rows) - 1
    for p, q in product(range(d + 1), repeat=2):
        sums[2 * n - p - q - 1] += rows[p][q]
    return sums


def _cdr_case(rng: random.Random, feasible: bool):
    d = rng.randint(1, 3)
    n = d + rng.randint(1, 2)
    limit = [[0] * (d + 1) for _ in range(d + 1)]
    for _ in range(rng.randint(1, 4)):
        p = rng.randint(0, d)
        q = rng.randint(p, d)
        limit[p][q] += rng.randint(1, 3)
    betti = antidiagonal_sums(limit, n)
    rows = [list(r) for r in limit]
    arrows = _cdr_arrows(d)
    if arrows:
        for _ in range(rng.randint(0, 2)):
            (sp, sq), (tp, tq) = rng.choice(arrows)
            rows[sp][sq] += 1
            rows[tp][tq] += 1
    if not feasible:
        # ask for one more class in degree k than the table can ever hold
        # there (entries only decrease), and one more in degree k +- 2 so
        # the alternating sum still matches and the search has to run
        k = rng.choice([k for k, v in enumerate(betti) if v])
        betti[k] += 1
        betti[k + 2 if k + 2 < 2 * n else k - 2] += 1
    return d, n, rows, betti


def engine_jobs(seed: int):
    jobs = []
    for name, shape, identities, counts in _DEDUCTIONS:
        for bound, count in counts.items():
            doc = {"kind": "lyubeznik", "dim": len(shape) - 1, "entries": shape}
            expect = {"kind": "deduce", "feasible": count,
                      "identities": _identity_spec(identities)}
            jobs.append(_job(f"deduce-{name}-b{bound}", ("table", "deduce"), doc, expect,
                             extra=("--bound", str(bound))))
    for name, shape, bound in _CONTRADICTIONS:
        doc = {"kind": "lyubeznik", "dim": len(shape) - 1, "entries": shape}
        jobs.append(_job(f"deduce-{name}-b{bound}", ("table", "deduce"), doc,
                         {"kind": "contradiction"}, extra=("--bound", str(bound))))

    rng = _rng("engine", seed, "lambda")
    for i in range(60):
        d = 2 + i % 4
        feasible = i % 3 != 2
        if feasible:
            rows = _feasible_lambda(rng, d)
        else:
            rows = _infeasible_lambda(rng, d, euler_one=i % 2 == 0)
        doc = {"kind": "lyubeznik", "dim": d, "entries": rows}
        kind = "lambda_feasible" if feasible else "lambda_infeasible"
        jobs.append(_job(f"lambda{i:02d}", ("table", "check"), doc, {"kind": kind}))

    rng = _rng("engine", seed, "cdr")
    for i in range(40):
        feasible = i % 10 < 7
        d, n, rows, betti = _cdr_case(rng, feasible)
        doc = {"kind": "cdr", "dim": d, "entries": rows, "ambient_dim": n, "betti": betti}
        kind = "cdr_feasible" if feasible else "cdr_infeasible"
        jobs.append(_job(f"cdr{i:02d}", ("table", "check"), doc, {"kind": kind}))
    return jobs


# ---------------------------------------------------------------------------
# fans


def _primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return [x // g for x in v]


def _p3():
    return [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def _cube():
    rays = [list(s) for s in product((-1, 1), repeat=3)]
    cones = [[i for i, r in enumerate(rays) if r[axis] == val]
             for axis in range(3) for val in (-1, 1)]
    return rays, cones


def _octants():
    rays = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    cones = [[0 if sx > 0 else 1, 2 if sy > 0 else 3, 4 if sz > 0 else 5]
             for sx, sy, sz in product((1, -1), repeat=3)]
    return rays, cones


def _subdivided_cube(k: int):
    """Face fan over the unit squares of the boundary of [-k, k]^3."""
    points = [p for p in product(range(-k, k + 1), repeat=3) if max(map(abs, p)) == k]
    index = {p: i for i, p in enumerate(points)}
    cones = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for side in (-k, k):
            for i, j in product(range(-k, k), repeat=2):
                cone = []
                for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    p = [0, 0, 0]
                    p[axis] = side
                    p[others[0]] = i + di
                    p[others[1]] = j + dj
                    cone.append(index[tuple(p)])
                cones.append(cone)
    return [_primitive(list(p)) for p in points], cones


def _star_subdivision(rng: random.Random, steps: int):
    """Octant fan with `steps` seeded stellar subdivisions of simplicial cones;
    it stays complete, simplicial and projective, so its Picard rank is
    #rays - 3."""
    rays, cones = _octants()
    done = 0
    while done < steps:
        k = rng.randrange(len(cones))
        cone = cones[k]
        weights = [rng.randint(1, 2) for _ in range(3)]
        new = _primitive([sum(w * rays[i][t] for w, i in zip(weights, cone)) for t in range(3)])
        if new in rays:
            continue
        rays.append(new)
        j = len(rays) - 1
        cones = cones[:k] + cones[k + 1:] + [
            [cone[t] for t in range(3) if t != drop] + [j] for drop in range(3)
        ]
        done += 1
    return rays, cones


def _unimodular(rng: random.Random, shears: bool):
    """A seeded matrix of determinant +-1: a signed permutation, optionally
    followed by one +-1 shear (which keeps ray entries small, so the cost
    of a job varies little with the seed)."""
    m = _signed_permutation(rng, 3)
    if shears:
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def fan_jobs(seed: int):
    rng = _rng("fans", seed, "fans")
    bases = [("p3", *_p3(), 1, True), ("cube", *_cube(), 1, True),
             ("octants", *_octants(), 3, True), ("subcube1", *_subdivided_cube(1), 4, False)]
    for i in range(16):
        rays, cones = _star_subdivision(rng, 3)
        bases.append((f"star{i:02d}", rays, cones, len(rays) - 3, True))
    jobs = []
    seen = set()

    def moved(rays, shears):
        # every job gets its own coordinates, so no job can reuse a result
        # that an earlier job in the same process cached for an equal fan
        while True:
            m = _unimodular(rng, shears)
            out = [_apply(m, r) for r in rays]
            key = tuple(map(tuple, out))
            if key not in seen and out != rays:
                seen.add(key)
                return out

    for name, rays, cones, picard, shears in bases:
        for cmd in ("validate", "picard", "lyubeznik"):
            jobs.append(_fan_job(name, cmd, moved(rays, shears), cones, picard))
    rays, cones = _subdivided_cube(2)
    jobs.append(_fan_job("subcube2", "validate", moved(rays, False), cones, None))
    return jobs


def _fan_job(name: str, cmd: str, rays, cones, picard):
    if cmd == "validate":
        expect = {"kind": "fan_validate", "rays": len(rays), "max_cones": len(cones),
                  "walls": sum(len(c) for c in cones) // 2}
    else:
        expect = {"kind": f"fan_{cmd}", "picard": picard, "class_rank": len(rays) - 3}
    return _job(f"{name}-{cmd}", ("fan", cmd), {"rays": rays, "max_cones": cones}, expect)


def probe_jobs():
    """One small job per command group, fixed for every seed.

    Every traced pass ends with these, outside the timed job loop, so that
    each layer has spans in every traced run: a layer the workload never
    calls would otherwise report a self time of exactly 0.
    """
    rng = _rng("probe", 0, "probe")
    jobs = _hyperplane_jobs(rng, "probe-boolean3", 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [1, 3, 3, 1])
    jobs.append(_job("probe-deduce-dim3-b2", ("table", "deduce"),
                     {"kind": "lyubeznik", "dim": 3, "entries": _DIM3_SHAPE},
                     {"kind": "deduce", "feasible": 6, "identities": _identity_spec(
                         _DIM3_IDENTITIES)}, extra=("--bound", "2")))
    jobs.append(_job("probe-lambda", ("table", "check"),
                     {"kind": "lyubeznik", "dim": 3, "entries": _feasible_lambda(rng, 3)},
                     {"kind": "lambda_feasible"}))
    jobs.append(_job("probe-cdr", ("table", "check"),
                     {"kind": "cdr", "dim": 2, "entries": [[0, 0, 1], [0, 0, 3], [0, 0, 3]],
                      "ambient_dim": 3, "betti": [0, 3, 3, 1]},
                     {"kind": "cdr_feasible"}))
    rays, cones = _p3()
    # two coordinate systems, so the second job cannot hit the first one's cache
    jobs.append(_fan_job("probe-p3", "validate", rays, cones, 1))
    jobs.append(_fan_job("probe-p3", "picard", [[-x for x in r] for r in rays], cones, 1))
    return jobs


def build(workload: str, seed: int):
    if workload == "arrangements":
        return arrangement_jobs(seed)
    if workload == "engine":
        return engine_jobs(seed)
    if workload == "fans":
        return fan_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
