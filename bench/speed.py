"""The machine's current speed, measured with a fixed reference computation.

The benchmark runs on shared machines.  On the 2-vCPU machine it was built
on, the speed switches between a fast state and one about 1.8 times slower,
and the share of time in each drifts over minutes, longer than a run, so no
amount of repetition inside one run removes it.  Every time the benchmark reports is therefore also
scaled to a fixed machine speed: it is multiplied by REFERENCE_MS over the
time the reference computation took next to it, on the same machine and in
the same phase.  The reference is plain Python of the kind invar runs:
exact rational elimination.  It never imports invar, so no change to the
program can change it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# the reference's time on a quiet 2-vCPU Xeon with Python 3.11; a scaled
# time reads as what the machine would have taken at that speed
REFERENCE_MS = 2.0


def _fixed_matrix(n: int = 8):
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n + 2):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(x % 11 - 5)
        rows.append(row)
    return rows


_MATRIX = _fixed_matrix()


def reference_work() -> int:
    """Rank of a fixed 8 x 10 integer matrix by exact Fraction elimination,
    the kind of work qlinalg does for arrangements and fans."""
    rows = [[Fraction(v) for v in r] for r in _MATRIX]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        inv = 1 / p[c]
        rows[rank] = p = [v * inv for v in p]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def reference_ms() -> float:
    """The reference's time now, in milliseconds: the median of three runs,
    so that a single interruption does not count."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_work()
        times.append((perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def job_scales(refs: list[float]) -> list[float]:
    """Scale factors for the jobs of a pass, from the reference's times taken
    before the first job and after each job: job j is scaled by the mean of
    the two times on either side of it."""
    return [2.0 * REFERENCE_MS / (a + b) for a, b in zip(refs, refs[1:])]
