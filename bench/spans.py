"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer's public functions, as module and class
attributes of the imported `invar` package, with wrappers that record a span
(name, start, end, parent) per call and a few exact counts taken from the
arguments and results.  Spans live in flat arrays in memory and are written
out once, when the pass ends.  `uninstall` restores every attribute.

A span's self time is its duration minus the durations of its direct
children; a layer's self time in a job is the sum over its spans.  Across
traced passes, `layer_metrics` scales each job's time to the reference speed
and takes it at its median, as the end-to-end `wall_s` does, and sums over
jobs.  Functions that are not wrapped (private helpers, `euler_sum`,
`support_function_space_dim`) count towards the self time of their wrapped
caller.
"""

from __future__ import annotations

import sys
from array import array
from statistics import median
from time import perf_counter

PACKAGE = "invar"
LAYERS = ("cli", "fileio", "qlinalg", "posets", "arrangements", "tables", "fans")

# (module, attribute path, span name)
TARGETS = [
    ("cli", "main", "cli.main"),
    ("fileio", "load_json", "fileio.load_json"),
    ("fileio", "parse_arrangement", "fileio.parse_arrangement"),
    ("fileio", "parse_fan", "fileio.parse_fan"),
    ("fileio", "parse_table", "fileio.parse_table"),
    ("fileio", "dumps_table", "fileio.dumps_table"),
    ("fileio", "dumps_doc", "fileio.dumps_doc"),
    ("qlinalg", "QMatrix.__init__", "qlinalg.QMatrix.__init__"),
    ("qlinalg", "QMatrix.rref", "qlinalg.QMatrix.rref"),
    ("qlinalg", "QMatrix.rank", "qlinalg.QMatrix.rank"),
    ("qlinalg", "QMatrix.nullspace_basis", "qlinalg.QMatrix.nullspace_basis"),
    ("posets", "FinitePoset.__init__", "posets.FinitePoset"),
    ("posets", "order_complex", "posets.order_complex"),
    ("posets", "boundary_matrix", "posets.boundary_matrix"),
    ("posets", "reduced_betti", "posets.reduced_betti"),
    ("arrangements", "build_lattice", "arrangements.build_lattice"),
    ("arrangements", "cdr_table", "arrangements.cdr_table"),
    ("arrangements", "complement_betti", "arrangements.complement_betti"),
    ("arrangements", "moebius_betti_oracle", "arrangements.moebius_betti_oracle"),
    ("tables", "deduce_lambda", "tables.deduce_lambda"),
    ("tables", "validate_lambda", "tables.validate_lambda"),
    ("tables", "check_convergence_lambda", "tables.check_convergence_lambda"),
    ("tables", "check_cdr", "tables.check_cdr"),
    ("fans", "validate_fan", "fans.validate_fan"),
    ("fans", "picard_data", "fans.picard_data"),
    ("fans", "picard_rank", "fans.picard_rank"),
    ("fans", "class_rank", "fans.class_rank"),
    ("fans", "is_projective", "fans.is_projective"),
    ("fans", "fm_feasible", "fans.fm_feasible"),
    ("fans", "toric_lyubeznik", "fans.toric_lyubeznik"),
]

# exact counts read off results: span name -> {count name: fn(result)}
RESULT_COUNTS = {
    "arrangements.build_lattice": {
        "flats": lambda r: len(r.flats),
        "order_pairs": lambda r: len(r.poset.less),
    },
    "posets.order_complex": {"simplices": lambda r: len(r.simplices)},
    "posets.boundary_matrix": {"entries": lambda r: r.nrows * r.ncols},
    "tables.deduce_lambda": {
        "nodes": lambda r: r.nodes,
        "feasible_count": lambda r: r.feasible_count,
    },
}

# the per-layer metrics a traced run reports, in output order; each names a
# span (or a layer) and a statistic of it
PER_LAYER = (
    [f"{layer}.self_s" for layer in LAYERS]
    + [
        "cli.main.self_s",
        "fileio.load_json.self_s",
        "fileio.parse_arrangement.self_s",
        "fileio.parse_fan.self_s",
        "fileio.parse_table.self_s",
        "fileio.dumps_table.self_s",
        "fileio.dumps_doc.self_s",
        "arrangements.build_lattice.self_s",
        "arrangements.build_lattice.flats",
        "arrangements.build_lattice.order_pairs",
        "posets.FinitePoset.self_s",
        "qlinalg.QMatrix.rref.self_s",
        "arrangements.cdr_table.self_s",
        "posets.order_complex.self_s",
        "posets.order_complex.simplices",
        "posets.boundary_matrix.self_s",
        "posets.boundary_matrix.entries",
        "posets.reduced_betti.self_s",
        "qlinalg.QMatrix.__init__.self_s",
        "qlinalg.QMatrix.rank.self_s",
        "qlinalg.QMatrix.rank.calls",
        "tables.deduce_lambda.self_s",
        "tables.deduce_lambda.nodes",
        "tables.deduce_lambda.feasible_count",
        "tables.deduce_lambda.feasible_ratio",
        "tables.validate_lambda.calls",
        "tables.check_convergence_lambda.self_s",
        "tables.check_convergence_lambda.calls",
        "qlinalg.QMatrix.nullspace_basis.under_tables.self_s",
        "tables.check_cdr.self_s",
        "fans.validate_fan.self_s",
        "fans.picard_rank.self_s",
        "qlinalg.QMatrix.nullspace_basis.under_fans.self_s",
        "fans.is_projective.self_s",
        "fans.fm_feasible.self_s",
        "fans.fm_feasible.calls",
        "fans.fm_feasible.inequalities",
        "trace.spans",
    ]
)


_UNDER_DEDUCE = "tables.check_convergence_lambda.calls_under_deduce"


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder for one pass; install before the jobs, uninstall after.

    `start_job` and `end_job` bracket each job; `job_stats` then holds one
    summary per job, so that a job's times can be compared across passes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.job_stats: list[dict] = []
        self._job_first = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, path, span in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(span, original)
            self._patch(owner, attr, wrapper)
            if owner is module:
                # names imported elsewhere with `from .x import f` are
                # separate bindings of the same function
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original and other is not module:
                            self._patch(other, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        name_id = len(self.names)
        self.names.append(span)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack = self._stack
        counts = self.counts
        result_counts = RESULT_COUNTS.get(span, {})
        count_inequalities = span == "fans.fm_feasible"

        def wrapper(*args, **kwargs):
            if count_inequalities:
                args = (list(args[0]),) + args[1:]
                key = "fans.fm_feasible.inequalities"
                counts[key] = counts.get(key, 0) + len(args[0])
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            for count, get in result_counts.items():
                key = f"{span}.{count}"
                counts[key] = counts.get(key, 0) + get(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -----------------------------------------------------------

    def start_job(self):
        self._job_first = len(self.span_name)
        self.counts.clear()

    def end_job(self):
        """Summarise the spans of the job that just ended into `job_stats`."""
        self.job_stats.append(self._summary(self._job_first, len(self.span_name)))

    def _summary(self, first: int, stop: int) -> dict:
        """Self times, call counts and exact counts of spans first..stop-1,
        keyed as in PER_LAYER; a key that would be 0 is absent."""
        child = {}
        for i in range(first, stop):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + self.span_end[i] - self.span_start[i]
        out: dict[str, float] = dict(self.counts)
        out["trace.spans"] = stop - first

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i in range(first, stop):
            name = self.names[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child.get(i, 0.0)
            parent = self.span_parent[i]
            caller = self.names[self.span_name[parent]] if parent >= 0 else ""
            if name == "qlinalg.QMatrix.nullspace_basis" and caller:
                add(f"{name}.under_{caller.split('.')[0]}.self_s", own)
            if name == "tables.check_convergence_lambda" and caller == "tables.deduce_lambda":
                add(_UNDER_DEDUCE, 1)
            add(f"{name.split('.')[0]}.self_s", own)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
        return out

    def write(self, path):
        """Write every span as `name,start_s,end_s,parent_index` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]}\n")


def layer_metrics(passes: list[list[dict]], scales: list[list[float]]) -> dict:
    """The PER_LAYER metrics from the per-job stats of one or more traced
    passes over the same job list.

    A time is scaled by its job's factor in `scales` (one list per pass, see
    speed.py), taken at its median over the passes and summed over the jobs.
    Counts are exact, the same in every pass, and taken from the first.
    """
    out = {}
    for name in PER_LAYER:
        if metric_unit(name) == "s":
            out[name] = sum(median(p[j].get(name, 0.0) * f[j] for p, f in zip(passes, scales))
                            for j in range(len(passes[0])))
        elif name != "tables.deduce_lambda.feasible_ratio":
            out[name] = sum(job.get(name, 0) for job in passes[0])
    checks = sum(job.get(_UNDER_DEDUCE, 0) for job in passes[0])
    feasible = out["tables.deduce_lambda.feasible_count"]
    out["tables.deduce_lambda.feasible_ratio"] = feasible / checks if checks else 0.0
    return {name: out[name] for name in PER_LAYER}
