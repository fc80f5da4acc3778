"""The comparison core of scripts/parity.py on two copies of `src`.

Identical copies must give no difference on the benchmark's probe jobs, and
a copy with one table cell flipped in its JSON output at least one.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)


def test_compare_reports_only_an_injected_change(tmp_path):
    trees = []
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        trees.append(tmp_path / name / "src")
    work = tmp_path / "inputs"
    work.mkdir()
    sys_path = list(parity.sys.path)
    try:
        argvs = parity.write_cases(work, parity.workload_jobs(seeds=()))
    finally:
        parity.sys.path[:] = sys_path
    assert {argv[0] for argv in argvs} == {"arrangement", "fan", "table"}

    codes, differ, first = parity.compare(*trees, argvs, work)
    assert sum(sum(c.values()) for c in codes.values()) == len(argvs)
    assert not differ and first is None

    fileio = trees[1] / "invar" / "fileio.py"
    text = fileio.read_text(encoding="utf-8")
    rows = "for row in table.entries])"
    assert text.count(rows) == 1
    fileio.write_text(text.replace(
        rows, "for row in ((1, *table.entries[0][1:]), *table.entries[1:])])"
    ), encoding="utf-8")
    codes, differ, first = parity.compare(*trees, argvs, work)
    assert sum(differ.values()) >= 1
    argv, theirs, ours = first
    assert argv[-2:] == ["--format", "json"] and theirs != ours
