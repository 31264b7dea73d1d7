"""Run the committed mutation checks: every mutant must fail the tests it names.

Usage:
    python scripts/mutants.py

``scripts/mutants.json`` lists the mutants.  Each gives a file, a snippet
that must occur in it exactly once, the snippet's replacement and the test
node ids expected to fail; an equivalent mutant gives a reason instead of
tests and is not run, but its snippet is checked.  The script copies the
tree to a temporary directory, runs the named tests there once unmutated
(they must pass), and then applies one mutant at a time and runs only its
tests, with ``-x`` and a timeout of ``TIMEOUT`` seconds per pytest run.
A mutant is killed when its tests fail, or when they time out; it survives
when they pass; it is stale when its snippet does not occur exactly once,
and in error when pytest cannot run it (a syntax error, say).  Exits 1 on a
survivor, a stale snippet, an error or a failing unmutated run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().with_name("mutants.json")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
TIMEOUT = 300  # seconds per pytest run


def pytest(tree: Path, tests: list[str]) -> int | None:
    """pytest's exit code on ``tests`` in ``tree``; None on a timeout."""
    # no bytecode: a mutant of the same size, written within the same second,
    # would otherwise run from the unmutated file's cache
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    data = json.loads(DATA.read_text())
    mutants = data["mutants"]
    bad = 0
    for m in data["equivalent"]:
        if (ROOT / m["file"]).read_text().count(m["snippet"]) != 1:
            print(f"stale       {m['name']} (equivalent)")
            bad += 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        tests = sorted({t for m in mutants for t in m["tests"]})
        code = pytest(tree, tests)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code})")
            return 1
        for m in mutants:
            path = tree / m["file"]
            text = path.read_text()
            if text.count(m["snippet"]) != 1:
                print(f"stale       {m['name']}")
                bad += 1
                continue
            path.write_text(text.replace(m["snippet"], m["replacement"]))
            start = time.perf_counter()
            code = pytest(tree, m["tests"])
            path.write_text(text)
            seconds = time.perf_counter() - start
            # pytest exits 1 when a test fails; any other code means the
            # mutant did not run as a program (a collection error, say)
            status = {0: "SURVIVED", 1: "killed", None: "timeout"}.get(code, f"error {code}")
            print(f"{status:<11} {m['name']} ({seconds:.1f} s)")
            bad += status not in ("killed", "timeout")
    print(f"{len(mutants)} mutants, {len(data['equivalent'])} equivalent, {bad} at fault")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
