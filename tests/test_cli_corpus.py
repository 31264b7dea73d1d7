"""Replay of the recorded CLI corpus: exit codes and stdout stay byte-identical.

Every job of ``bench/corpus/jobs.json`` runs through ``graphpick.cli.main``
in process, from the repository root, as the benchmark's ``cli-small``
workload runs it in a subprocess.
"""

import hashlib
import json
from pathlib import Path

import pytest

from graphpick.cli import main

ROOT = Path(__file__).resolve().parent.parent
JOBS = json.loads((ROOT / "bench" / "corpus" / "jobs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", JOBS, ids=[job["name"] for job in JOBS])
def test_corpus_job(job, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(job["argv"]))
    out, err = capsys.readouterr()
    assert code == job["exit"]
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == job["stdout_sha256"]
