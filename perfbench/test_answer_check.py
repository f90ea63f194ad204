"""A wrong pinned count must fail the run; the pinned counts must pass it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(expected_path: str, workload: str = "cold-build") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0",
         "--expected", expected_path],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pinned_counts_pass():
    proc = _run(os.path.join(HERE, "expected.json"))
    assert proc.returncode == 0, proc.stderr
    assert _last_json(proc)["correct"] is True


def test_wrong_pinned_count_fails_the_run():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    name = sorted(expected["cold-build"])[0]
    expected["cold-build"][name]["6"] += 1
    scratch = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(scratch, exist_ok=True)
    tampered = os.path.join(scratch, "tampered-expected.json")
    with open(tampered, "w") as fh:
        json.dump(expected, fh)

    proc = _run(tampered)
    assert proc.returncode == 1
    assert _last_json(proc)["correct"] is False
    assert "answer check failed" in proc.stderr and name in proc.stderr
