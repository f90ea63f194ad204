"""Every example script must run to completion (deliverable b is live)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES_DIR = os.path.join(ROOT, "examples")


def example_files():
    return sorted(
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    )


@pytest.mark.parametrize("script", example_files())
def test_example_runs(script, tmp_path):
    # Run in a scratch directory so files an example writes (e.g.
    # figure_data.csv) never land in the checkout; the package is found
    # through an absolute path since the working directory moves.
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    assert proc.stdout.strip(), f"{script} produced no output"


def test_at_least_three_examples():
    assert len(example_files()) >= 3
