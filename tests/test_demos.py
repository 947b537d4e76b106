"""Each demo runs to completion as a script, with warnings as errors.
The demos write only to the git-ignored demo_output/ at the repository
root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordlab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(chordlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_average_pace_demo_finds_golden_split():
    assert "t* = 165.000 s" in run_demo("average_pace_split.py").stdout
