"""Smoke test of the seeded experiment in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import fixpres

SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_shift_ratio_survey_runs():
    """The identity map has ratio 1 for every (P, A) pair it draws."""
    env = dict(os.environ, PYTHONPATH=str(Path(fixpres.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "shift_ratio_survey.py"), "--pairs", "2", "--per-p", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    identity = [line for line in result.stdout.splitlines() if line.startswith("identity")]
    assert len(identity) == 1
    assert "ratio exists    4/4" in identity[0]
