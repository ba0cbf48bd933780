"""The acceptance verdicts reach the terminal under pytest's default output
capture (the `announce` fixture in conftest.py)."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_verdict_line_survives_output_capture():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_acceptance.py"), "-k", "Criterion3"],
        cwd=TESTS.parent, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "ACCEPTANCE 3 anchor-count: PASS" in run.stdout
