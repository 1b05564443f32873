"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_quotient_fingerprints_matches_frozen_table():
    out = run_script("scripts/quotient_fingerprints.py")
    assert out.returncode == 0, out.stderr
    assert "matches frozen table" in out.stdout


def test_family_sweep_runs():
    out = run_script("scripts/family_sweep.py", "--max-degree", "2")
    assert out.returncode == 0, out.stderr
    assert "3 degree pairs" in out.stdout
