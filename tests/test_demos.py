"""Every demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest
from _helpers import checkout_env

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_zoo_tour.py",
    "02_lu_inequality.py",
    "03_verification_reports.py",
    "04_curvature_oracles.py",
])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=checkout_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
