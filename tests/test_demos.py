"""The README says every demo runs standalone; run the quick ones."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


@pytest.mark.parametrize(
    "script",
    [
        "01_kernels_and_hsic.py",
        "02_var_bootstrap_test.py",
        "04_competing_tests.py",
        "05_lagscan.py",
        "06_size_power_study.py",
    ],
)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
