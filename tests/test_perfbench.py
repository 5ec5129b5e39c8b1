"""The benchmark harness still runs against the package.

``perfbench/`` patches and reads package names (the tracer wraps public
functions by name, the workloads call estimators and read result fields), so
removing or renaming one of them fails here instead of in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
