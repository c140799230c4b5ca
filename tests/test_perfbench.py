"""The benchmark harness in perfbench/ runs the program's own commands; a
program change that breaks a workload must fail here, not only when the
benchmark is run."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_perfbench_selftest_passes():
    """Every workload, tiny, traced and untraced, with its output checks."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
