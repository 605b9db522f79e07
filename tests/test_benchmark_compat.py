"""The benchmark harness still runs against this tree.

``perfbench/run.py --self-test`` traces a short workload through the
harness's wrappers, among them a replacement ``numerics.conv2d`` with the
signature ``conv2d(x, kernel, bias=None, stride=1, padding=0)``; a
change to an interface the harness wraps fails here.  It writes only
under the repo's ``.perfbench_runs/``.
"""
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].startswith("self-test passed"), proc.stdout
