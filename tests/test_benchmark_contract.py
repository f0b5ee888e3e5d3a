"""The benchmark harness's self-test, run against this tree.

`perfbench/selftest.py` checks the harness's span arithmetic, the scaled
preset and the names its tracer patches, `from ... import` bindings
included.  A refactor that drops one of those bindings fails here.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed, attempted = proc.stdout.split()[0].split("/")
    assert passed == attempted != "0", proc.stdout
