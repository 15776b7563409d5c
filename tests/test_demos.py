"""The quick demos run to completion against the current package API.

The table and strategy demos take far longer to run, so only their
imports and definitions are checked here; their ``main`` is left to be
run by hand.
"""

import os
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["canonical_and_cache.py", "solve_positions.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", ["reproduce_tables.py", "verify_strategies.py"])
def test_slow_demo_imports(demo):
    # any run name but "__main__" loads the module without calling main()
    ns = runpy.run_path(os.path.join(ROOT, "demos", demo), run_name="demo_import_check")
    assert callable(ns["main"])
