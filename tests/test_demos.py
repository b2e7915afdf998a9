"""The short demos run to completion against this checkout's package.

Each demo runs in a fresh interpreter, from an empty working directory, with
``src`` first on the import path.  The longer demos (``budget_sweep``,
``adaptivity_scaling``) are left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["quickstart.py", "objectives_tour.py"])
def test_demo_runs(demo, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
