"""The short demos and the ``python -m submodknap`` entry point run to
completion against this checkout's package.

Each runs in a fresh interpreter, from an empty working directory, with
``src`` first on the import path.  The longer demos (``budget_sweep``,
``adaptivity_scaling``) are left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "command",
    [
        [str(ROOT / "demos" / "quickstart.py")],
        [str(ROOT / "demos" / "objectives_tour.py")],
        # the package's own entry point, __main__.py
        ["-m", "submodknap", "run", "--algorithm", "random_feasible", "--gen-n", "20",
         "--budget-fracs", "0.5"],
    ],
    ids=["quickstart.py", "objectives_tour.py", "python-m-submodknap"],
)
def test_demo_runs(command, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, *command],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
