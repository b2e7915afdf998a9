"""The benchmark's checkers accept this checkout's solves.

``perfbench/selftest.py`` compares the program's objectives with formula
references computed apart from the program, checks a real solve, and checks
that a traced solve repeats the untraced one.  It runs in a fresh
interpreter (about a second) and must exit 0, so a change the benchmark
would report as incorrect fails here first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes(tmp_path):
    # no bytecode caches: the run leaves the benchmark directory as it found it
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
