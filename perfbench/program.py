"""Import ``submodknap`` from this checkout's ``src/`` and from nowhere else.

The benchmark measures the source tree it sits in, never an installed copy.
Without ``src/submodknap`` next to this directory the import fails with
exit status 1 and no result is printed.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(SRC))
try:
    import submodknap
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import submodknap from {SRC}: {exc}") from None
if SRC not in Path(submodknap.__file__).resolve().parents:
    raise SystemExit(f"perfbench: submodknap imported from {submodknap.__file__}, not {SRC}")
