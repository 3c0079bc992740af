"""perfbench: the end-to-end and per-layer benchmark of the SSD-Insider model.

One workload runs per process (``perfbench/run.py``); ``python -m perfbench``
runs every workload one at a time and compares sets of runs.  The package
benchmarks the source tree it sits in: importing it puts the sibling
``src/`` directory first on ``sys.path`` and fails when that tree is absent,
so a copy of the benchmark without the program never reports a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout the benchmark belongs to (parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: The program under test, imported from source.
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"perfbench benchmarks the source tree beside it, and {SRC} holds "
        f"no 'repro' package"
    )
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
