"""Script entry point: ``python3 benchmarks/e2e/run.py [options]``.

The same command as ``python -m benchmarks.e2e``, runnable from the
repository root without setting ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Replace this script's own directory with the repository root, so the
# package imports as ``benchmarks.e2e`` and nothing here shadows a module.
sys.path[0] = str(ROOT)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
