"""Make the benchmark's modules importable as top-level modules, the way
``run.py`` and ``worker.py`` import each other."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
