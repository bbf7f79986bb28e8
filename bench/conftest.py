"""Import paths for the benchmark's own tests: the package sources and the
benchmark modules, as bench/run.py sets them."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
