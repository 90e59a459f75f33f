"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: it holds every BLAS pool to one thread
and puts this checkout's ``src/`` first on ``sys.path``, so the pcmrank
under test is always the one built from the checkout's sources.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # side output: raw timings, spans, matrix files

if not (SRC / "pcmrank" / "__init__.py").is_file():
    sys.exit(f"error: no pcmrank sources under {SRC}; run from a pcmrank checkout")
sys.path.insert(0, str(SRC))
