"""Pin the BLAS thread count of every test process to 1, as
benchmarks/run.py does for its runs.

OpenBLAS (and an OpenMP or MKL build) reads its thread count once, when
numpy loads it, so the pin has to be in the environment before the first
``import numpy``. pytest imports this file before any test module. If numpy
is already loaded here, something imported it earlier and the pin would do
nothing, so collection stops with an error instead.

One thread keeps the wall-clock budgets of the acceptance tests independent
of what else runs on the machine, and float results independent of nproc.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before the root conftest.py could pin the BLAS threads; "
        "run the suite with pytest from the repository root, and import nothing that loads numpy first"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
