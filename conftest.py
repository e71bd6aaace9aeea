"""Pytest set-up shared by ``tests/`` and ``benchmarks/``.

Pins one BLAS thread before numpy is first imported: several tests and
benchmarks gate on wall-clock ratios, and a multi-threaded BLAS makes
small GEMVs slow and noisy on small hosts (with the variables unset,
``benchmarks/perf``'s compiled-replay headline failed 3 of 8 runs on a
2-vCPU host). An explicit setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
