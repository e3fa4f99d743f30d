"""Launcher for the tilecast benchmark.

    python3 perfbench/run.py --workload default-5v --seed 20240811 \
        --seconds 35 --trace 0

Pins BLAS to one thread before numpy is imported, puts the checkout's
src/ on the import path and hands over to bench.main. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

RUN_PY = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(RUN_PY))
SRC = os.path.join(ROOT, "src")
# time the checkout's own sources, never an installed copy
if not os.path.isfile(os.path.join(SRC, "tilecast", "__init__.py")):
    sys.exit(f"no tilecast sources under {SRC}")
sys.path.insert(0, SRC)

import bench  # noqa: E402  (after the thread pinning above)

if __name__ == "__main__":
    sys.exit(bench.main(sys.argv[1:], ROOT, RUN_PY))
