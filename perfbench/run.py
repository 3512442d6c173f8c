#!/usr/bin/env python3
"""refleq benchmark entry point.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload linear --seed 1 --seconds 15 --trace 0

Workloads: linear, monotone, shooting, cli-readme.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A full record of each run (environment, every op, tail
percentile, op-kind shares) goes to perfbench/results/.

Compare two directories of run records, e.g. parent and change:

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Re-record the cli-readme reference outputs (perfbench/cli_reference.json)
from the checkout's own library, only when its outputs are meant to change:

    python3 perfbench/run.py --write-cli-reference

BLAS and OpenMP threads are pinned to 1 for the run and its children.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if "--compare" not in sys.argv and not (SRC / "refleq" / "__init__.py").is_file():
        sys.stderr.write(f"refleq sources not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
