"""Entry point of the lwec consensus benchmark.

    python3 perfbench/run.py --workload lwea-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; lwec is imported from its `src/`.
BLAS is pinned to one thread before numpy loads, in this process and in every
`python -m lwec` child: on a shared 2-core machine a second BLAS thread
competes with neighbours, and the same product then took anywhere from 0.11
to 0.18 s from one process to the next, against 0.18 s steady on one thread.
The benchmark, its launcher and every child are pinned to one CPU, so that
each op runs where the reference work it is divided by (reference.py) runs: on
a shared host each virtual CPU has its own busy neighbours, and with children
free to land on the other CPU, the CLI twin over the reference spread 0.21
between five seeds of sweep, against 0.09 pinned. The child launcher
(launcher.py) starts here, before numpy is imported.
"""

import os
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    launcher = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launcher.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        from bench import main

        code = main(sys.argv[1:], launcher)
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=60)
    sys.exit(code)
