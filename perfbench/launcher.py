"""Runs the benchmark's `python -m lwec` children on its behalf.

On Linux a child's ru_maxrss also covers the memory high-water mark of the
process it was forked from (exec carries it over), so a child forked from a
benchmark that has just run a 300 MB op reports at least 300 MB whatever it
used itself. run.py starts this launcher before numpy is imported, while the
benchmark is a few MB, and the launcher forks every child instead.

Protocol: one JSON job per stdin line ({"argv", "cwd", "env", "stderr",
"timeout"}); one JSON answer per stdout line ({"wall", "maxrss_kib", "code"})
with the wall seconds, the child's own peak RSS from os.wait4 and its exit
code. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(job: dict) -> dict:
    with open(job["stderr"], "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"], stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
