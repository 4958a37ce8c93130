"""Run one command and report its wall time, peak RSS and exit code.

    python3 perfbench/launch.py TIMEOUT LOG -- COMMAND...

Prints one JSON object: {"wall_s", "maxrss_kib", "code"}. The command's
stderr goes to LOG; it is killed after TIMEOUT seconds.

run.py starts the workload's processes through this small process rather
than directly: on Linux a process's ru_maxrss starts from the peak RSS of
the process that spawned it, and run.py's own peak (it holds the reference
data) would otherwise stand in for a child's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, log, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
