"""Process launcher for the benchmark, started before it imports anything large.

Linux keeps a process's peak RSS across exec, so a child forked from the
benchmark would report the benchmark's own memory as its ``ru_maxrss``.
Children forked from this small process report their own.  It reads one
JSON request per line on stdin, ``{"cmd", "env", "cwd", "stderr"}``, runs
the command to completion and answers with one JSON line
``{"wall_s", "returncode", "maxrss_bytes"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 120.0


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["cmd"], env=req["env"], cwd=req["cwd"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode, "maxrss_bytes": usage.ru_maxrss * 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
