"""Long-lived, stdlib-only process that starts the fresh-process CLI calls.

Linux carries a parent's peak resident memory into a child across fork and
exec, so a child's ``ru_maxrss`` is at least the peak of the process that
spawned it.  The runner holds numpy and parsed CSVs; this process stays near
10 MB, below any child that imports numpy, so the children start from here.

Reads one JSON request per line on stdin, ``{"argv": [...], "log": path}``,
runs it to completion and answers one JSON line with the exit code, wall
seconds, user + sys CPU seconds and peak RSS in KiB (``os.wait4``).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def serve() -> None:
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    serve()
