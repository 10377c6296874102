"""Small long-lived process that starts the timed citeprof processes.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process
it was forked from, so timed processes are not started by the benchmark
runner, whose memory grows while it generates inputs and checks outputs.
This launcher stays small. It reads one JSON request per line on stdin,
``{"cmd": [...], "log": path, "timeout_s": s}``, runs the command to exit,
and answers with one JSON line: wall time from start to exit, and CPU
time and peak RSS from ``os.wait4`` on that child. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd: list, log: str, timeout_s: float) -> dict:
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "returncode": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
