"""Starts the benchmark's timed processes from a small process of its own.

A child's peak RSS, as ``wait4`` reports it, is at least the peak RSS of the
process that started it, because the child begins as a copy of that process.
The benchmark holds and parses outputs of several MB, so it starts no timed
process itself: it sends each request to this launcher, which keeps its own
memory small and constant, and gets back the wall time from spawn to exit,
the CPU time, the peak RSS and the exit code.

Requests and replies are JSON lines on stdin and stdout.  A request names
the program's argument list, its environment and the files that take its
stdout and stderr; the launcher kills a process that outlives ``timeout_s``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0],
            request["argv"],
            request["env"],
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, request["timeout_s"])
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # kilobytes on Linux
        "code": os.waitstatus_to_exitcode(status),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
