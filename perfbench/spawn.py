"""Starts the benchmark's children on behalf of run.py, one at a time.

Linux counts the peak RSS of the process a child was created from in the
child's own ``ru_maxrss``.  run.py grows while it checks large outputs, so
its children would report at least its peak; this helper stays small, and a
child forked from it reports its own peak.

Protocol: one JSON request per stdin line,
``{"argv", "stdout", "stderr", "timeout", "limit_as"}``; the child's output
goes to the two named files.  One JSON reply per request on stdout,
``{"wall", "cpu", "rss_mb", "code", "timed_out"}``.  Exits at end of input.
"""

import json
import os
import resource
import select
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fds = [os.open(os.devnull, os.O_RDONLY), os.open(req["stdout"], flags, 0o644),
           os.open(req["stderr"], flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            if req["limit_as"]:
                resource.setrlimit(resource.RLIMIT_AS, (req["limit_as"], req["limit_as"]))
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.execv(req["argv"][0], req["argv"])
        finally:
            os._exit(127)
    for fd in fds:
        os.close(fd)
    pidfd = os.pidfd_open(pid)
    ready = []
    try:
        ready = select.select([pidfd], [], [], req["timeout"])[0]
    finally:  # on a timeout or an interrupt, kill the child; always reap it
        os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    return {
        "wall": time.perf_counter() - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": not ready,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
