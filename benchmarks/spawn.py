"""Run one command and write its wall time and resource usage as JSON.

    python3 benchmarks/spawn.py OUT.json CMD [ARG...]

On Linux a process's peak RSS (`ru_maxrss`) counts the RSS of the process
it was forked from, as it was when the command was executed.  The
benchmark process holds about as much memory as the program it measures,
so it starts each command through this small process, which forks,
executes the command and waits for it with `os.wait4`.  CPU time and
peak RSS then cover the command and the descendants it waited for (pool
workers), and nothing of the benchmark.  The command's standard output
is discarded; this process exits with the command's exit status.
"""

import json
import os
import sys
import time


def main() -> int:
    out, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }, fh)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
