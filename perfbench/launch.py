"""Run one program and record its wall time, CPU time, peak RSS and exit code.

Usage: python -I -S perfbench/launch.py RESULT_FILE PROGRAM [ARGS...]

On Linux a process's ru_maxrss includes the peak RSS of the process that
spawned it, since the spawner's memory is counted until exec.  The benchmark
process holds tens of MB (expected outputs, oracle tables), which would read
as the peak RSS of every small command.  So commands are spawned through this
launcher, a bare interpreter whose own peak is below that of any dycklat
process.  stdin, stdout and stderr pass straight through; the timing runs
from spawn to exit, and the reader of stdout drains it meanwhile.
"""

import os
import sys
import time


def main() -> None:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    with open(result_path, "w", encoding="utf-8") as handle:
        handle.write(f"{wall!r} {cpu!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")


if __name__ == "__main__":
    main()
