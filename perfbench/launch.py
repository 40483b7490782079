"""Run one command; write its wall time and resource use to a JSON file.

Usage: python3 launch.py RESULT.json COMMAND [ARG ...]

Linux charges an exec'd child's peak RSS with the RSS of the process it
was forked from.  The benchmark process holds the whole input graph, so it
starts each solve through this small process, whose own footprint stays
below that of any solve.  The wall time runs from fork to exit.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, command = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump({"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                   "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                   "maxrss_kib": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
