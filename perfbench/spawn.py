"""Process launcher for benchmark ops; run as ``python -S -I spawn.py``.

Linux charges a child's ``ru_maxrss`` with the memory of the process it was
spawned from, so children started straight from the benchmark driver would
all report the driver's size.  This small helper starts each op instead and
reports, one line per request on stdout, the op's wall time from spawn to
exit, its user and system CPU seconds, its max RSS in KiB and its exit code.

A request is one line of tab-separated fields: the stdout path, the stderr
path, then the argv of the child.  Children get this helper's environment
and read stdin from ``/dev/null``.  The helper exits at end of input.
"""
import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    env = dict(os.environ)
    for line in sys.stdin:
        out_path, err_path, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, WRITE, 0o644),
        ]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter_ns() - start
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(f"{wall}\t{usage.ru_utime}\t{usage.ru_stime}\t{usage.ru_maxrss}\t{code}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
