"""Run one ``graphtest`` CLI invocation in this fresh interpreter.

Usage: python3 cli_child.py <graphtest argv...>

The first statement after ``time`` imports ``graphtest.cli``; the parent
measures set-up time from the moment it spawned this interpreter to
``ready``, the CLOCK_MONOTONIC time at which the import finished.  Then
``graphtest.cli.main(argv)`` runs, and one JSON line reports its wall time,
the CPU time of this process and of every child it reaped during the call
(the simulate worker pool), and the largest resident set among them.
"""

import time

import graphtest.cli

_READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    code = graphtest.cli.main(argv)
    end = time.monotonic()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "ready": _READY,
        "exit": code,
        "main_s": end - start,
        "cpu_s": (_cpu_s(self_after) - _cpu_s(self_before)
                  + _cpu_s(children_after) - _cpu_s(children_before)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
