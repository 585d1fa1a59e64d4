"""Run one dehnsom CLI request and print its own peak RSS and wall time.

    python3 -S tools/peak_rss.py verify all --json --gen "boolean_lattice(6)"

Every argument goes to ``python3 -m dehnsom.cli``, run on the src/ next to
this file with its stdout discarded and without the caller's ``PYTHON*``
variables, so it writes and reads bytecode as a bench child does. The last
line printed is JSON: ``{"exit": ..., "peak_rss_mib": ..., "wall_s": ...}``;
the exit status is the request's. ``subprocess`` starts children with vfork, and Linux carries
the parent's RSS high-water mark across exec, so a child's ``ru_maxrss``
never reads below its parent's peak. This launcher forks and execs instead,
so the floor is this small process's own RSS. Standard library only.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list) -> int:
    # as bench/run.py does: no PYTHON* setting of the caller steers the child
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: no Python-level cleanup, whatever happens
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execve(sys.executable, [sys.executable, "-m", "dehnsom.cli", *argv], env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": code, "peak_rss_mib": round(usage.ru_maxrss / 1024, 2),
                      "wall_s": round(wall, 4)}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
