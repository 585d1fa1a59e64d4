"""Run one dehnsom CLI request and print its own peak RSS and wall time.

    python3 -S tools/peak_rss.py verify all --json --gen "boolean_lattice(6)"
    python3 -S tools/peak_rss.py --runs 3 --against ../parent \\
        verify all --json --gen "boolean_lattice(8)"

Every argument after the options goes to ``python3 -m dehnsom.cli``, run on
the src/ of a checkout (the one this file is in) with its stdout discarded
and without the caller's ``PYTHON*`` variables, so it writes and reads
bytecode as a bench child does. Each run prints one JSON line:
``{"tree": ..., "exit": ..., "peak_rss_mib": ..., "wall_s": ...}``. With
``--runs N`` the request runs N times, and a last JSON line gives each
tree's median peak and wall time. With ``--against DIR`` every run is made
once in each tree, alternating which goes first (this tree on the first,
third, ... run), so drift on the host falls on both alike. The child's peak
RSS moves with the length of its checkout's path, so trees whose absolute
paths differ in length exit 2 before any run. The exit status is the first
nonzero exit of a request, else 0.

``subprocess`` starts children with vfork, and Linux carries the parent's
RSS high-water mark across exec, so a child's ``ru_maxrss`` never reads
below its parent's peak. This launcher forks and execs instead, so the floor
is this small process's own RSS. Standard library only.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USAGE = "usage: peak_rss.py [--runs N] [--against DIR] CLI-ARGUMENT ..."


def run_once(root: str, argv: list) -> dict:
    """One request on ``root``'s src/, measured from fork to exit."""
    # as bench/run.py does: no PYTHON* setting of the caller steers the child
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
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
    return {"tree": root, "exit": os.waitstatus_to_exitcode(status),
            "peak_rss_mib": round(usage.ru_maxrss / 1024, 2), "wall_s": round(wall, 4)}


def _median(values: list) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def main(argv: list) -> int:
    runs, trees = 1, [ROOT]
    while argv[:1] in (["--runs"], ["--against"]) and len(argv) > 1:
        option, value, argv = argv[0], argv[1], argv[2:]
        if option == "--runs":
            runs = int(value)
        else:
            trees.append(os.path.abspath(value))
    if runs < 1 or not argv:
        print(USAGE, file=sys.stderr)
        return 2
    if len({len(tree) for tree in trees}) > 1:
        print(f"peak_rss: {trees[0]} and {trees[1]} differ in path length, which moves "
              "the child's peak RSS; use paths of equal length", file=sys.stderr)
        return 2
    results = {tree: [] for tree in trees}
    code = 0
    for i in range(runs):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            result = run_once(tree, argv)
            results[tree].append(result)
            code = code or result["exit"]
            print(json.dumps(result), flush=True)
    if runs > 1:
        print(json.dumps({"runs": runs, "median": {
            tree: {key: _median([r[key] for r in rs]) for key in ("peak_rss_mib", "wall_s")}
            for tree, rs in results.items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
