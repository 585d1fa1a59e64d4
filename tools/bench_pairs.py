"""Paired benchmark runs of two checkouts, summarised as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload order-complex --workload catalog --seeds 1001-1010 \\
        --seconds 20 --claim order-complex:wall_s --name "what changed" \\
        --out BENCH_name.json

For every workload and seed it runs ``bench/run.py --workload W --seed S
--seconds N --trace 0`` once in each checkout, alternating which side goes
first (the parent on the first, third, ... seed), so drift on the host falls
on both sides alike. Each run's last stdout line is its JSON result. The
record holds, per workload and end-to-end metric of the change's
BENCHMARK.json, the per-seed values of both sides, their median with the
first and third quartiles, the number of pairs the change won, and
whether the change's median stays within the metric's ``bound``; with
``--claim`` it adds the claimed metric's medians, the parent's IQR and the
relative move. Both checkouts must resolve to absolute paths of equal
length: the child's peak RSS moves with the length of its directory name, so
unequal paths exit 2 before any run. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> list[float]:
    """[median, q1, q3], with q1 and q3 by the exclusive method of
    ``statistics.quantiles``; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [med, q1, q3]


def better_pairs(parent, change, better: str) -> int:
    """How many pairs the change won outright; ties count for neither side."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def within_bound(parent, change, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by at most
    ``bound``, a share of the parent's median (the regression check of a
    metric's ``bound`` in BENCHMARK.json)."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if better == "lower":
        return c_med <= p_med * (1 + bound)
    return c_med >= p_med * (1 - bound)


def summarize(parent, change, unit: str, better: str, bound: float | None = None,
              digits: int = 4) -> dict:
    """One metric's record from the per-seed values of both sides; with a
    ``bound``, also whether the change stays within it."""
    record = {
        "unit": unit,
        "parent": [round(v, digits) for v in parent],
        "change": [round(v, digits) for v in change],
        "parent_median_q1_q3": [round(v, digits) for v in quartiles(parent)],
        "change_median_q1_q3": [round(v, digits) for v in quartiles(change)],
        "change_better_pairs": better_pairs(parent, change, better),
    }
    if bound is not None:
        record["bound"] = bound
        record["within_bound"] = within_bound(parent, change, better, bound)
    return record


def claim(record: dict, workload: str, metric: str, better: str) -> dict:
    """The claimed metric's medians, the parent's IQR, the pairs won and the
    move of the median as a percentage of the parent's."""
    m = record["workloads"][workload]["metrics"][metric]
    p_med, p_q1, p_q3 = m["parent_median_q1_q3"]
    c_med = m["change_median_q1_q3"][0]
    move = (c_med - p_med) / p_med * 100
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": round(p_q3 - p_q1, 4),
        "better_pairs": f"{m['change_better_pairs']}/{len(m['parent'])}",
        ("drop" if better == "lower" else "rise"): f"{abs(move):.1f} %",
        "gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
    }


def parse_seeds(tokens) -> list[int]:
    """Seeds from tokens like ``7`` or ``1001-1010`` (inclusive)."""
    seeds = []
    for tok in tokens:
        lo, dash, hi = tok.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if dash else [int(lo)]
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its last stdout line as JSON."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if not result.get("metrics"):
        raise SystemExit(f"bench_pairs: no metrics from {checkout} {workload} seed {seed}: "
                         f"exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds, e.g. 1001-1010 or 3 5 7")
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--name", default="", help="one line saying what the change is")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"bench_pairs: --parent {parent} and --change {change} differ in path length, "
              "which moves the child's peak RSS; use paths of equal length", file=sys.stderr)
        return 2

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    record = {
        "change": args.name,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "cpu": _cpu_model(),
                    "note": "wall_s, cpu_s and setup_s scaled by bench/calibrate.py"},
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "protocol": f"{len(seeds)} pairs per workload on seeds {' '.join(args.seeds)}, one "
                    "run per side on each seed, the parent first on every other seed",
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_bench(checkout, workload, seed, args.seconds))
                got = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: wall_s {got}", file=sys.stderr)
        record["workloads"][workload] = {
            "seeds": seeds,
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                                [r["metrics"][name]["value"] for r in runs["change"]],
                                m["unit"], m["better"], m.get("bound"))
                for name, m in metrics.items()
            },
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim(record, workload, metric, metrics[metric]["better"])
    args.out.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
