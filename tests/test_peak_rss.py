"""tools/peak_rss.py runs one CLI request and reports that child's own peak."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def test_help_request_reports_a_positive_peak():
    proc = subprocess.run([sys.executable, "-S", str(TOOL), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["exit"] == 0
    assert got["peak_rss_mib"] > 0 and got["wall_s"] > 0


def test_runs_alternate_against_a_tree_and_give_medians():
    root = str(TOOL.parents[1])
    proc = subprocess.run([sys.executable, "-S", str(TOOL), "--runs", "2", "--against", root,
                           "--help"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *runs, summary = map(json.loads, proc.stdout.strip().splitlines())
    assert [r["tree"] for r in runs] == [root] * 4 and all(r["exit"] == 0 for r in runs)
    assert summary["runs"] == 2
    peaks = sorted(r["peak_rss_mib"] for r in runs)
    assert summary["median"][root]["peak_rss_mib"] >= peaks[0] > 0


def test_trees_of_unequal_path_length_are_refused():
    proc = subprocess.run([sys.executable, "-S", str(TOOL), "--against", "/", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "differ in path length" in proc.stderr
