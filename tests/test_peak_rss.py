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
