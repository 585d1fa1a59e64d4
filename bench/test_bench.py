"""Smoke test of the benchmark, so that it cannot rot: python -m pytest bench/"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import calibrate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(ROOT, workload, 0))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics_repeat(workload):
    first = result_of(bench(ROOT, workload, 1))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in first.items()}
    second = result_of(bench(ROOT, workload, 1, seed=2))["metrics"]
    counts = {name for name, m in first.items() if m["unit"] in ("count", "bytes")}
    if workload != "deep-poset":  # its inputs change with the seed
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_times_scale_with_the_calibration_around_them():
    calibrations = run.Calibrations(runner=None)
    calibrations.at, calibrations.took = [10.0, 20.0], [0.5, 1.0]
    assert calibrations.scaled(15.0, 1.5) == pytest.approx(1.5 * run.CAL_REF_S / 0.75)
    assert calibrations.scaled(5.0, 1.0) == pytest.approx(run.CAL_REF_S / 0.5)
    assert calibrations.scaled(25.0, 1.0) == pytest.approx(run.CAL_REF_S / 1.0)


def test_samples_during_a_change_of_host_speed_are_left_out():
    calibrations = run.Calibrations(runner=None)
    calibrations.at = [0.0, 10.0, 20.0, 30.0, 40.0]
    calibrations.took = [x * run.CAL_REF_S for x in (1.0, 1.0, 2.0, 2.0, 2.0)]
    samples = [(5.0, 1.0), (15.0, 1.5), (25.0, 2.0), (35.0, 2.0)]
    assert calibrations.scale(samples) == pytest.approx([1.0, 1.0, 1.0])
    assert calibrations.scale(samples[:3]) == pytest.approx([1.0, 1.0, 1.0])  # too few steady


def test_calibration_output_is_fixed():
    assert calibrate.main() == calibrate.CHECKSUM


def test_deep_poset_inputs_follow_the_seed():
    def inputs(seed):
        meta = bench(ROOT, "deep-poset", 0, seed).stdout.splitlines()[0]
        return [i["sha256"] for i in json.loads(meta.lstrip("# "))["inputs"]]

    assert inputs(3) == inputs(3) != inputs(4)


def test_gate_rejects_changed_output(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    reference = tmp_path / "bench" / "reference" / "order-complex-smoke.json"
    reference.write_bytes(reference.read_bytes() + b" ")
    proc = bench(tmp_path, "order-complex", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "catalog", 0)
    assert proc.returncode != 0 and proc.stdout == ""
