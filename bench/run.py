"""The dehnsom benchmark: fixed workloads through the real CLI, outputs checked.

    python3 bench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Workloads (bench/README.md says why each was chosen):

  catalog        dehnsom verify all --json                  (built-in suite)
  order-complex  dehnsom verify all --json --gen SPEC       (388-element poset)
  deep-poset     dehnsom verify all FILE --json, two files  (made from --seed)

With --trace 0 one client sends one CLI request at a time (a closed loop) for
--seconds, and the last stdout line gives the median of each end-to-end
metric over the passes made. The times are scaled to a host of fixed
speed by timing bench/calibrate.py between passes (bench/README.md says
why). With --trace 1 the requests run in-process under bench/tracer.py,
which times calls into each module, and the last line gives the per-layer
metrics instead. Every output is checked: exit code 0,
every report passing, and the stdout bytes equal to the reference recorded
in bench/reference/ (or, for a seed without one, equal across the run).
A run with any failed request prints its result and exits 1; a run that
cannot start (no src/ next to bench/) exits 2 and prints no result.

--smoke swaps in the smallest inputs; bench/test_bench.py runs it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

WORKLOADS = ("catalog", "order-complex", "deep-poset")
ORDER_COMPLEX_SPEC = {False: "face_poset(suspension(suspension(torus_7)),true)",
                      True: "face_poset(torus_7,true)"}
SETUP_PROBES = 15  # `dehnsom --help` runs per timed run, spread over the run
DEADLINE_S = 170  # a run is cut here, whatever --seconds says
CAL_REF_S = 0.5  # times are reported as if bench/calibrate.py took this long
STEADY = 0.15  # a sample counts if the calibrations around it differ by at most this share


class Timeout(Exception):
    pass


@dataclass
class Request:
    key: str  # names the reference: bench/reference/<key>.json or a digest table
    argv: list
    reference: str | None  # SHA-256 of the expected stdout; None for a new seed


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes


class Gate:
    """Counts failed requests: a non-zero exit, a failing report, or bytes
    that differ from the reference (or, without one, from the run's first)."""

    def __init__(self, requests: list[Request]):
        self.expected = {r.key: r.reference for r in requests}
        self.attempted = 0
        self.failed = 0
        self.problems = 0  # failed checks of the trace itself

    def check(self, request: Request, code: int, stdout: bytes):
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        if self.expected[request.key] is None and code == 0:
            self.expected[request.key] = digest
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif digest != self.expected[request.key]:
            problem = f"stdout sha256 {digest} != {self.expected[request.key]}"
        elif not all_reports_pass(stdout):
            problem = 'a report has "pass": false'
        if problem is not None:
            self.failed += 1
            saved = OUT / f"mismatch-{request.key}.out"
            saved.write_bytes(stdout)
            print(f"# FAILED {request.key}: {problem} (stdout saved to {saved.relative_to(ROOT)})")


def all_reports_pass(stdout: bytes) -> bool:
    try:
        reports = json.loads(stdout)
    except ValueError:
        return False
    return isinstance(reports, list) and bool(reports) and all(
        isinstance(r, dict) and r.get("pass") is True for r in reports)


def child_env(hashseed: int) -> dict:
    """The caller's environment minus anything that steers dehnsom or Python.

    DEHNSOM_THREADS would switch the link sweep to its thread pool; the
    interpreter runs the src/ next to this file with a pinned hash seed.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DEHNSOM_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


class Runner:
    """Spawns one child at a time and reaps it with its own resource usage."""

    def __init__(self, seed: int, began: float):
        # the hash seed of the k-th child of a run depends on --seed and k only
        self.hashseeds = random.Random(f"dehnsom-bench-{seed}")
        self.deadline = began + DEADLINE_S

    def spawn(self, args: list) -> Outcome:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout()
        env = child_env(self.hashseeds.randrange(1, 2**32))
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                    stdout=subprocess.PIPE, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            if code != 0:
                err.seek(0)
                sys.stdout.write("# stderr: " + err.read().decode(errors="replace")[-2000:])
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       code, stdout)

    def cli(self, argv: list) -> Outcome:
        return self.spawn(["-m", "dehnsom.cli", *argv])

    def calibrate(self) -> float:
        """Wall seconds of bench/calibrate.py, whose output is checked too."""
        got = self.spawn([str(BENCH / "calibrate.py")])
        if got.code != 0 or got.stdout.decode().strip() != calibrate.CHECKSUM:
            raise SystemExit(f"bench: calibrate.py exited {got.code} with {got.stdout!r}")
        return got.wall_s


def _on_alarm(signum, frame):
    raise Timeout()


# --- requests and their references -------------------------------------------

def read_reference(key: str) -> str | None:
    path = REFERENCE / f"{key}.json"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def deep_inputs(runner: Runner, seed: int, smoke: bool) -> tuple[list[Request], list[dict]]:
    """Make the poset files for --seed twice; both sets must be byte-identical."""
    made = []
    for attempt in ("deep-poset", "deep-poset-again"):
        target = OUT / attempt
        shutil.rmtree(target, ignore_errors=True)
        args = [str(BENCH / "inputs.py"), "--seed", str(seed), "--out", str(target)]
        got = runner.spawn(args + (["--smoke"] if smoke else []))
        if got.code != 0:
            raise SystemExit(f"bench: making deep-poset inputs failed (exit {got.code})")
        sizes = json.loads(got.stdout)
        made.append([(target / s["file"]).read_bytes() for s in sizes])
    if made[0] != made[1]:
        raise SystemExit(f"bench: seed {seed} gave different deep-poset files on two tries")
    shutil.rmtree(OUT / "deep-poset-again")

    recorded = {} if smoke else json.loads((REFERENCE / "deep-poset.json").read_text())
    known = recorded.get(str(seed))
    digests = [hashlib.sha256(b).hexdigest() for b in made[0]]
    if known is not None and known["inputs"] != digests:
        raise SystemExit(f"bench: deep-poset inputs of seed {seed} differ from the recorded ones")
    requests = []
    for k, s in enumerate(sizes):
        s["sha256"] = digests[k]
        path = (OUT / "deep-poset" / s["file"]).relative_to(ROOT)
        requests.append(Request(f"deep-poset-{k}", ["verify", "all", str(path), "--json"],
                                known["outputs"][k] if known else None))
    return requests, sizes


def make_requests(runner: Runner, workload: str, seed: int, smoke: bool):
    suffix = "-smoke" if smoke else ""
    if workload == "catalog":
        return [Request("catalog", ["verify", "all", "--json"], read_reference("catalog"))], []
    if workload == "order-complex":
        key = "order-complex" + suffix
        argv = ["verify", "all", "--json", "--gen", ORDER_COMPLEX_SPEC[smoke]]
        return [Request(key, argv, read_reference(key))], []
    return deep_inputs(runner, seed, smoke)


# --- measurement -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Calibrations:
    """Times of bench/calibrate.py, each at the middle of its run.

    The host's speed drifts by tens of percent over minutes, and the program
    and the calibration slow down together. A time t seconds long, measured
    around instant m, is reported as t * CAL_REF_S / c(m), where c(m) is the
    calibration time interpolated at m: seconds on a host where the
    calibration takes CAL_REF_S.

    The host tends to switch between a fast and a slow state every few
    seconds, and a sample during a switch is scaled wrongly. So only steady
    samples count, those whose calibrations on either side differ by at most
    STEADY, unless fewer than three are steady.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.at: list[float] = []
        self.took: list[float] = []

    def run(self):
        start = time.perf_counter()
        took = self.runner.calibrate()
        self.at.append(start + took / 2)
        self.took.append(took)

    def steady(self, middle: float) -> bool:
        k = bisect.bisect(self.at, middle)
        return 0 < k < len(self.at) and abs(self.took[k] / self.took[k - 1] - 1) <= STEADY

    def scale(self, samples: list) -> list:
        """Scaled (middle, seconds, ...) samples: the seconds of the steady ones."""
        steady = [x for x in samples if self.steady(x[0])]
        return [self.scaled(x[0], x[1]) for x in (steady if len(steady) >= 3 else samples)]

    def scaled(self, middle: float, seconds: float) -> float:
        k = bisect.bisect(self.at, middle)
        if k == 0 or k == len(self.at):
            took = self.took[min(k, len(self.at) - 1)]
        else:
            share = (middle - self.at[k - 1]) / (self.at[k] - self.at[k - 1])
            took = self.took[k - 1] + share * (self.took[k] - self.took[k - 1])
        return seconds * CAL_REF_S / took


def timed_run(runner: Runner, requests: list[Request], gate: Gate,
              seconds: float) -> tuple[dict, dict]:
    """Closed loop: passes over the requests, with setup probes spread between
    them and a calibration before the first pass and after every pass.

    Returns the metrics, times scaled by the calibrations, and the raw times.
    """
    passes, setups = [], []  # (middle, wall, cpu, peak RSS) and (middle, wall)
    calibrations = Calibrations(runner)
    began = time.perf_counter()

    def probe():
        start = time.perf_counter()
        got = runner.cli(["--help"])
        if got.code != 0:
            raise SystemExit(f"bench: dehnsom --help exited {got.code}")
        setups.append((start + got.wall_s / 2, got.wall_s))

    calibrations.run()
    while True:
        start = time.perf_counter()
        cpu, peak = 0.0, 0.0
        for request in requests:
            got = runner.cli(request.argv)
            cpu += got.cpu_s
            peak = max(peak, got.rss_mb)
            gate.check(request, got.code, got.stdout)
        wall = time.perf_counter() - start
        passes.append((start + wall / 2, wall, cpu, peak))
        elapsed = time.perf_counter() - began
        while len(setups) < SETUP_PROBES * min(1.0, elapsed / seconds):
            probe()
        elapsed = time.perf_counter() - began
        left = (SETUP_PROBES - len(setups)) * statistics.median([w for _, w in setups] or [0.0])
        # start another pass if at least half of it and its calibration fit in the window
        last = (wall + calibrations.took[-1]) / 2
        if elapsed + last + left > seconds:
            break
        calibrations.run()
    while len(setups) < SETUP_PROBES:
        probe()
    calibrations.run()

    metrics = {"wall_s": ("s", calibrations.scale(passes)),
               "cpu_s": ("s", calibrations.scale([(m, c) for m, _, c, _ in passes])),
               "peak_rss_mb": ("MiB", [r for _, _, _, r in passes]),
               "setup_s": ("s", calibrations.scale(setups))}
    raw = {"wall_s": [w for _, w, _, _ in passes], "cpu_s": [c for _, _, c, _ in passes],
           "setup_s": [w for _, w in setups], "calibration_s": calibrations.took}
    return metrics, raw


def traced_run(runner: Runner, requests: list[Request], gate: Gate, seconds: float,
               workload: str) -> dict:
    """Untraced and traced in-process passes in bench/tracer.py; per-layer medians."""
    job = OUT / f"trace-{workload}.json"
    job.write_text(json.dumps({"requests": [r.argv for r in requests], "seconds": seconds,
                               "spans": str(OUT / f"spans-{workload}.tsv")}))
    got = runner.spawn([str(BENCH / "tracer.py"), str(job)])
    if got.code != 0:
        raise SystemExit(f"bench: the traced run exited {got.code}")
    result = json.loads(got.stdout)
    for digests in result["outputs"]:
        for request, d in zip(requests, digests):
            gate.check(request, d["code"], result["texts"][d["sha256"]].encode())

    layers = result["layers"]
    metrics = {}
    for name, value in layers[0].items():
        values = [pass_[name] for pass_ in layers]
        if isinstance(value, int):
            if len(set(values)) != 1:
                print(f"# FAILED {name}: counts differ between traced passes: {values}")
                gate.problems += 1
            metrics[name] = ("bytes" if name == "reports.bytes" else "count", values)
        else:
            metrics[name] = ("s", values)
    plain = statistics.median(result["plain_wall_s"])
    traced = statistics.median(result["traced_wall_s"])
    metrics["trace.overhead"] = ("ratio", [traced / plain])

    # self times of every layer and the CLI remainder add up to the traced wall
    for pass_ in layers:
        total = sum(v for k, v in pass_.items() if k.endswith("self_s"))
        if abs(total - pass_["trace.wall_s"]) > 1e-3 * pass_["trace.wall_s"] + 1e-4:
            print(f"# FAILED self times sum to {total:.6f} s, traced wall {pass_['trace.wall_s']:.6f} s")
            gate.problems += 1
    return metrics


# --- reporting ---------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dehnsom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dehnsom benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, for bench/test_bench.py")
    args = ap.parse_args(argv)

    began = time.monotonic()
    if not (SRC / "dehnsom" / "cli.py").is_file():
        print(f"bench: no dehnsom sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(args.seed, began)

    # set-up, untimed: the sources in use are ours, bytecode is cached, inputs exist
    where = runner.spawn(["-c", "import dehnsom; print(dehnsom.__file__)"])
    if Path(where.stdout.decode().strip()).resolve().parent != (SRC / "dehnsom").resolve():
        print(f"bench: dehnsom imported from {where.stdout!r}, not {SRC}", file=sys.stderr)
        return 2
    runner.cli(["--help"])
    requests, inputs = make_requests(runner, args.workload, args.seed, args.smoke)
    gate = Gate(requests)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "cpus": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit(), "src_sha256": source_digest(), "inputs": inputs}
    print("# " + json.dumps(meta))
    raw = {}
    try:
        if args.trace:
            metrics = traced_run(runner, requests, gate, args.seconds, args.workload)
        else:
            metrics, raw = timed_run(runner, requests, gate, args.seconds)
    except Timeout:
        print(f"# FAILED: run cut at {DEADLINE_S} s")
        print(json.dumps({"correct": False, "attempted": max(gate.attempted, 1),
                          "failed": max(gate.failed, 1), "metrics": {}}))
        return 1

    summary = {}
    for name, (unit, values) in metrics.items():
        if unit in ("count", "bytes"):  # equal in every pass, checked above
            summary[name] = {"value": values[0], "unit": unit}
            print(f"{name:32} {values[0]:14d} {unit:6} n {len(values)}")
            continue
        q1, med, q3 = quartiles(values)
        summary[name] = {"value": med, "unit": unit}
        print(f"{name:32} {med:14.6f} {unit:6} q1 {q1:.6f}  q3 {q3:.6f}  n {len(values)}")
    print(f"{'fail_share':32} {gate.failed / max(gate.attempted, 1):14.6f} "
          f"{'':6} ({gate.failed} of {gate.attempted} requests failed)")
    for name, values in raw.items():
        q1, med, q3 = quartiles(values)
        print(f"# unscaled {name:23} {med:14.6f} s      q1 {q1:.6f}  q3 {q3:.6f}  n {len(values)}")
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": {k: {"unit": u, "values": v}
                                              for k, (u, v) in metrics.items()},
                    "unscaled_s": raw}, indent=1))
    correct = gate.failed == 0 and gate.problems == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
