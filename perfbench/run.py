#!/usr/bin/env python3
"""Scenario benchmark for semigrouplab; see perfbench/README.md.

    python3 perfbench/run.py --workload verify --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 12 --trace 0

Run from a checkout: the program is imported from ``src/`` beside this
directory.  With ``--trace 0`` the run times fresh-process CLI calls and warm
in-process calls and prints the end-to-end metrics, with times scaled to a
fixed host speed (``calibrate``); with ``--trace 1`` it runs traced
in-process calls and prints the per-layer metrics.  A human
summary goes to stderr (to stdout for ``--workload all``), and the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
#: fresh/warm rounds a timed run makes even past its deadline, so every time
#: metric is a median of several samples also on ``perturb``, whose calls
#: take about 10 s each
MIN_ROUNDS = 3
SPANS_DIR = ROOT / ".perfbench-out"

#: ``calibrate()`` median on the host the benchmark was built on (2-core
#: x86-64 VM, Python 3.11, numpy 2.4) in its fast periods; end-to-end times
#: are reported as if every run had this host speed
CALIBRATION_REF_S = 0.08
E2E_UNITS = {"scenario_wall_s": "s", "scenario_cpu_s": "s", "warm_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
TIME_METRICS = [name for name, unit in E2E_UNITS.items() if unit == "s"]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Server:
    """A long-lived ``worker.py`` or ``launcher.py`` process: JSON lines in and out."""

    def __init__(self, script: str, env: dict, log: Path):
        self._log = open(log, "w")
        self.proc = subprocess.Popen([sys.executable, str(HERE / script)], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited; see {self._log.name}")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def start_worker(env: dict, log: Path) -> Server:
    worker = Server("worker.py", env, log)
    if not worker.hello.get("module", "").startswith(str(SRC)):
        worker.close()
        raise RuntimeError(f"worker imported semigrouplab from {worker.hello.get('module')}")
    return worker


class Scenario:
    """One workload at one seed: config file, output checks and samples."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed = workload, seed
        self.config = workdir / f"{workload}-{seed}.ini"
        self.config.write_text(scenarios.config_text(workload, seed))
        self.out = workdir / f"out-{workload}-{seed}"
        self.log = workdir / f"{workload}-{seed}.log"
        self.digests = None
        self.attempted = self.failed = 0
        self.problems = []
        try:
            self.reference, self.reference_problems = checks.load_reference(workload, seed), []
        except LookupError as exc:
            self.reference, self.reference_problems = None, [str(exc)]
        self.samples = defaultdict(list)  # as measured
        self.scaled = defaultdict(list)  # times scaled to the reference host speed
        self.traced = []

    def argv(self) -> list:
        return [self.workload, "--config", str(self.config), "--out", str(self.out),
                "--no-plots"]

    def _check(self, rc) -> None:
        """Check one call's outputs, then remove them."""
        self.attempted += 1
        problems = checks.call_problems(self.workload, self.out, rc,
                                        self.reference if self.digests is None else None)
        if self.digests is None:
            problems += self.reference_problems
        if not problems:
            digests = checks.csv_digests(self.out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems = ["CSV bytes differ from the first call of this run"]
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        shutil.rmtree(self.out, ignore_errors=True)

    def fresh_call(self, launcher: Server) -> None:
        """``python -m semigrouplab.cli`` in a new process: wall, CPU and peak RSS."""
        answer = launcher.call({"argv": [sys.executable, "-m", "semigrouplab.cli",
                                         *self.argv()], "log": str(self.log)})
        self.samples["scenario_wall_s"].append(answer["wall_s"])
        self.samples["scenario_cpu_s"].append(answer["cpu_s"])
        self.samples["peak_rss_mb"].append(answer["maxrss_kb"] / 1024.0)
        self._check(answer["rc"])

    def warm_call(self, worker: Server, timed: bool = True) -> None:
        answer = worker.call({"argv": self.argv()})
        if timed and "wall_s" in answer:
            self.samples["warm_s"].append(answer["wall_s"])
        self._report_error(answer)
        self._check(answer["rc"])

    def traced_call(self, worker: Server, spans=None) -> None:
        answer = worker.call({"argv": self.argv(), "trace": True,
                              "spans": str(spans) if spans else None})
        if "wall_s" in answer:
            self.samples["trace.warm_s"].append(answer["wall_s"])
            self.traced.append(answer["metrics"])
        self._report_error(answer)
        self._check(answer["rc"])

    def _report_error(self, answer: dict) -> None:
        if "error" in answer:
            self.problems.append(answer["error"].strip().splitlines()[-1])


def setup_sample(env: dict) -> float:
    """Seconds from starting an interpreter to the end of ``import semigrouplab.cli``."""
    code = "import time, semigrouplab.cli; print(repr(time.monotonic()))"
    start = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout) - start


def calibrate() -> float:
    """Seconds for a fixed mix of bytecode, small-array FFTs and fresh-page faults."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 4096) + 0j
    for _ in range(150):
        x = x + 1e-3 * np.fft.ifft(np.exp(-x * x) * np.fft.fft(x)).real
    for _ in range(10):
        with mmap.mmap(-1, 1 << 22) as block:  # 4 MiB of pages never touched before
            np.frombuffer(block, dtype=np.uint8)[::4096] = 1
    return time.perf_counter() - start


def run_timed(group: list, seconds: int, env: dict, workdir: Path) -> dict:
    """Interleaved fresh-process and warm calls until ``seconds`` per workload
    have passed and at least ``MIN_ROUNDS`` rounds are done.

    A calibration run follows every timed call.  Each sample is scaled by
    ``CALIBRATION_REF_S`` over the mean of the calibrations just before and
    after it, and each time metric is the median of its scaled samples.
    """
    start = time.perf_counter()
    calibration = [calibrate()]

    def timed(sc: Scenario, call, *args) -> None:
        counts = {name: len(sc.samples[name]) for name in TIME_METRICS}
        call(*args)
        calibration.append(calibrate())
        factor = CALIBRATION_REF_S / statistics.mean(calibration[-2:])
        for name, count in counts.items():
            sc.scaled[name] += [value * factor for value in sc.samples[name][count:]]

    first = group[0]
    setup_sample(env)  # the first start fills the file and bytecode caches
    for _ in range(SETUP_SAMPLES):
        timed(first, lambda: first.samples["setup_s"].append(setup_sample(env)))
    servers = [Server("launcher.py", env, workdir / "launcher.log")]
    try:
        workers = []
        for sc in group:
            workers.append(start_worker(env, workdir / f"worker-{sc.workload}.log"))
            servers.append(workers[-1])
            sc.warm_call(workers[-1], timed=False)
        deadline = start + seconds * len(group)
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for sc, worker in zip(group, workers):
                timed(sc, sc.fresh_call, servers[0])
                timed(sc, sc.warm_call, worker)
            rounds += 1
    finally:
        for server in servers:
            server.close()
    results = {}
    for sc in group:
        sc.samples["setup_s"] = first.samples["setup_s"]
        sc.scaled["setup_s"] = first.scaled["setup_s"]
        sc.samples["calibration_s"] = calibration
        values = {**sc.samples, **sc.scaled}
        results[sc.workload] = {name: {"value": statistics.median(values[name]), "unit": unit}
                                for name, unit in E2E_UNITS.items() if values.get(name)}
    return results


def _repeat_problems(calls: list, skip: set) -> list:
    """Non-time metrics that differ between traced calls."""
    first = calls[0]
    return [f"traced {name} differs between calls: {first[name]} vs {other[name]}"
            for other in calls[1:] for name, unit in layertrace.METRIC_UNITS.items()
            if unit != "s" and name not in skip and other[name] != first[name]]


def run_traced(group: list, seconds: int, env: dict, workdir: Path) -> dict:
    """Untraced and traced warm calls, plus one traced call at the next seed."""
    start = time.perf_counter()
    SPANS_DIR.mkdir(exist_ok=True)
    others = [Scenario(sc.workload, sc.seed + 1, workdir) for sc in group]
    workers = []
    try:
        for sc in group:
            workers.append(start_worker(env, workdir / f"worker-{sc.workload}.log"))
            sc.warm_call(workers[-1], timed=False)
        deadline = start + seconds * len(group)
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            for sc, worker in zip(group, workers):
                sc.warm_call(worker)
                spans = SPANS_DIR / f"spans-{sc.workload}-seed{sc.seed}.jsonl"
                sc.traced_call(worker, spans if rounds == 0 else None)
            rounds += 1
        for other, worker in zip(others, workers):
            other.traced_call(worker)
    finally:
        for worker in workers:
            worker.close()
    results = {}
    for sc, other in zip(group, others):
        sc.attempted += other.attempted
        sc.failed += other.failed
        sc.problems += other.problems
        if not (sc.traced and other.traced):
            results[sc.workload] = {}
            continue
        # counts repeat exactly; file bytes only on the same config
        sc.problems += _repeat_problems(sc.traced, set())
        sc.problems += _repeat_problems([sc.traced[0]] + other.traced, {"csvio.bytes"})
        metrics = {}
        for name, unit in layertrace.METRIC_UNITS.items():
            values = [call[name] for call in sc.traced]
            metrics[name] = {"value": statistics.median(values) if unit == "s" else values[0],
                             "unit": unit}
        traced_wall = statistics.median(sc.samples["trace.warm_s"])
        metrics["trace.warm_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": traced_wall / statistics.median(sc.samples["warm_s"]), "unit": "ratio"}
        results[sc.workload] = metrics
    return results


def notes(env: dict) -> list:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return [" ".join(f"{var}={env[var]}" for var in THREAD_VARS),
            f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas.get('name')} {blas.get('version')}",
            f"src_lines={src_lines}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    group_names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        group = [Scenario(w, args.seed, workdir) for w in group_names]
        run = run_traced if args.trace else run_timed
        results = run(group, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = sys.stdout if args.workload == "all" else sys.stderr
    for line in notes(env):
        print(f"# {line}", file=summary)
    attempted = sum(sc.attempted for sc in group)
    failed = sum(sc.failed for sc in group)
    metrics = {}
    for sc in group:
        print(f"[{sc.workload} seed {sc.seed}] fail_ratio {sc.failed}/{sc.attempted} "
              f"= {sc.failed / max(sc.attempted, 1):.3g}", file=summary)
        calibration = sc.samples.get("calibration_s")
        if calibration:
            print(f"  calibration median {statistics.median(calibration):.6g} s "
                  f"n={len(calibration)}; times are scaled to a {CALIBRATION_REF_S} s "
                  "calibration", file=summary)
        for name, m in results[sc.workload].items():
            values = sc.samples.get(name) or [None] * len(sc.traced)
            raw = (f" raw median {statistics.median(values):.6g}"
                   if calibration and m["unit"] == "s" else "")
            print(f"  {name:40s} {m['value']:<14.6g} {m['unit']:6s} n={len(values)}{raw}",
                  file=summary)
            metrics[name if len(group) == 1 else f"{sc.workload}.{name}"] = m
        for problem in sc.problems[:20]:
            print(f"  FAILED CHECK: {problem}", file=summary)
    correct = failed == 0 and not any(sc.problems for sc in group)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "semigrouplab" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'semigrouplab'}; "
              "run from a semigrouplab checkout", file=sys.stderr)
        sys.exit(2)
    for _var in THREAD_VARS:  # before numpy is imported here
        os.environ[_var] = "1"
    # one CPU for the runner and every process it starts, so calibration and
    # calls see the same contention; calls never overlap, one CPU suffices
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import checks
    import layertrace
    import scenarios
    from scenarios import WORKLOADS
    if not sys.modules["semigrouplab"].__file__.startswith(str(SRC)):
        sys.exit(f"perfbench: semigrouplab imported from outside {SRC}")
    sys.exit(main())
