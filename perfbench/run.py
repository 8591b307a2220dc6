#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `gridfair measure` sweeps.

Each run generates seeded synthetic inputs under ``.perfbench_work/`` in the
checkout, then times the real CLI (``python -m gridfair.cli measure``) in a
fresh process per repetition, and checks every sweep's output. Workloads are
defined in ``workloads.py``; metrics and layers are described in
``README.md`` next to this file.

  python3 perfbench/run.py --workload reduce-eel --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
  python3 perfbench/run.py --quick

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. ``--workload all`` interleaves the three
workloads in one run; ``--quick`` does that at tiny sizes, with every check,
in seconds. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import tracer
from workloads import SYSTEMS, build_workloads, generate, measure_argv

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REQUIRED = (
    "BENCHMARK.json",
    "src/gridfair/cli.py",
    "configs/column-reduction.yaml",
    "configs/layout-comparison.yaml",
)

MIN_STEPS = 3
SETUP_EVERY = 3
PROCESS_TIMEOUT_S = 150.0
CALIBRATION_LOOPS = 1_000_000


class Process:
    """Outcome of one child process: wall time from spawn to exit, peak RSS."""

    def __init__(self, cmd: list[str], stderr_path: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        child.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]


class WorkloadRun:
    """State of one workload inside a benchmark run."""

    def __init__(self, workload, seed: int, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.inputs = generate(workload.shape, seed, workdir / "inputs")
        self.output = workdir / "out.csv"
        self.reference_sha = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sweeps: list[Process] = []
        self.setups: list[Process] = []
        self.traced: list[tuple[float, dict]] = []
        self.recomputed = 0
        self.steps = 0

    # -- processes ---------------------------------------------------------

    def _sweep(self, jobs: int | None = None, spans: Path | None = None) -> Process | None:
        """One checked `measure` process; None when it failed."""
        self.output.unlink(missing_ok=True)
        argv = measure_argv(self.workload, self.inputs, self.output, jobs)
        if spans is None:
            cmd = [sys.executable, "-m", "gridfair.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        proc = Process(cmd, self.workdir / "stderr.txt")
        self.attempted += 1
        problem = None
        if proc.code != 0:
            problem = f"exit code {proc.code}: {proc.stderr.strip()}"
        elif not self.output.is_file():
            problem = "no results file written"
        else:
            digest = check.sha256(self.output)
            if self.reference_sha is None:
                self.reference_sha = digest
                recomputer = check.Recomputer(self.workload, self.inputs)
                found = check.check_results(self.output, recomputer, self.seed)
                self.recomputed = min(check.SAMPLED_ROWS, self.workload.expected_rows)
                if found:
                    problem = "; ".join(found)
            elif digest != self.reference_sha:
                problem = (
                    f"results differ from the first sweep "
                    f"(jobs={jobs or self.workload.jobs}, traced={spans is not None})"
                )
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            return None
        return proc

    def _setup(self) -> Process | None:
        cmd = [
            sys.executable, str(HERE / "setup_probe.py"),
            str(self.inputs.alignment), str(self.inputs.qrels), *map(str, self.inputs.runs),
        ]
        proc = Process(cmd, self.workdir / "stderr.txt")
        if proc.code != 0:
            self.problems.append(f"set-up probe exit code {proc.code}: {proc.stderr.strip()}")
            return None
        return proc

    # -- phases -----------------------------------------------------------

    def prepare(self) -> None:
        """First sweep (the reference the others must match byte for byte),
        and on a threaded workload the same sweep with one worker."""
        first = self._sweep()
        if first is not None:
            self.sweeps.append(first)
        if self.workload.jobs > 1:
            self._sweep(jobs=1)

    def step(self) -> None:
        if self.trace:
            spans = self.workdir / "spans.json"
            proc = self._sweep(spans=spans)
            if proc is not None:
                data = json.loads(spans.read_text(encoding="utf-8"))
                self.traced.append((proc.wall - data["post_s"], tracer.summarize(data)))
        elif self.steps % SETUP_EVERY == 0:
            # Set-up probes only bound a median shift, so they take one step
            # in SETUP_EVERY and leave most of the run to sweeps.
            setup = self._setup()
            if setup is not None:
                self.setups.append(setup)
        self.steps += 1
        proc = self._sweep()
        if proc is not None:
            self.sweeps.append(proc)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        walls = [p.wall for p in self.sweeps]
        if self.trace:
            if not self.traced or not walls:
                return {}
            traced_walls = [wall for wall, _ in self.traced]
            median_run = sorted(self.traced, key=lambda t: t[1]["trace.wall_s"])[
                (len(self.traced) - 1) // 2
            ][1]
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            return {"trace.overhead": overhead, **median_run}
        if not walls or not self.setups:
            return {}
        sweep_s = statistics.median(walls)
        return {
            "sweep_s": sweep_s,
            "cells_per_s": self.workload.cells / sweep_s,
            "setup_s": statistics.median(p.wall for p in self.setups),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in self.sweeps),
        }

    def report(self, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
        w, s = self.workload, self.workload.shape
        lines = [
            f"{w.name}: {len(SYSTEMS)} systems x {s.requests} requests x {s.samples} samples "
            f"x {len(w.plans)} plans x {len(w.specs)} specs = {w.cells} cells; "
            f"{s.docs} docs; {w.expected_rows} rows expected",
            f"  output check: {'PASS' if not self.problems else 'FAIL'}, "
            f"{self.attempted} sweeps, csv sha256 {self.reference_sha}, "
            f"{self.recomputed} rows recomputed within {check.TOLERANCE:g}",
        ]
        lines += [f"  problem: {p}" for p in self.problems[:5]]
        if self.trace and metrics:
            for name, unit in units.items():
                lines.append(f"  {name:<40} {metrics[name]:.6g} {unit}")
            parts = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
            total = parts + metrics["harness.self_s"]
            lines.append(
                f"  layer self times + harness.self_s = {total:.4f} s "
                f"of {metrics['trace.wall_s']:.4f} s traced wall "
                f"(the median of {len(self.traced)} traced sweeps)"
            )
        elif metrics:
            sweep_walls = [p.wall for p in self.sweeps]
            lines += [
                f"  sweep_s      {metrics['sweep_s']:.4f} s median; {_tail(sweep_walls, 's')}",
                f"  cells_per_s  {metrics['cells_per_s']:.1f} cells/s at the median sweep",
                f"  setup_s      {metrics['setup_s']:.4f} s median; "
                f"{_tail([p.wall for p in self.setups], 's')}",
                f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB median; "
                f"{_tail([p.peak_rss_mb for p in self.sweeps], 'MiB')}",
            ]
        share = self.failed / self.attempted if self.attempted else 1.0
        lines.append(f"  fail_share   {share:g} ({self.failed} of {self.attempted} sweeps)")
        return lines


def _tail(values: list[float], unit: str) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few for a percentile with 10 samples above it"
    k = n - 11
    return f"p{100 * k / (n - 1):.0f} {sorted(values)[k]:.4f} {unit} (10 of n={n} above)"


def calibrate() -> float:
    """Milliseconds of a fixed spin loop, median of five (diagnostic only)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS // 5):
            x += i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def describe_box() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, all workloads, every check")
    return parser.parse_args(argv)


def run(args, workloads) -> dict:
    names = list(workloads) if args.quick or args.workload == "all" else [args.workload]
    seconds, min_steps = (0.0, 1) if args.quick else (args.seconds, MIN_STEPS)
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    box = describe_box()
    box["calibration_ms_before"] = calibrate()
    try:
        runs = [
            WorkloadRun(workloads[name], args.seed, bool(args.trace), work_root / name)
            for name in names
        ]
        # The measuring window holds the reference sweeps too (the first one
        # is a sample), so a run lasts about --seconds per workload.
        start = time.perf_counter()
        budget = seconds * len(runs)
        # Warm the import caches once so the first timed process is not special.
        Process([sys.executable, "-c", "import gridfair.cli"], work_root / "stderr.txt")
        for wr in runs:
            wr.prepare()
        # Interleave the workloads, one step each in turn, so slow phases of
        # the machine spread over all of them. Stop when the next round would
        # end more than half a round past the budget.
        steps = 0
        while True:
            round_start = time.perf_counter()
            for wr in runs:
                wr.step()
            steps += 1
            now = time.perf_counter()
            if steps >= min_steps and (now - start) + (now - round_start) / 2 > budget:
                break
        results = [(wr, wr.metrics()) for wr in runs]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    box["calibration_ms_after"] = calibrate()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("# box " + json.dumps(box))
    for wr, metrics in results:
        for line in wr.report(metrics, units):
            print("# " + line)
    correct = all(not wr.problems and metrics for wr, metrics in results)
    out_metrics = {}
    for wr, metrics in results:
        prefix = "" if len(results) == 1 else wr.workload.name + "."
        for name, unit in units.items():
            if name in metrics:
                out_metrics[prefix + name] = {"value": metrics[name], "unit": unit}
    return {
        "correct": correct,
        "attempted": sum(wr.attempted for wr, _ in results),
        "failed": sum(wr.failed for wr, _ in results),
        "metrics": out_metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: {ROOT} is not a gridfair checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = build_workloads(ROOT, quick=args.quick)
    if args.workload != "all" and args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(workloads)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args, workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
