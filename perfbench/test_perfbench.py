"""Tests of the benchmark itself: run with ``python -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick():
    """Standard output and result of a quick run, untraced and traced."""
    runs = {}
    for trace in (0, 1):
        proc = _bench("--quick", "--seed", "3", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        runs[trace] = proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])
    return runs


@pytest.mark.parametrize("trace", [0, 1], ids=["end-to-end", "traced"])
def test_quick_run_passes_every_check_and_reports_every_metric(quick, trace):
    stdout, result = quick[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(NAMES)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in NAMES:
        assert f"# {name}: " in stdout
        for metric in declared:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            # Tracing overhead is a difference of two timings; noise can
            # make it negative on tiny inputs.
            assert got["value"] >= 0 or metric["name"] == "trace.overhead"
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_add_up_to_the_wall(quick):
    _, result = quick[1]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in NAMES:
        parts = sum(values[f"{name}.{layer}.self_s"] for layer in tracer.LAYERS)
        total = parts + values[f"{name}.harness.self_s"]
        assert total == pytest.approx(values[f"{name}.trace.wall_s"], rel=0.05)
    assert values["reduce-eel.metrics.eel_target_calls"] > 0
    assert values["layout-awrf.metrics.eel_target_calls"] == 0
    assert values["ingest.metrics.eel_target_calls"] == 0


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_deterministic_in_the_seed(tmp_path):
    shape = workloads.Shape(docs=300, requests=4, samples=2, depth=10, pool=45, mixed_share=0.3)
    first = workloads.generate(shape, 5, tmp_path / "a")
    again = workloads.generate(shape, 5, tmp_path / "b")
    other = workloads.generate(shape, 6, tmp_path / "c")
    read = lambda inputs: [p.read_bytes() for p in (*inputs.runs, inputs.alignment, inputs.qrels)]
    assert read(first) == read(again)
    assert read(first) != read(other)


def test_output_check_catches_a_wrong_value(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from gridfair.cli import main

    workload = workloads.build_workloads(ROOT, quick=True)["reduce-eel"]
    inputs = workloads.generate(workload.shape, 2, tmp_path / "in")
    out = tmp_path / "out.csv"
    assert main(workloads.measure_argv(workload, inputs, out)) == 0
    recomputer = check.Recomputer(workload, inputs)
    assert check.check_results(out, recomputer, seed=0) == []

    lines = out.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[-1] = repr(float(row[-1]) + 1e-6)
    out.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n", encoding="utf-8")
    monkeypatch.setattr(check, "SAMPLED_ROWS", len(lines))
    problems = check.check_results(out, recomputer, seed=0)
    assert len(problems) == 1 and problems[0].startswith("row 2:")

    out.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert any("row set differs" in p for p in check.check_results(out, recomputer, seed=0))


def test_overlapping_threads_share_the_wall():
    # Thread 1 runs span 0 over [0, 4] with child span 1 over [1, 2];
    # thread 2 runs span 2 over [3, 6]; nothing is open over [6, 10].
    spans = [
        ["metrics.awrf", 0.0, 4.0, None, "q", 1],
        ["core.matrix", 1.0, 2.0, 0, "q", 1],
        ["browse.attention", 3.0, 6.0, None, "q", 2],
    ]
    busy, share = tracer._attributed_self_times(spans, 0.0, 10.0)
    assert busy == [3.0, 1.0, 3.0]
    assert share == [2.5, 1.0, 2.5]
