"""The benchmark's output check, run on each quick workload's sweep.

``perfbench/check.py`` recomputes sampled rows of a sweep's CSV through the
public per-ranking API (``run.rankings``, ``run.requests()``,
``RenderPlan.render``, ``system_exposure``, ``target_exposure``,
``population_estimator``, ``awrf``, ``awrf_system`` and ``eel``), so each of
those names must keep working for the benchmark to judge its output.
"""

import sys
from pathlib import Path

import pytest

from gridfair.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import workloads  # noqa: E402

QUICK = workloads.build_workloads(ROOT, quick=True)
SEED = 3


@pytest.mark.parametrize("name", list(QUICK))
def test_quick_workload_passes_the_output_check(tmp_path, name):
    workload = QUICK[name]
    inputs = workloads.generate(workload.shape, SEED, tmp_path / "inputs")
    output = tmp_path / "results.csv"
    assert main(workloads.measure_argv(workload, inputs, output)) == 0
    assert check.check_results(output, check.Recomputer(workload, inputs), SEED) == []
