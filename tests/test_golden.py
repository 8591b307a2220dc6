"""Golden digests: the results CSV of a small seeded sweep is pinned byte
for byte.

The fixture is generated with the standard library's seeded ``random``, so
its bytes do not depend on the numpy version. Each committed config runs
with its own axes plus ``--per-request``. The digests were produced by the
per-ranking sweep that came before the shared per-request arrays; any
change to a printed value, row or format changes them.
"""

import csv
import hashlib
import random
from pathlib import Path

import pytest

from gridfair import RenderPlan
from gridfair.cli import _build_sweep_config, build_parser, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = {
    "column-reduction.yaml": "f207e47cfb49bb539a51d0f20870f97536c37db76a9d3ef6d86e9f4e81a32937",
    "layout-comparison.yaml": "cc698fa43837e15e62d40a7e1e2826aac081a002de7f9d736e27974809bd5432",
}
# The same sweeps with a per-request target, the l2 distance and the unknown
# group left out, on a fixture whose requests differ in sample count (sample
# 2 of q1 is dropped from sysA). Pinned from the request-at-a-time sweep.
GOLDEN_RETRIEVED = {
    "column-reduction.yaml": "3aa81d245e6988192f26385290703a208a647aa49fb987cb61aa3b433e530bbf",
    "layout-comparison.yaml": "97da8aa1efa6cfa8f825937243edb21f2a1adeb2d83a017f299f5e81f9cba193",
}

# layout-comparison.yaml without judgments (so without EEL): geometric and
# cascade under every adjustment. Pinned from the sweep that kept grade-free
# weights apart from the graded ones.
GOLDEN_NO_QRELS = "347c5ccd34a43fb9b157a76dcaa0cd5e952d143efc32ffd8df460708d5ed74d1"


def write_fixture(root: Path, seed: int = 20231):
    """300 documents in three groups (some mixed, ~10 % unlabeled), two
    systems x 6 requests x 3 samples of 12-20 items, 15 graded judgments
    (0-3) per request."""
    rng = random.Random(seed)
    docs = [f"doc{i:03d}" for i in range(300)]
    alignment = []
    for doc in docs:
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.3:
            alignment += [f"{doc}\tA\t0.3", f"{doc}\tC\t0.7"]
        else:
            alignment.append(f"{doc}\t{rng.choice('AABBC')}\t1")
    runs = []
    for system in ("sysA", "sysB"):
        lines = []
        for q in range(6):
            pool = rng.sample(docs, 40)
            for sample in range(3):
                items = rng.sample(pool, rng.randint(12, 20))
                lines += [
                    f"q{q} {sample} {doc} {rank} {len(items) - rank} {system}"
                    for rank, doc in enumerate(items)
                ]
        path = root / f"{system}.run"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runs.append(path)
    qrels = [
        f"q{q} 0 {doc} {rng.randint(0, 3)}" for q in range(6) for doc in rng.sample(docs, 15)
    ]
    (root / "alignment.tsv").write_text("\n".join(alignment) + "\n", encoding="utf-8")
    (root / "qrels.txt").write_text("\n".join(qrels) + "\n", encoding="utf-8")
    return runs, root / "alignment.tsv", root / "qrels.txt"


def measure_argv(root: Path, config: str) -> list[str]:
    runs, alignment, qrels = write_fixture(root)
    argv = ["measure", "--config", str(CONFIGS / config), "--per-request"]
    for run in runs:
        argv += ["--run", str(run)]
    out = root / "results.csv"
    return argv + ["--alignment", str(alignment), "--qrels", str(qrels), "--output", str(out)]


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_results_csv_is_byte_identical(config, tmp_path):
    assert main(measure_argv(tmp_path, config)) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[config]


@pytest.mark.parametrize("config", sorted(GOLDEN_RETRIEVED))
def test_uneven_samples_retrieved_target_csv_is_byte_identical(config, tmp_path):
    argv = measure_argv(tmp_path, config)
    run = tmp_path / "sysA.run"
    kept = [
        line for line in run.read_text(encoding="utf-8").splitlines()
        if line.split()[:2] != ["q1", "2"]
    ]
    run.write_text("\n".join(kept) + "\n", encoding="utf-8")
    argv += ["--target", "retrieved", "--delta", "l2", "--exclude-unknown"]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_RETRIEVED[config]


def test_no_judgments_csv_is_byte_identical(tmp_path):
    argv = measure_argv(tmp_path, "layout-comparison.yaml")
    at = argv.index("--qrels")
    del argv[at : at + 2]
    assert main(argv) == 0
    data = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_NO_QRELS
    # Without grades cascade continues with alpha everywhere, as geometric does.
    with open(tmp_path / "results.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    values = {tuple(row.values())[:-1]: row["value"] for row in rows}
    cascade = [key for key in values if key[5] == "cascade"]
    assert len(cascade) == len(rows) // 2
    for key in cascade:
        twin = key[:5] + ("geometric",) + key[6:]
        assert values[key] == values[twin]


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_rows_rebuild_the_configured_plans(config, tmp_path):
    """Each row's layout fields, passed positionally to ``RenderPlan`` with
    the base width of its reduction (as the benchmark's recomputation
    does), give back one of the configured plans, and every plan appears."""
    argv = measure_argv(tmp_path, config)
    assert main(argv) == 0
    plans = _build_sweep_config(build_parser().parse_args(argv)).plans()
    base_columns = {plan.reduction: plan.base_columns for plan in plans}
    with open(tmp_path / "results.csv", encoding="utf-8", newline="") as handle:
        rebuilt = {
            RenderPlan(
                row["geometry"], int(row["columns"]), row["reduction"],
                base_columns[row["reduction"]],
            )
            for row in csv.DictReader(handle)
        }
    assert rebuilt == set(plans)
