"""Seeded synthetic inputs and the `gridfair measure` command of each workload.

Every workload shares one data shape: a catalog of documents in three
provider groups of unequal size, about 10 % of them without a group label,
two systems that sample rankings from a per-request candidate pool, and
40 graded judgments (0-3) per request drawn from that pool. Only the sizes
and the sweep axes differ. The same seed always writes the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

GROUPS = ("g0", "g1", "g2")
GROUP_SHARES = (0.5, 0.3, 0.2)
UNLABELED_SHARE = 0.10
JUDGED_PER_REQUEST = 40
GRADE_PROBS = (0.4, 0.3, 0.2, 0.1)
SYSTEMS = ("sysA", "sysB")
# Per-system score boost of each group: the two systems favour different
# groups, so their fairness scores differ.
SYSTEM_BIAS = {"sysA": (0.0, 0.5, 1.0), "sysB": (0.8, 0.2, 0.0)}


@dataclass(frozen=True)
class Shape:
    docs: int
    requests: int
    samples: int
    depth: int
    pool: int
    mixed_share: float = 0.0


@dataclass(frozen=True)
class Plan:
    geometry: str
    columns: int
    reduction: str = "none"
    base_columns: int | None = None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its data shape and the sweep it measures.

    ``flags`` are the `measure` flags besides the inputs, the output and
    ``--jobs``; ``plans``, ``specs`` and ``metrics`` are the axes the
    results CSV must cover, worked out here independently of gridfair's own
    config code.
    """

    name: str
    shape: Shape
    flags: tuple[str, ...]
    plans: tuple[Plan, ...]
    specs: tuple[tuple[str, str], ...]
    metrics: tuple[str, ...]
    per_request: bool = False
    jobs: int = 1

    @property
    def cells(self) -> int:
        s = self.shape
        return len(SYSTEMS) * s.requests * s.samples * len(self.plans) * len(self.specs)

    @property
    def expected_rows(self) -> int:
        per_combo = 1 + (self.shape.requests if self.per_request else 0)
        return len(SYSTEMS) * len(self.plans) * len(self.specs) * len(self.metrics) * per_combo


def _load_yaml(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def _cross(models, adjustments) -> tuple[tuple[str, str], ...]:
    return tuple((m, a) for m in models for a in adjustments)


def build_workloads(root: Path, quick: bool = False) -> dict[str, Workload]:
    """The three workloads; ``quick`` keeps every axis but shrinks the data."""
    reduction = _load_yaml(root / "configs" / "column-reduction.yaml")
    comparison = _load_yaml(root / "configs" / "layout-comparison.yaml")
    base = int(reduction["base_columns"])
    reduce_plans = tuple(
        Plan("wrapped-grid", int(c), red, base)
        for red in reduction["reductions"]
        for c in reduction["columns"]
    )
    # layout-awrf computes ~4x less per request than reduce-eel; more requests
    # keep its layers, not process start and parsing, the larger share.
    grid_shape = Shape(docs=20_000, requests=24, samples=5, depth=50, pool=125)
    layout_shape = replace(grid_shape, requests=96)
    ingest_shape = Shape(
        docs=50_000, requests=2000, samples=1, depth=20, pool=60, mixed_share=0.3
    )
    if quick:
        grid_shape = layout_shape = Shape(docs=2_000, requests=3, samples=2, depth=50, pool=125)
        ingest_shape = Shape(
            docs=5_000, requests=20, samples=1, depth=20, pool=60, mixed_share=0.3
        )
    workloads = [
        Workload(
            name="reduce-eel",
            shape=grid_shape,
            flags=("--config", str(root / "configs" / "column-reduction.yaml")),
            plans=reduce_plans,
            specs=_cross(reduction["models"], reduction["adjustments"]),
            metrics=tuple(reduction["metrics"]),
        ),
        Workload(
            name="layout-awrf",
            shape=layout_shape,
            flags=(
                "--config", str(root / "configs" / "layout-comparison.yaml"),
                "--geometry", "vertical-linear,horizontal-linear,wrapped-grid:5",
                "--metrics", "awrf", "--per-request",
            ),
            plans=(
                Plan("vertical-linear", 1),
                Plan("horizontal-linear", 0),
                Plan("wrapped-grid", 5),
            ),
            specs=_cross(comparison["models"], comparison["adjustments"]),
            metrics=("awrf",),
            per_request=True,
            jobs=2,
        ),
        Workload(
            name="ingest",
            shape=ingest_shape,
            flags=("--geometry", "vertical-linear", "--model", "cascade", "--metrics", "awrf"),
            plans=(Plan("vertical-linear", 1),),
            specs=(("cascade", "none"),),
            metrics=("awrf",),
        ),
    ]
    return {w.name: w for w in workloads}


@dataclass(frozen=True)
class Inputs:
    runs: tuple[Path, ...]
    alignment: Path
    qrels: Path


def generate(shape: Shape, seed: int, out_dir: Path) -> Inputs:
    """Write run files, alignment and qrels for ``shape`` into ``out_dir``."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc_ids = [f"d{i:07d}" for i in range(shape.docs)]

    group_of = rng.choice(len(GROUPS), size=shape.docs, p=GROUP_SHARES)
    labeled = rng.random(shape.docs) >= UNLABELED_SHARE
    mixed = labeled & (rng.random(shape.docs) < shape.mixed_share)
    second = (group_of + rng.integers(1, len(GROUPS), size=shape.docs)) % len(GROUPS)
    split = rng.uniform(0.2, 0.8, size=shape.docs)
    lines = []
    for i in np.flatnonzero(labeled):
        if mixed[i]:
            lines.append(f"{doc_ids[i]}\t{GROUPS[group_of[i]]}\t{split[i]:.4f}")
            lines.append(f"{doc_ids[i]}\t{GROUPS[second[i]]}\t{1 - split[i]:.4f}")
        else:
            lines.append(f"{doc_ids[i]}\t{GROUPS[group_of[i]]}\t1")
    alignment = out_dir / "alignment.tsv"
    alignment.write_text("\n".join(lines) + "\n", encoding="utf-8")

    quality = rng.normal(size=shape.docs)
    request_ids = [f"q{r:05d}" for r in range(shape.requests)]
    pools = [rng.choice(shape.docs, size=shape.pool, replace=False) for _ in request_ids]

    qrel_lines = []
    for qid, pool in zip(request_ids, pools):
        judged = rng.choice(pool, size=JUDGED_PER_REQUEST, replace=False)
        grades = rng.choice(len(GRADE_PROBS), size=JUDGED_PER_REQUEST, p=GRADE_PROBS)
        qrel_lines.extend(f"{qid} 0 {doc_ids[d]} {g}" for d, g in zip(judged, grades))
    qrels = out_dir / "qrels.txt"
    qrels.write_text("\n".join(qrel_lines) + "\n", encoding="utf-8")

    runs = []
    for system in SYSTEMS:
        bias = np.asarray(SYSTEM_BIAS[system])
        run_lines = []
        for qid, pool in zip(request_ids, pools):
            scores = quality[pool] + np.where(labeled[pool], bias[group_of[pool]], 0.0)
            noisy = scores + rng.gumbel(size=(shape.samples, shape.pool))
            order = np.argsort(-noisy, axis=1, kind="stable")[:, : shape.depth]
            for sample, ranked in enumerate(order):
                run_lines.extend(
                    f"{qid} {sample} {doc_ids[pool[j]]} {rank} {shape.depth - rank} {system}"
                    for rank, j in enumerate(ranked)
                )
        path = out_dir / f"{system}.run"
        path.write_text("\n".join(run_lines) + "\n", encoding="utf-8")
        runs.append(path)
    return Inputs(runs=tuple(runs), alignment=alignment, qrels=qrels)


def measure_argv(workload: Workload, inputs: Inputs, output: Path, jobs: int | None = None) -> list[str]:
    """Arguments after ``python -m gridfair.cli`` for one sweep."""
    argv = ["measure", *workload.flags]
    for run in inputs.runs:
        argv += ["--run", str(run)]
    argv += ["--alignment", str(inputs.alignment), "--qrels", str(inputs.qrels)]
    argv += ["--output", str(output), "--jobs", str(jobs or workload.jobs)]
    return argv
