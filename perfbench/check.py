"""Output checks for one sweep's results CSV.

The CSV must hold exactly the rows the workload's axes call for, and a
seeded sample of its values must match a recomputation through gridfair's
public per-ranking API (``RenderPlan.render``, ``system_exposure``,
``target_exposure``, ``population_estimator``, ``awrf``, ``eel`` and
``awrf_system``), which does not go through the sweep harness.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from workloads import SYSTEMS, Inputs, Workload

TOLERANCE = 1e-9
SAMPLED_ROWS = 8
DEFAULT_PARAMS = ("0.5", "0.5", "1.9")  # alpha, gamma, beta as the CSV prints them


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def expected_keys(workload: Workload, requests: list[str]) -> list[tuple]:
    keys = []
    for system in SYSTEMS:
        for plan in workload.plans:
            for base, adjustment in workload.specs:
                for metric in workload.metrics:
                    combo = (plan.geometry, str(plan.columns), plan.reduction, base, adjustment, metric)
                    keys.append((system, "ALL", *combo))
                    if workload.per_request:
                        keys.extend((system, request, *combo) for request in requests)
    return keys


def _key(row: dict) -> tuple:
    return (
        row["system"], row["request"], row["geometry"], row["columns"],
        row["reduction"], row["base"], row["adjustment"], row["metric"],
    )


class Recomputer:
    """Parsed inputs plus the per-ranking recomputation of one CSV row."""

    def __init__(self, workload: Workload, inputs: Inputs):
        from gridfair import PopulationEstimator, parse_alignment, parse_qrels, parse_run
        from gridfair import population_estimator

        self.workload = workload
        self.runs = {run.system: run for run in map(parse_run, inputs.runs)}
        self.table = parse_alignment(inputs.alignment)
        self.rel = parse_qrels(inputs.qrels)
        self.target = population_estimator(PopulationEstimator("catalog"), self.table)

    def requests(self) -> list[str]:
        return list(self.runs[SYSTEMS[0]].requests())

    def value(self, row: dict) -> float:
        from gridfair import BrowsingModelSpec, RenderPlan, awrf_system

        columns = int(row["columns"])
        reduction = row["reduction"]
        base_columns = None
        if reduction != "none":
            base_columns = next(
                p.base_columns for p in self.workload.plans if p.reduction == reduction
            )
        plan = RenderPlan(row["geometry"], columns, reduction, base_columns)
        spec = BrowsingModelSpec(
            base=row["base"],
            adjustment=row["adjustment"],
            alpha=float(row["alpha"]),
            gamma=float(row["gamma"]),
            beta=float(row["beta"]),
        )
        run = self.runs[row["system"]]
        if row["request"] != "ALL":
            return self._request_value(run, row["request"], plan, spec, row["metric"])
        return awrf_system(
            [self._request_value(run, q, plan, spec, row["metric"]) for q in run.requests()]
        )

    def _request_value(self, run, request, plan, spec, metric) -> float:
        from gridfair import DistanceSpec, awrf, awrf_system, eel, system_exposure
        from gridfair import target_exposure

        rankings = run.rankings[request]
        table, rel = self.table, self.rel
        if metric == "awrf":
            return awrf_system(
                [
                    awrf(
                        system_exposure([r], plan.render, spec, rel, table),
                        self.target, DistanceSpec("l1"), table.schema,
                    )
                    for r in rankings
                ]
            )
        union = sorted({doc for r in rankings for doc in r.items})
        return eel(
            system_exposure(rankings, plan.render, spec, rel, table),
            target_exposure(request, union, rel, plan.render, spec, table),
        )


def check_results(csv_path: Path, recomputer: Recomputer, seed: int) -> list[str]:
    """Problems found in the CSV: missing, extra or duplicate rows, and
    sampled values that differ from the recomputation by more than
    ``TOLERANCE``. An empty list means the output is correct."""
    rows = read_rows(csv_path)
    problems = []
    expected = expected_keys(recomputer.workload, recomputer.requests())
    got = [_key(row) for row in rows]
    if len(got) != len(expected) or set(got) != set(expected):
        problems.append(
            f"row set differs: {len(got)} rows ({len(set(got))} distinct), "
            f"expected {len(expected)}"
        )
    odd = [row for row in rows if (row["alpha"], row["gamma"], row["beta"]) != DEFAULT_PARAMS]
    if odd:
        problems.append(f"{len(odd)} rows with non-default browsing parameters")
    if not rows:
        return problems
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rows), size=min(SAMPLED_ROWS, len(rows)), replace=False)
    for i in sorted(picks):
        row = rows[i]
        want = recomputer.value(row)
        got_value = float(row["value"])
        if not abs(got_value - want) <= TOLERANCE:
            problems.append(f"row {i + 2}: value {got_value!r}, recomputed {want!r}")
    return problems
