"""Property test: every per-request row of ``measure`` equals the per-ranking
reference path, float for float.

The reference renders each sampled ranking with ``RenderPlan.render``,
weighs it with ``attention``, aggregates with ``group_exposure`` and scores
with ``awrf``; for EEL it uses ``system_exposure`` and ``target_exposure``.
None of it goes through the sweep's stacked run-level arrays.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridfair import (
    MetricError,
    PopulationEstimator,
    SweepConfig,
    attention,
    awrf,
    awrf_system,
    eel,
    group_exposure,
    measure,
    parse_alignment,
    parse_qrels,
    parse_run,
    population_estimator,
    system_exposure,
    target_exposure,
)
from gridfair.layout import parse_geometry
from gridfair.metrics import drop_unknown

DOCS = [f"d{i}" for i in range(10)]
REQUESTS = ["q1", "q2"]
# None leaves a document unlabeled; "mixed" splits it between A and B.
LABELS = st.sampled_from(["A", "A", "B", "C", "mixed", None])
# None leaves a (request, document) pair unjudged; few grades make ties.
GRADES = st.sampled_from([None, 0, 1, 1, 2])


@st.composite
def sweeps(draw):
    labels = {doc: draw(LABELS) for doc in DOCS}
    labels["d0"] = draw(st.sampled_from(["A", "B"]))  # the catalog is never empty
    alignment = []
    for doc, label in labels.items():
        if label == "mixed":
            alignment += [f"{doc}\tA\t0.25", f"{doc}\tB\t0.75"]
        elif label is not None:
            alignment.append(f"{doc}\t{label}\t1")

    runs = []
    for system in draw(st.sampled_from([["sysA"], ["sysA", "sysB"]])):
        lines = []
        requests = draw(st.lists(st.sampled_from(REQUESTS), min_size=1, unique=True))
        for request in sorted(requests):
            for sample in range(draw(st.integers(1, 3))):
                # samples of one request may differ in depth
                items = draw(st.lists(st.sampled_from(DOCS), min_size=1, unique=True))
                lines += [
                    f"{request} {sample} {doc} {rank} {len(items) - rank} {system}"
                    for rank, doc in enumerate(items)
                ]
        runs.append(lines)

    qrels = None
    if draw(st.booleans()):
        qrels = [
            f"{request} 0 {doc} {grade}"
            for request in REQUESTS
            for doc in DOCS
            if (grade := draw(GRADES)) is not None
        ]

    base_columns = draw(st.integers(1, 4))
    axes = dict(
        geometries=[
            "vertical-linear",
            "horizontal-linear",
            f"wrapped-grid:{draw(st.integers(1, 4))}",
        ],
        reductions=["truncate", "rewrap"],
        base_columns=base_columns,
        columns=draw(
            st.lists(st.integers(1, base_columns), min_size=1, max_size=2, unique=True)
        ),
        bases=["geometric", "cascade"],
        adjustments=["none", "row-skip", "slow-decay"],
        alphas=[draw(st.sampled_from([0.3, 0.5, 0.8]))],
        gammas=[0.0, 1.0] + draw(st.sampled_from([[], [0.5]])),
        betas=[1.0, 1.9],
        satisfaction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        within_row=draw(st.sampled_from(["prefix", "full"])),
        metrics=["awrf", "eel"] if qrels is not None else ["awrf"],
        target=draw(st.sampled_from(["catalog", "retrieved", "uniform"])),
        delta=draw(st.sampled_from(["l1", "l2"])),
        exclude_unknown=draw(st.booleans()),
    )
    return alignment, runs, qrels, axes


def _write(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def _reference(config, metric, run, request, plan, spec, table, rel):
    """Per-request value through the public per-ranking API."""
    rankings = run.rankings[request]
    union = sorted({doc for ranking in rankings for doc in ranking.items})
    if metric == "awrf":
        if config.target == "retrieved":
            tgt = population_estimator(PopulationEstimator("retrieved"), table, union)
        else:
            tgt = population_estimator(PopulationEstimator(config.target), table)
        scores = []
        for ranking in rankings:
            grid = plan.render(ranking)
            expo = group_exposure(attention(grid, rel, spec), table.matrix(grid.items))
            scores.append(
                awrf(expo, tgt, config.distance(), table.schema, config.exclude_unknown)
            )
        return awrf_system(scores)
    system = system_exposure(rankings, plan.render, spec, rel, table)
    ideal = target_exposure(request, union, rel, plan.render, spec, table)
    if config.exclude_unknown:
        system = drop_unknown(system, table.schema)
        ideal = drop_unknown(ideal, table.schema)
    return eel(system, ideal)


def _check_sweep(alignment, runs, qrels, axes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = SweepConfig(
            runs=[_write(tmp / f"run{i}.txt", lines) for i, lines in enumerate(runs)],
            alignment=_write(tmp / "alignment.tsv", alignment),
            qrels=None if qrels is None else _write(tmp / "qrels.txt", qrels),
            output=str(tmp / "results.csv"),
            per_request=True,
            **{**axes, "geometries": [parse_geometry(g) for g in axes["geometries"]]},
        )
        table = parse_alignment(config.alignment)
        rel = None if qrels is None else parse_qrels(config.qrels)
        parsed = {run.system: run for run in map(parse_run, config.runs)}
        expected, failed = {}, []
        for run in parsed.values():
            for plan in config.plans():
                for spec in config.browsing_specs():
                    for metric in config.metrics:
                        key = (
                            run.system, plan.geometry, plan.columns, plan.reduction,
                            spec.base, spec.adjustment, spec.gamma, spec.beta, metric,
                        )
                        for request in run.requests():
                            try:
                                value = _reference(
                                    config, metric, run, request, plan, spec, table, rel
                                )
                            except MetricError:
                                failed.append(request)
                                continue
                            expected[(request, *key)] = value

        if failed:
            with pytest.raises(MetricError, match="request '(q1|q2)'"):
                measure(config)
            return
        rows = measure(config)

    per_request = [row for row in rows if row.request != "ALL"]
    assert len(per_request) == len(expected)
    for row in rows:
        key = (
            row.system, row.geometry, row.columns, row.reduction,
            row.base, row.adjustment, row.gamma, row.beta, row.metric,
        )
        if row.request == "ALL":
            requests = parsed[row.system].requests()
            want = awrf_system([expected[(request, *key)] for request in requests])
        else:
            want = expected[(row.request, *key)]
        assert row.value == want, (row, want)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(sweeps())
def test_sweep_rows_match_per_ranking_reference(case):
    _check_sweep(*case)


def test_reference_covers_ties_unjudged_and_unlabeled_documents():
    """One fixed case with every awkward input at once, so it never depends
    on what the generator happens to draw."""
    alignment = ["d0\tA\t1", "d1\tB\t1", "d2\tA\t0.25", "d2\tB\t0.75", "d4\tA\t1"]
    runs = [
        ["q1 0 d0 0 3 sysA", "q1 0 d1 1 2 sysA", "q1 0 d2 2 1 sysA", "q1 0 d3 3 0 sysA",
         "q1 1 d4 0 2 sysA", "q1 1 d0 1 1 sysA"],
        ["q1 0 d4 0 2 sysB", "q1 0 d3 1 1 sysB", "q1 0 d1 2 0 sysB"],
    ]
    qrels = ["q1 0 d0 2", "q1 0 d1 2", "q1 0 d2 1", "q1 0 d4 0"]  # d3 unjudged
    axes = dict(
        geometries=["vertical-linear", "horizontal-linear", "wrapped-grid:2"],
        reductions=["truncate", "rewrap"],
        base_columns=3,
        columns=[3, 2, 1],
        bases=["geometric", "cascade"],
        adjustments=["none", "row-skip", "slow-decay"],
        alphas=[0.5],
        gammas=[0.0, 1.0],
        betas=[1.0, 1.9],
        satisfaction=0.5,
        within_row="full",
        metrics=["awrf", "eel"],
        target="retrieved",
        delta="l1",
        exclude_unknown=True,
    )
    _check_sweep(alignment, runs, qrels, axes)
    _check_sweep(alignment, runs, None, {**axes, "metrics": ["awrf"], "target": "catalog"})
