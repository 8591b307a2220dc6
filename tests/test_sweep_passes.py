"""The sweep's (plan, spec) passes, on fixed seeded inputs.

Passes equal by construction are weighed once and copied, and the sweep's
batched, padded EEL ideal gives each request the exposure
``target_exposure`` gives it alone, bit for bit. No case here is drawn at
random, so a last-bit difference fails every run.
"""

import numpy as np

from gridfair import (
    AlignmentTable,
    Ranking,
    RelevanceJudgments,
    RunFile,
    SweepConfig,
    target_exposure,
)
from gridfair import harness
from gridfair.browse import position_weights
from gridfair.layout import parse_geometry

from util import make_schema

GEOMETRIES = ["vertical-linear", "horizontal-linear", "wrapped-grid:3"]


def _config(**axes) -> SweepConfig:
    return SweepConfig(
        runs=["unread"],
        alignment="unread",
        output="unwritten",
        geometries=[parse_geometry(g) for g in GEOMETRIES],
        reductions=["truncate", "rewrap"],
        base_columns=4,
        columns=[4, 3, 1],
        bases=["geometric", "cascade"],
        adjustments=["none", "row-skip", "slow-decay"],
        gammas=[0.5],
        betas=[1.5],
        satisfaction=0.5,
        **axes,
    )


def _inputs(seed, requests, depths):
    """A run of ``requests`` requests with 1-3 samples each, of depths drawn
    from ``depths``; a table of fractional memberships in three groups;
    graded judgments with ties, some documents unjudged."""
    rng = np.random.default_rng(seed)
    docs = [f"d{i:02d}" for i in range(40)]
    schema = make_schema("A", "B", "C")
    size = (len(docs), schema.size)
    shares = rng.random(size) * (rng.random(size) < 0.7)
    shares[:, 0] += 0.05  # no document without a group
    shares /= shares.sum(axis=1, keepdims=True)
    table = AlignmentTable.from_weights(schema, dict(zip(docs, shares)))
    rankings, grades = {}, {}
    for q in range(requests):
        request = f"q{q:02d}"
        rankings[request] = [
            Ranking(request, s, tuple(rng.choice(docs, rng.choice(depths), replace=False)))
            for s in range(rng.integers(1, 4))
        ]
        for doc in rng.choice(docs, 25, replace=False):
            grades[(request, str(doc))] = float(rng.choice([0, 0.5, 1, 1, 2, 3]))
    return RunFile.from_rankings("sysA", rankings), table, RelevanceJudgments(grades)


def _evaluate(run, table, rel, metrics, plans, specs):
    config = _config()
    target = harness.resolve_shared_target("catalog", table)
    args = (metrics, table, rel, target, config.distance(), False, plans, specs)
    return harness._evaluate_run(run, 0, len(run.requests()), *args)


def test_each_distinct_pass_is_weighed_once(monkeypatch):
    """Rankings all 6 deep and AWRF alone: every pass has the shape of a
    6-item ranking, and a pass repeats one with the same displayed ranks,
    row lengths when the spec adjusts for them, and spec."""
    run, table, rel = _inputs(seed=5, requests=4, depths=[6])
    config = _config()
    plans, specs = config.plans(), config.browsing_specs()
    distinct = set()
    for plan in plans:
        displayed, row_lengths = plan.shape(6)
        for spec in specs:
            rows = None if spec.adjustment == "none" else tuple(row_lengths.tolist())
            distinct.add((tuple(displayed.tolist()), rows, spec))
    calls = []

    def counted(*args):
        calls.append(args)
        return position_weights(*args)

    monkeypatch.setattr(harness, "position_weights", counted)
    _evaluate(run, table, rel, ["awrf"], plans, specs)
    assert len(calls) == len(distinct) < len(plans) * len(specs)


def test_copied_passes_equal_passes_computed_alone():
    """Each plan's values, AWRF and EEL, equal those of a sweep over that
    plan alone, in which no pass repeats another."""
    run, table, rel = _inputs(seed=6, requests=6, depths=[3, 6, 9])
    config = _config()
    plans, specs = config.plans(), config.browsing_specs()
    values = _evaluate(run, table, rel, ["awrf", "eel"], plans, specs)
    for pi, plan in enumerate(plans):
        alone = _evaluate(run, table, rel, ["awrf", "eel"], [plan], specs)
        for metric in ("awrf", "eel"):
            assert np.array_equal(values[metric][pi], alone[metric][0]), (plan, metric)


def test_sweep_ideal_equals_target_exposure_bit_for_bit(monkeypatch):
    """The ideal of every (plan, spec, request), taken from a run whose
    rows are padded to its longest, equals ``target_exposure`` over the
    request's union of sampled documents, rendered alone."""
    run, table, rel = _inputs(seed=2024, requests=40, depths=range(2, 16))
    config = _config()
    plans, specs = config.plans(), config.browsing_specs()
    ideals = []
    ideal_exposure = harness.ideal_exposure

    def kept(*args):
        ideals.append(ideal_exposure(*args))
        return ideals[-1]

    monkeypatch.setattr(harness, "ideal_exposure", kept)
    _evaluate(run, table, rel, ["eel"], plans, specs)
    (ideal,) = ideals
    for qi, request in enumerate(run.requests()):
        union = sorted({doc for ranking in run.rankings[request] for doc in ranking.items})
        for pi, plan in enumerate(plans):
            for si, spec in enumerate(specs):
                want = target_exposure(request, union, rel, plan, spec, table)
                assert np.array_equal(ideal[pi, si, qi], want), (request, plan, spec)
