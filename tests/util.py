"""Shared test fixtures: quick builders for tables, rankings, judgments."""

import csv
import dataclasses
import itertools
import typing

import numpy as np

from gridfair import (
    AlignmentTable,
    GroupSchema,
    Ranking,
    RelevanceJudgments,
    ResultsRow,
    attention,
    awrf_system,
)
from gridfair.layout import HORIZONTAL, VERTICAL


def make_schema(*groups):
    return GroupSchema.from_groups(groups)


def make_table(assignments, groups=None):
    """Table from {doc: group-name} or {doc: weight-vector}.

    ``groups`` defaults to the names appearing as assignments.
    """
    names = set(groups or [])
    for value in assignments.values():
        if isinstance(value, str):
            names.add(value)
    schema = GroupSchema.from_groups(names)
    weights = {}
    for doc, value in assignments.items():
        if isinstance(value, str):
            vec = np.zeros(schema.size)
            vec[schema.index(value)] = 1.0
        else:
            vec = np.asarray(value, dtype=float)
        weights[doc] = vec
    return AlignmentTable.from_weights(schema, weights)


def make_ranking(n=4, request="q1", sample=0, prefix="d", scores=None):
    return Ranking(
        request=request,
        sample=sample,
        items=tuple(f"{prefix}{i}" for i in range(n)),
        scores=scores,
    )


def make_judgments(request, grades):
    """Judgments from {doc: grade} for one request."""
    return RelevanceJudgments({(request, doc): g for doc, g in grades.items()})


def permutation_expectation(docs, grades, plan, spec, table):
    """Exposure of an ideal policy, averaged over every ordering that keeps
    better grades first. Independent oracle for tier-shared target exposure
    (exact only for models whose weights depend on position alone)."""
    tiers = {}
    for doc in docs:
        tiers.setdefault(grades[doc], []).append(doc)
    tier_lists = [sorted(tiers[g]) for g in sorted(tiers, reverse=True)]
    total = np.zeros(table.schema.size)
    count = 0
    for perms in itertools.product(*(itertools.permutations(t) for t in tier_lists)):
        order = [doc for tier in perms for doc in tier]
        grid = plan.render(Ranking("q1", 0, tuple(order)))
        weights = attention(grid, None, spec)
        per_doc = np.zeros(len(order))
        for i, doc in enumerate(order):
            pos = grid.position(doc)
            if pos is not None:
                per_doc[i] = weights[pos[2]]
        total += table.matrix(order).T @ per_doc
        count += 1
    return total / count


def tier_loop_exposure(slot_weight, grades, members):
    """Group exposure of one best-first ordering whose documents share
    their grade tier's attention, tier by tier: each run of equal
    ``grades`` gets the mean of its ``slot_weight`` (hidden slots weigh 0).
    Independent oracle for ``ideal_exposure``."""
    cuts = np.flatnonzero(grades[1:] != grades[:-1]) + 1
    edges = [0, *cuts.tolist(), len(grades)]
    per_doc = np.empty(len(grades))
    for start, end in zip(edges[:-1], edges[1:]):
        per_doc[start:end] = slot_weight[start:end].mean()
    return members.T @ per_doc


def tier_loop_target(request, docs, rel, plan, spec, table):
    """``target_exposure`` by rendering the ideal ordering as a ranking
    and looping over its grade tiers. Independent oracle."""
    grades = dict(zip(docs, rel.grades(request, docs).tolist()))
    ordered = sorted(docs, key=lambda d: (-grades[d], d))
    grid = plan.render(Ranking(request, 0, tuple(ordered)))
    slot_weight = np.zeros(len(ordered))
    slot_weight[grid.ranks] = attention(grid, rel, spec)
    ordered_grades = np.array([grades[d] for d in ordered])
    return tier_loop_exposure(slot_weight, ordered_grades, table.matrix(ordered))


def prefix_rows(row_lengths, k):
    """The row lengths of the first ``k`` cells of a shape."""
    ends = np.minimum(np.cumsum(row_lengths), k)
    cut = np.diff(ends, prepend=0)
    return cut[cut > 0]


def sliced_layout(items, plan):
    """(columns, rows) of ``plan`` over ``items``, by slicing the ids:
    wrapping at c takes ``items[i:i + c]`` for every c-th i, truncating to
    c' then takes ``row[:c']`` of every row, and re-wrapping wraps the
    full order again at c'. Independent oracle for ``RenderPlan.render``."""

    def wrapped(c):
        return c, [tuple(items[i : i + c]) for i in range(0, len(items), c)]

    if plan.geometry == VERTICAL:
        return wrapped(1)
    if plan.geometry == HORIZONTAL:
        return wrapped(max(1, len(items)))
    if plan.reduction == "truncate":
        _, rows = wrapped(plan.base_columns)
        return plan.columns, [row[: plan.columns] for row in rows]
    return wrapped(plan.columns)


def sweep_rows(systems, values, plans, specs, metrics, per_request):
    """A sweep's results rows built one at a time, in sweep order: per
    (system, plan, spec, metric) the mean of the request values as ``ALL``,
    then, if ``per_request``, each request's value. ``systems`` holds
    ``(system, requests)`` and ``values`` each system's ``{metric: (plans,
    specs, requests)}``. Independent oracle for the sweep's results grid."""
    rows = []
    for (system, requests), by_metric in zip(systems, values):
        for pi, plan in enumerate(plans):
            for si, spec in enumerate(specs):
                layout_model = (
                    plan.geometry, plan.columns, plan.reduction, spec.base,
                    spec.adjustment, spec.alpha, spec.gamma, spec.beta,
                )
                for metric in metrics:
                    per_request_values = by_metric[metric][pi, si].tolist()
                    aggregate = awrf_system(per_request_values)
                    rows.append(ResultsRow(system, "ALL", *layout_model, metric, aggregate))
                    if per_request:
                        for request, value in zip(requests, per_request_values):
                            rows.append(
                                ResultsRow(system, request, *layout_model, metric, value)
                            )
    return rows


def write_rows(rows, path):
    """Results rows as CSV, one ``csv`` row each after sorting them all by
    every field but the value; float fields at 12 significant digits.
    Independent oracle for ``write_results``."""
    hints = typing.get_type_hints(ResultsRow)
    names = [f.name for f in dataclasses.fields(ResultsRow)]
    ordered = sorted(rows, key=lambda row: dataclasses.astuple(row)[:-1])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        for row in ordered:
            writer.writerow(
                [
                    f"{cell:.12g}" if hints[name] is float else str(cell)
                    for name, cell in zip(names, dataclasses.astuple(row))
                ]
            )
