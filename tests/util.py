"""Shared test fixtures: quick builders for tables, rankings, judgments."""

import itertools

import numpy as np

from gridfair import AlignmentTable, GroupSchema, Ranking, RelevanceJudgments, attention
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
