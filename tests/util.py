"""Shared test fixtures: quick builders for tables, rankings, judgments."""

import csv
import dataclasses
import itertools
import math
import typing

import numpy as np

from gridfair import (
    AlignmentTable,
    DistanceSpec,
    GroupSchema,
    MetricError,
    ParseError,
    Ranking,
    RelevanceJudgments,
    ResultsRow,
    attention,
    awrf,
    awrf_system,
    continuations,
    group_exposure,
    rerank_run,
)
from gridfair.browse import position_weights
from gridfair.io import RunFile
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


def run_of(system, rankings):
    """The run of ``rankings``, each request's in sample order."""
    by_request = {}
    for ranking in sorted(rankings, key=lambda r: (r.request, r.sample)):
        by_request.setdefault(ranking.request, []).append(ranking)
    return RunFile.from_rankings(system, {q: tuple(lists) for q, lists in by_request.items()})


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


def row_key(row):
    """Every field of a results row but the value, in declaration order:
    the order of the rows in a results CSV."""
    return dataclasses.astuple(row)[:-1]


def write_rows(rows, path):
    """Results rows as CSV, one ``csv`` row each after sorting them all by
    :func:`row_key`; float fields at 12 significant digits. Writes any list
    of rows, and is the independent oracle for ``write_results``."""
    hints = typing.get_type_hints(ResultsRow)
    names = [f.name for f in dataclasses.fields(ResultsRow)]
    ordered = sorted(rows, key=row_key)
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


# -- line-by-line input readers ---------------------------------------------
#
# Independent oracles for ``parse_run``, ``parse_qrels`` and
# ``parse_alignment``: each decodes the file, splits each line with
# ``str.split``, checks its fields in order and raises at the first bad line.


def _data_lines(path, raw):
    """(line number, line) of each record: lines end at ``\n``, ``\r\n`` or a
    lone ``\r``, as in ``open()``'s universal newlines; comment and blank
    lines are skipped; one leading byte-order mark is, too. A byte that is
    not UTF-8 is a parse error naming its line."""
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        message = f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(path, line, message) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _number(path, lineno, text, name, kind=float, bounded=""):
    """``text`` read by Python's ``int`` or ``float`` (``kind``), a parse
    error naming it as ``name`` when it is not one. With ``bounded``, its
    name in these errors, the value must also be finite and not negative."""
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ParseError(path, lineno, f"{name} {text!r} is not {expected}") from None
    # An int is always finite, and math.isfinite overflows on a huge one.
    if bounded and kind is float and not math.isfinite(value):
        raise ParseError(path, lineno, f"non-finite {bounded} {text!r}")
    if bounded and value < 0:
        raise ParseError(path, lineno, f"negative {bounded} {value}")
    return value


def _records(path, raw, width, sep=None):
    """(line number, fields) of each record, split as ``str.split(sep)``
    splits it; a record without ``width`` fields is a parse error. Fields
    split on a separator are stripped."""
    for lineno, line in _data_lines(path, raw):
        fields = line.split(sep)
        if len(fields) != width:
            kind = "" if sep is None else "tab-separated "
            raise ParseError(path, lineno, f"expected {width} {kind}columns, got {len(fields)}")
        yield lineno, fields if sep is None else [field.strip() for field in fields]


def _check_id(path, lineno, doc):
    """A NUL in a document id is a parse error: ids are held as fixed-width
    byte strings, which drop trailing NULs."""
    if "\0" in doc:
        raise ParseError(path, lineno, f"document id {doc!r} holds a NUL byte")


def parse_run_lines(path, raw):
    """Line-by-line ``parse_run`` of the file's bytes ``raw``."""
    records = {}
    seen_docs = set()
    seen_ranks = set()
    system = None
    for lineno, (qid, it, docid, rank, score, tag) in _records(path, raw, 6):
        _check_id(path, lineno, docid)
        if it == "Q0":
            it = "0"
        sample = _number(path, lineno, it, "sample index", int, "sample index")
        rank = _number(path, lineno, rank, "rank", int)
        score = _number(path, lineno, score, "score")
        if (qid, sample, docid) in seen_docs:
            raise ParseError(
                path, lineno, f"duplicate document {docid!r} in request {qid!r} sample {sample}"
            )
        if (qid, sample, rank) in seen_ranks:
            raise ParseError(
                path, lineno, f"duplicate rank {rank} in request {qid!r} sample {sample}"
            )
        seen_docs.add((qid, sample, docid))
        seen_ranks.add((qid, sample, rank))
        if system is None:
            system = tag
        records.setdefault((qid, sample), []).append((rank, docid, score))
    if system is None:
        raise ParseError(path, 1, "run file contains no records")
    rankings = {}
    for (qid, sample), rows in records.items():
        rows.sort()
        rankings.setdefault(qid, []).append(
            Ranking(
                request=qid,
                sample=sample,
                items=tuple(doc for _, doc, _ in rows),
                scores=tuple(score for _, _, score in rows),
            )
        )
    ordered = {
        qid: tuple(sorted(lists, key=lambda r: r.sample)) for qid, lists in rankings.items()
    }
    return RunFile.from_rankings(system, ordered)


def parse_alignment_lines(path, raw):
    """Line-by-line ``parse_alignment`` of the file's bytes ``raw``."""
    acc_by_doc = {}
    first_line = {}
    groups = set()
    for lineno, (docid, group, weight) in _records(path, raw, 3, "\t"):
        if not docid or not group:
            raise ParseError(path, lineno, "empty document or group name")
        _check_id(path, lineno, docid)
        weight = _number(path, lineno, weight, "weight", bounded="membership weight")
        groups.add(group)
        acc = acc_by_doc.setdefault(docid, {})
        acc[group] = acc.get(group, 0.0) + weight
        first_line.setdefault(docid, lineno)
    schema = GroupSchema.from_groups(groups)
    vectors = {}
    for docid, acc in acc_by_doc.items():
        total = sum(acc.values())
        if total <= 0:
            raise ParseError(
                path, first_line[docid], f"document {docid!r} has all-zero membership"
            )
        vectors[docid] = [acc.get(name, 0.0) / total for name in schema.names]
    return AlignmentTable.from_weights(schema, vectors)


def parse_qrels_lines(path, raw):
    """Line-by-line ``parse_qrels`` of the file's bytes ``raw``."""
    grades = {}
    for lineno, (qid, _, docid, grade) in _records(path, raw, 4):
        _check_id(path, lineno, docid)
        grade = _number(path, lineno, grade, "grade", bounded="relevance grade")
        if (qid, docid) in grades:
            raise ParseError(path, lineno, f"duplicate judgment for {qid!r}/{docid!r}")
        grades[(qid, docid)] = grade
    return RelevanceJudgments(grades)


def parse_fixed_target_lines(path, raw, schema):
    """Line-by-line ``parse_fixed_target`` of the file's bytes ``raw``."""
    values = np.zeros(schema.size)
    seen = set()
    for lineno, line in _data_lines(path, raw):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'group weight', got {line.strip()!r}")
        name, weight = parts
        if name not in schema.names:
            raise ParseError(path, lineno, f"group {name!r} not in the alignment schema")
        if name in seen:
            raise ParseError(path, lineno, f"duplicate group {name!r}")
        weight = _number(path, lineno, weight, "weight", bounded="target weight")
        values[schema.index(name)] = weight
        seen.add(name)
    return values


# -- one-list re-ranking ----------------------------------------------------


def rerank_ranking(ranking, table, spec, rel=None):
    """``rerank_run`` on a run of ``ranking`` alone, as a ranking; a ranking
    without scores comes back without them."""
    run = rerank_run(run_of("s", [ranking]), table, spec, rel)
    (out,) = run.rankings[ranking.request]
    return out if ranking.scores is not None else dataclasses.replace(out, scores=None)


def greedy_rerank(ranking, table, spec, rel=None):
    """One list re-ranked position by position, each step a Python ``min``
    over the candidates and a ``position_weights`` call over the placed
    prefix. Independent oracle for ``rerank_run``; a list without scores
    is taken in its rank order, and comes back without them."""
    if not ranking.items:
        raise MetricError("cannot re-rank an empty ranking")
    schema = table.schema
    target = np.asarray(spec.target, dtype=np.float64)
    if target.shape != (schema.size,):
        raise MetricError("re-rank target must have one entry per group")
    total = float(target.sum())
    if abs(total - 1.0) > 1e-6:
        raise MetricError(f"re-rank target sums to {total}, expected 1")
    target = target / total

    items = ranking.items
    n = len(items)
    names = schema.names
    grades = rel.grades(ranking.request, items) if rel is not None else np.zeros(n)
    cont = continuations(grades, spec.browsing)
    vectors = table.matrix(items)
    # The placed items as a vertical list: one item per row.
    rows = np.ones(n, dtype=np.intp)
    # Each item's strongest group: its first top-weight column in name order.
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__))
    top = vectors == vectors.max(axis=1, keepdims=True)
    group_idx = by_name[top[:, by_name].argmax(axis=1)].tolist()

    remaining = list(range(n))
    if ranking.scores is not None:
        remaining.sort(key=lambda i: -ranking.scores[i])
    exposure = np.zeros(schema.size)
    order = []
    for k in range(1, n + 1):
        candidates = remaining if spec.pool is None else remaining[: spec.pool]
        placed = float(exposure.sum())
        shares = exposure / placed if placed > 0 else np.zeros(schema.size)
        lag = (shares - target).tolist()
        pick = min(candidates, key=lambda i: (lag[group_idx[i]], names[group_idx[i]]))
        remaining.remove(pick)
        order.append(pick)
        # A weight depends on the items up to its own, so the last is final.
        weights = position_weights(cont[order], rows[:k], spec.browsing)
        exposure = exposure + weights[-1] * vectors[pick]

    # Both orders judged as one batch, under the greedy pass's own model.
    both = np.array([np.arange(n), order])
    exposures = group_exposure(position_weights(cont[both], rows, spec.browsing), vectors[both])
    before, after = awrf(exposures, target, DistanceSpec("l1"), schema)
    if after > before + 1e-12:
        return ranking
    return Ranking(
        request=ranking.request,
        sample=ranking.sample,
        items=tuple(items[i] for i in order),
        scores=None if ranking.scores is None else tuple(ranking.scores[i] for i in order),
    )
