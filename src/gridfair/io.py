"""Readers and writers for run files, judgments, alignments, and results.

All inputs are UTF-8, newline-delimited text; lines starting with ``#``
and blank lines are ignored. Parsers reject malformed records instead of
repairing them, and every parse error names the 1-based line it came from.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .core import AlignmentTable, GroupSchema, Ranking, RelevanceJudgments
from .errors import MetricError, ParseError


@dataclass(frozen=True)
class RunFile:
    """Parsed ranked output of one system: request id to the list of its
    sampled rankings, ordered by sample index."""

    system: str
    rankings: Mapping[str, tuple[Ranking, ...]]

    def requests(self) -> tuple[str, ...]:
        return tuple(sorted(self.rankings))


@dataclass(frozen=True)
class ResultsRow:
    """One measured value for (system, request, layout, model, metric)."""

    system: str
    request: str
    geometry: str
    columns: int
    reduction: str
    base: str
    adjustment: str
    alpha: float
    gamma: float
    beta: float
    metric: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise MetricError(f"non-finite metric value: {self.value}")

    def sort_key(self):
        """Every field but the value, in declaration order."""
        return _row_key(self)


RESULT_FIELDS = tuple(f.name for f in fields(ResultsRow))
_row_key = attrgetter(*(name for name in RESULT_FIELDS if name != "value"))
_row_cells = attrgetter(*RESULT_FIELDS)
# Field types double as the reader's conversions from CSV text.
_RESULT_TYPES = tuple(get_type_hints(ResultsRow)[name] for name in RESULT_FIELDS)


def _data_lines(path):
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def parse_run(path) -> RunFile:
    """Read whitespace-separated ``qid iter docid rank score tag`` records.

    ``iter`` is the stochastic-policy sample index; the conventional
    placeholder ``Q0`` reads as sample 0. Records are grouped by
    (request, sample) and ordered by ascending rank; the rank order in the
    file is authoritative, scores are carried as-is.
    """
    records: dict[tuple[str, int], list[tuple[int, str, float]]] = {}
    seen_docs: set[tuple[str, int, str]] = set()
    seen_ranks: set[tuple[str, int, int]] = set()
    system = None
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(path, lineno, f"expected 6 columns, got {len(parts)}")
        qid, it, docid, rank_s, score_s, tag = parts
        if it == "Q0":
            sample = 0
        else:
            try:
                sample = int(it)
            except ValueError:
                raise ParseError(path, lineno, f"sample index {it!r} is not an integer")
            if sample < 0:
                raise ParseError(path, lineno, f"negative sample index {sample}")
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(path, lineno, f"rank {rank_s!r} is not an integer")
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(path, lineno, f"score {score_s!r} is not a number")
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
    rankings: dict[str, list[Ranking]] = {}
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
        qid: tuple(sorted(lists, key=lambda r: r.sample))
        for qid, lists in rankings.items()
    }
    return RunFile(system=system, rankings=ordered)


def write_run(rankings: Iterable[Ranking], system: str, path) -> None:
    """Write rankings in the six-column run format, 0-based ranks."""
    ordered = sorted(rankings, key=lambda r: (r.request, r.sample))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for ranking in ordered:
            scores = ranking.scores or tuple(
                float(len(ranking.items) - i) for i in range(len(ranking.items))
            )
            for rank, (doc, score) in enumerate(zip(ranking.items, scores)):
                out.write(
                    f"{ranking.request} {ranking.sample} {doc} {rank} "
                    f"{_fmt(score)} {system}\n"
                )


def parse_alignment(path) -> AlignmentTable:
    """Read tab-separated ``docid group weight`` membership rows.

    Multiple rows per document accumulate and are L1-normalized. The
    schema covers every observed group name plus ``unknown``, sorted with
    unknown last.
    """
    raw: dict[str, dict[str, float]] = {}
    first_line: dict[str, int] = {}
    groups: set[str] = set()
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 tab-separated columns, got {len(parts)}")
        docid, group, weight_s = (p.strip() for p in parts)
        if not docid or not group:
            raise ParseError(path, lineno, "empty document or group name")
        try:
            weight = float(weight_s)
        except ValueError:
            raise ParseError(path, lineno, f"weight {weight_s!r} is not a number")
        if not math.isfinite(weight):
            raise ParseError(path, lineno, f"non-finite membership weight {weight_s!r}")
        if weight < 0:
            raise ParseError(path, lineno, f"negative membership weight {weight}")
        groups.add(group)
        acc = raw.setdefault(docid, {})
        acc[group] = acc.get(group, 0.0) + weight
        first_line.setdefault(docid, lineno)
    schema = GroupSchema.from_groups(groups)
    vectors = {}
    for docid, acc in raw.items():
        total = sum(acc.values())
        if total <= 0:
            raise ParseError(
                path, first_line[docid], f"document {docid!r} has all-zero membership"
            )
        vec = [acc.get(name, 0.0) / total for name in schema.names]
        vectors[docid] = vec
    return AlignmentTable.from_weights(schema, vectors)


def parse_qrels(path) -> RelevanceJudgments:
    """Read whitespace-separated ``qid 0 docid grade`` judgments.

    The second column is ignored. Absent pairs read as grade 0.
    """
    grades: dict[tuple[str, str], float] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 columns, got {len(parts)}")
        qid, _, docid, grade_s = parts
        try:
            grade = float(grade_s)
        except ValueError:
            raise ParseError(path, lineno, f"grade {grade_s!r} is not a number")
        if not math.isfinite(grade):
            raise ParseError(path, lineno, f"non-finite relevance grade {grade_s!r}")
        if grade < 0:
            raise ParseError(path, lineno, f"negative relevance grade {grade}")
        if (qid, docid) in grades:
            raise ParseError(path, lineno, f"duplicate judgment for {qid!r}/{docid!r}")
        grades[(qid, docid)] = grade
    return RelevanceJudgments(grades)


def parse_fixed_target(path, schema: GroupSchema) -> np.ndarray:
    """Read whitespace-separated ``group weight`` lines into a vector over
    the schema's groups; groups not listed weigh 0."""
    values = np.zeros(schema.size)
    seen = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'group weight', got {line.strip()!r}")
        name, weight_s = parts
        if name not in schema.names:
            raise ParseError(path, lineno, f"group {name!r} not in the alignment schema")
        if name in seen:
            raise ParseError(path, lineno, f"duplicate group {name!r}")
        try:
            weight = float(weight_s)
        except ValueError:
            raise ParseError(path, lineno, f"weight {weight_s!r} is not a number")
        if not math.isfinite(weight):
            raise ParseError(path, lineno, f"non-finite target weight {weight_s!r}")
        if weight < 0:
            raise ParseError(path, lineno, f"negative target weight {weight}")
        values[schema.index(name)] = weight
        seen.add(name)
    return values


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_results(rows: Sequence[ResultsRow], path) -> None:
    """Write rows as CSV with the fixed header, sorted, floats at 12
    significant digits. Identical inputs produce byte-identical files."""
    ordered = sorted(rows, key=ResultsRow.sort_key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        formats = [_fmt if kind is float else str for kind in _RESULT_TYPES]
        for row in ordered:
            writer.writerow([fmt(cell) for fmt, cell in zip(formats, _row_cells(row))])


def read_results(path) -> list[ResultsRow]:
    """Read a results CSV produced by :func:`write_results`."""
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(RESULT_FIELDS):
            raise ParseError(path, 1, f"unexpected header {header}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(RESULT_FIELDS):
                raise ParseError(
                    path, lineno, f"expected {len(RESULT_FIELDS)} fields, got {len(record)}"
                )
            try:
                rows.append(
                    ResultsRow(*(kind(cell) for kind, cell in zip(_RESULT_TYPES, record)))
                )
            except (ValueError, MetricError) as exc:
                raise ParseError(path, lineno, str(exc))
    return rows
