r"""Readers and writers for run files, judgments, alignments, and results.

All inputs are UTF-8, newline-delimited text; ``\n``, ``\r\n`` and a lone
``\r`` each end a line. Lines whose first non-blank character is ``#``,
and blank lines, are ignored. Parsers reject malformed records instead of
repairing them, and every parse error names the 1-based line it came
from, a byte that is not UTF-8 included.

Run, judgment and alignment files are read as bytes once and tokenized
with numpy over the whole buffer: numeric columns are converted from
fixed-width byte columns, id columns are interned (sorted), and every
check runs in bulk, so no Python object is built per record. Document ids
stay UTF-8 bytes, in sorted byte-string arrays; request and group names
are decoded. On any failed check, and on input that reader leaves alone
(control bytes, non-ASCII whitespace, very wide fields), the file is read
again line by line, which names the first bad line and gives odd input
the meaning ``str.split`` gives it. A NUL byte in a document id, which a
fixed-width byte string cannot keep, is a parse error naming its line.
"""

from __future__ import annotations

import csv
import math
import os
import re
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from io import StringIO
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    AlignmentTable,
    GroupSchema,
    Ranking,
    RelevanceJudgments,
    argsort_ids,
    decode_ids,
    encode_ids,
)
from .errors import MetricError, ParseError


@dataclass(frozen=True, eq=False)
class RunFile:
    """Parsed ranked output of one system, held as columns.

    ``docs`` are the distinct document ids, sorted, as UTF-8 byte strings
    in one array, and ``doc_codes`` every ranked document as an index into
    them, ordered by (request, sample, rank). Sampled list ``i`` is
    ``doc_codes[list_offsets[i]:list_offsets[i + 1]]`` with the given
    ``scores``, and request ``j`` of :meth:`requests` owns the lists
    ``request_offsets[j]`` to ``request_offsets[j + 1]``, ordered by
    sample index.
    """

    system: str
    request_names: tuple[str, ...]
    docs: np.ndarray
    doc_codes: np.ndarray
    scores: np.ndarray
    samples: tuple[int, ...]
    list_offsets: np.ndarray
    request_offsets: np.ndarray

    @classmethod
    def from_rankings(cls, system: str, rankings: Mapping[str, Sequence[Ranking]]) -> "RunFile":
        """Columns of ``{request: rankings ordered by sample}``; a ranking
        without scores gets the ones :func:`write_run` writes for it."""
        requests = sorted(rankings)
        lists = [ranking for request in requests for ranking in rankings[request]]
        docs = sorted({doc for ranking in lists for doc in ranking.items})
        code = {doc: i for i, doc in enumerate(docs)}
        items = [doc for ranking in lists for doc in ranking.items]
        scores = [score for ranking in lists for score in _scores(ranking)]
        lengths = [len(ranking) for ranking in lists]
        counts = [len(rankings[request]) for request in requests]
        return cls(
            system,
            tuple(requests),
            encode_ids(docs),
            np.array([code[doc] for doc in items], dtype=np.int32),
            np.array(scores, dtype=np.float64),
            tuple(ranking.sample for ranking in lists),
            np.cumsum([0, *lengths]),
            np.cumsum([0, *counts]),
        )

    def requests(self) -> tuple[str, ...]:
        return self.request_names

    @cached_property
    def rankings(self) -> Mapping[str, tuple[Ranking, ...]]:
        """Request id to its sampled rankings, ordered by sample index; a
        request's :class:`Ranking` objects are built each time it is read,
        so the run holds no object per ranked document."""
        return _Rankings(self)

    def __eq__(self, other):
        if not isinstance(other, RunFile):
            return NotImplemented
        return (
            (self.system, self.request_names, self.samples)
            == (other.system, other.request_names, other.samples)
            and np.array_equal(self.docs, other.docs)
            and np.array_equal(self.doc_codes, other.doc_codes)
            # Bitwise, so NaN scores compare equal to themselves.
            and np.array_equal(self.scores.view(np.int64), other.scores.view(np.int64))
            and np.array_equal(self.list_offsets, other.list_offsets)
            and np.array_equal(self.request_offsets, other.request_offsets)
        )

    __hash__ = None


class _Rankings(Mapping):
    """Read-only ``{request: tuple[Ranking, ...]}`` view of a run's columns."""

    def __init__(self, run: RunFile):
        self._run = run
        self._index = dict(zip(run.request_names, range(len(run.request_names))))

    def __getitem__(self, request: str) -> tuple[Ranking, ...]:
        run = self._run
        j = self._index[request]
        out = []
        for i in range(run.request_offsets[j], run.request_offsets[j + 1]):
            span = slice(run.list_offsets[i], run.list_offsets[i + 1])
            out.append(
                Ranking(
                    request=request,
                    sample=run.samples[i],
                    items=tuple(decode_ids(run.docs[run.doc_codes[span]])),
                    scores=tuple(run.scores[span].tolist()),
                )
            )
        return tuple(out)

    def __contains__(self, request) -> bool:
        return request in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._run.request_names)

    def __len__(self) -> int:
        return len(self._index)


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


class _Declined(Exception):
    """The columnar reader leaves this input to the line-by-line reader."""


def _decode(path, raw: bytes) -> str:
    """The file's text; a byte that is not UTF-8 is a parse error naming
    its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(
            path, line, f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def read_text(path) -> str:
    """A UTF-8 text file's contents; a byte that is not UTF-8 is a parse
    error naming its line."""
    return _decode(path, Path(path).read_bytes())


def _data_lines(path, raw: bytes) -> Iterator[tuple[int, str]]:
    r"""(line number, line) of each record: lines end at ``\n``, ``\r\n`` or a
    lone ``\r``, as in ``open()``'s universal newlines; comment and blank
    lines are skipped."""
    text = _decode(path, raw).replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _records(path, raw: bytes, width: int, sep=None) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each record, split as ``str.split(sep)``
    splits it; a record without ``width`` fields is a parse error. Fields
    split on a separator are stripped."""
    for lineno, line in _data_lines(path, raw):
        fields = line.split(sep)
        if len(fields) != width:
            kind = "" if sep is None else "tab-separated "
            raise ParseError(path, lineno, f"expected {width} {kind}columns, got {len(fields)}")
        yield lineno, fields if sep is None else [field.strip() for field in fields]


def _number(path, lineno: int, text: str, name: str, kind=float, bounded: str = ""):
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


def _read(path, columns, lines):
    """The file read by the columnar reader ``columns``, or, where that
    declines it, by the line-by-line reader ``lines``. The file is read
    once, into the columnar reader's buffer; the line reader gets a copy
    of its bytes only when needed."""
    buf = _read_padded(path)
    try:
        return columns(buf)
    except _Declined:
        pass
    raw = buf[: len(buf) - 1 - _PAD].tobytes()
    del buf
    return lines(path, raw)


# The non-ASCII characters str.split() and str.strip() read as whitespace.
_UNICODE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_HASH = ord("#")
# Once _buffer has declined the other control bytes, the bytes up to a
# space are exactly the whitespace: space, tab, CR and LF.
_SPACE = ord(" ")


# The widest field the columnar reader takes; the buffer ends with this
# many NUL bytes, so a window of any field's width fits from every offset.
_PAD = 4096
# Offsets are found this many bytes at a time.
_CHUNK = 1 << 16


def _read_padded(path) -> np.ndarray:
    """The file's bytes, a final line break and ``_PAD`` NUL bytes, read
    straight into one array."""
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        buf = np.zeros(size + 1 + _PAD, dtype=np.uint8)
        size = file.readinto(memoryview(buf)[:size])
        rest = file.read()  # from a file without a size, such as a pipe
    if rest:
        return _padded(buf[:size].tobytes() + rest)
    buf[size] = ord("\n")
    return buf[: size + 1 + _PAD]


def _padded(raw: bytes) -> np.ndarray:
    """``raw``, a line break and ``_PAD`` NUL bytes, as one array."""
    buf = np.zeros(len(raw) + 1 + _PAD, dtype=np.uint8)
    buf[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    buf[len(raw)] = ord("\n")
    return buf


def _buffer(raw: bytes | np.ndarray) -> np.ndarray:
    """The file's bytes, a final line break and ``_PAD`` NUL bytes, when
    the columnar reader splits them into fields as ``str.split()`` would
    split the decoded lines; ``raw`` is the bytes, or that array as
    :func:`_read` reads it. Control bytes other than tab, CR and LF are
    declined: ``str.split()`` reads some as whitespace, and a NUL would
    vanish from the end of a fixed-width byte string. The splitters read
    the padding as whitespace past the last line."""
    buf = _padded(raw) if isinstance(raw, bytes) else raw
    data = buf[: len(buf) - 1 - _PAD]
    if len(data) >= 2**31 - 1 - _PAD:
        raise _Declined  # offsets are int32
    control = data[data < _SPACE]
    if ((control != ord("\t")) & (control != ord("\n")) & (control != ord("\r"))).any():
        raise _Declined
    if (data >= 0x80).any():
        try:
            text = str(data, "utf-8")
        except UnicodeDecodeError:
            raise _Declined from None
        if _UNICODE_SPACE.search(text):
            raise _Declined
    return buf


def _offsets(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)`` as int32, found a chunk at a time, so no
    int64 index of the whole buffer is built."""
    out = np.empty(np.count_nonzero(mask), dtype=np.int32)
    at = 0
    for lo in range(0, len(mask), _CHUNK):
        found = np.flatnonzero(mask[lo : lo + _CHUNK])
        found += lo
        out[at : at + len(found)] = found
        at += len(found)
    return out


def _breaks(buf: np.ndarray) -> np.ndarray:
    """Offsets of the line breaks: every CR and LF byte, ascending."""
    lf = _offsets(buf == ord("\n"))
    cr = _offsets(buf == ord("\r"))
    return np.sort(np.concatenate((lf, cr))) if len(cr) else lf


def _split_records(buf: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the whitespace-separated fields of every
    record line, each shaped (records, width)."""
    space = buf <= _SPACE
    edge = np.empty_like(space)
    edge[0] = not space[0]
    np.not_equal(space[1:], space[:-1], out=edge[1:])
    del space
    # The buffer ends in whitespace, so the edges are each field's start
    # and end in turn.
    bounds = _offsets(edge).reshape(-1, 2)
    del edge
    starts = bounds[:, 0]
    # A line's first field is the first one after a line break.
    leads = np.zeros(len(bounds) + 1, dtype=bool)
    leads[0] = True
    leads[np.searchsorted(starts, _breaks(buf))] = True
    first = np.flatnonzero(leads[:-1])
    counts = np.diff(first, append=len(bounds))
    record = buf[starts[first]] != _HASH
    if (counts[record] != width).any():
        raise _Declined
    if not record.all():
        bounds = bounds[np.repeat(record, counts)]
    bounds = bounds.reshape(-1, width, 2)
    return bounds[:, :, 0], bounds[:, :, 1]


def _split_tab_records(buf: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the tab-separated fields of every record
    line, each stripped of surrounding whitespace and shaped (records,
    width)."""
    breaks = _breaks(buf)
    line_start = np.concatenate(([0], breaks[:-1] + 1)).astype(np.int32)
    line_end = breaks
    lead = _skip_space(buf, line_start, line_end)
    record = lead < line_end
    record[record] = buf[lead[record]] != _HASH
    line_start, line_end = line_start[record], line_end[record]
    tabs = _offsets(buf == ord("\t"))
    first_tab = np.searchsorted(tabs, line_start)
    if (np.searchsorted(tabs, line_end) - first_tab != width - 1).any():
        raise _Declined
    cuts = tabs[first_tab[:, None] + np.arange(width - 1)]
    ends = np.column_stack((cuts, line_end))
    starts = _skip_space(buf, np.column_stack((line_start, cuts + 1)), ends)
    # Move each end back past trailing spaces (a non-empty field holds a
    # non-space byte at its start).
    back = (starts < ends) & (buf[ends - 1] <= _SPACE)
    if back.any():
        solid = _offsets(buf > _SPACE)
        ends[back] = solid[np.searchsorted(solid, ends[back]) - 1] + 1
    return starts, ends


def _skip_space(buf: np.ndarray, at: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The first offset from ``at`` on holding no whitespace, capped at
    ``stop``."""
    out = at.copy()
    look = (at < stop) & (buf[at] <= _SPACE)
    if look.any():
        solid = _offsets(buf > _SPACE)
        out[look] = np.append(solid, len(buf))[np.searchsorted(solid, at[look])]
    return np.minimum(out, stop)


def _column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The fields ``buf[starts[i]:ends[i]]`` as one fixed-width byte-string
    array (shorter fields NUL-padded, which numpy reads as their end)."""
    lengths = ends - starts
    width = max(int(lengths.max(initial=0)), 1)
    if width > _PAD or width * len(starts) > 2 * len(buf) + 4096:  # very wide fields
        raise _Declined
    # Each field's window of the buffer (the padding holds the last ones),
    # with the bytes past the field cleared one byte column at a time.
    out = sliding_window_view(buf, width)[starts]
    for j in range(width):
        out[lengths <= j, j] = 0
    return out.view(f"S{width}").ravel()


def _numbers(column: np.ndarray, dtype) -> np.ndarray:
    """Python's ``int``/``float`` reading of each field (numpy's cast from
    bytes follows it), declining what either rejects or cannot hold."""
    plain = _plain_numbers(column, dtype)
    if plain is not None:
        return plain
    try:
        return column.astype(dtype)
    except (ValueError, OverflowError):
        raise _Declined from None


# Powers of ten up to 10**15, each exact as a float.
_POW10 = np.array([float(10**k) for k in range(16)])


def _plain_numbers(column: np.ndarray, dtype) -> np.ndarray | None:
    """The fields of a column of plain decimals of at most 15 bytes, read
    by digit arithmetic; None for any other column. A plain decimal is
    ASCII digits and, in a float column, at most one ``.`` after the first
    digit. Its digits make an integer below 10**15, exact in int64 and in
    float64, and a float is that integer over a power of ten, both exact,
    so the one rounding of the division gives the correctly rounded value:
    the bits of Python's ``int``/``float``."""
    kind = np.dtype(dtype)
    width = column.dtype.itemsize
    if kind not in (np.int64, np.float64) or width > 15 or not len(column):
        return None
    # Decline a column with a sign, an exponent or any other byte before
    # building the byte matrices: first from each field's first byte, then
    # from all bytes, which must be digits, dots or NUL padding.
    raw = column.view(np.uint8)
    if not (
        (raw[::width] - np.uint8(48) < 10).all()
        and ((raw - np.uint8(48) < 10) | (raw == 46) | (raw == 0)).all()
    ):
        return None
    # One row per byte column; a field's NUL padding reads as its end.
    text = np.ascontiguousarray(raw.reshape(-1, width).T)
    digit = text - np.uint8(48) < 10
    dot = text == 46
    pad = text == 0
    if (pad[:-1] & ~pad[1:]).any() or dot.sum(axis=0, dtype=np.int8).max() > (kind == np.float64):
        return None
    value = np.zeros(len(column), dtype=np.int64)
    for j in range(width):
        value = np.where(digit[j], value * 10 + (text[j] - 48), value)
    if kind == np.int64:
        return value
    after_dot = digit & np.logical_or.accumulate(dot, axis=0)
    return value / _POW10[after_dot.sum(axis=0)]


def _intern(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a byte-string column, sorted (UTF-8 byte
    order is code point order); the row each is first seen in; and each
    row's index among them."""
    order = argsort_ids(column)
    ordered = column[order]
    new = np.ones(len(order), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    codes = np.empty(len(order), dtype=np.int32)
    codes[order] = np.cumsum(new) - 1
    return ordered[new], order[new], codes  # the sort is stable


def _repeats(keys: np.ndarray) -> bool:
    """Whether any value of ``keys`` occurs twice."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def parse_run(path) -> RunFile:
    """Read whitespace-separated ``qid iter docid rank score tag`` records.

    ``iter`` is the stochastic-policy sample index; the conventional
    placeholder ``Q0`` reads as sample 0. Records are grouped by
    (request, sample) and ordered by ascending rank; the rank order in the
    file is authoritative, scores are carried as-is. The system name is
    the first record's tag.
    """
    return _read(path, _run_columns, _parse_run_lines)


def _run_columns(raw: bytes | np.ndarray) -> RunFile:
    buf = _buffer(raw)
    starts, ends = _split_records(buf, 6)
    if not len(starts):
        raise _Declined
    system = buf[starts[0, 5] : ends[0, 5]].tobytes().decode("utf-8")
    request, it, doc, rank, score = (_column(buf, starts[:, j], ends[:, j]) for j in range(5))
    del buf, starts, ends
    requests, _, request = _intern(request)
    docs, _, doc = _intern(doc)
    sample = _numbers(np.where(it == b"Q0", b"0", it), np.int64)
    rank = _numbers(rank, np.int64)
    score = _numbers(score, np.float64)
    if (sample < 0).any():
        raise _Declined
    order = np.lexsort((rank, sample, request))
    request, sample, rank = request[order], sample[order], rank[order]
    new_list = np.concatenate(
        ([True], (request[1:] != request[:-1]) | (sample[1:] != sample[:-1]))
    )
    if (~new_list[1:] & (rank[1:] == rank[:-1])).any():
        raise _Declined  # a repeated rank
    doc = doc[order]
    if _repeats((np.cumsum(new_list) - 1) * len(docs) + doc):
        raise _Declined  # a repeated document
    list_starts = np.flatnonzero(new_list)
    list_request = request[list_starts]
    new_request = np.flatnonzero(np.diff(list_request, prepend=-1))
    return RunFile(
        system=system,
        request_names=tuple(decode_ids(requests)),
        docs=docs,
        doc_codes=doc,
        scores=score[order],
        samples=tuple(sample[list_starts].tolist()),
        list_offsets=np.append(list_starts, len(doc)),
        request_offsets=np.append(new_request, len(list_starts)),
    )


def _parse_run_lines(path, raw: bytes) -> RunFile:
    """Line-by-line :func:`parse_run`: names the first bad line."""
    records: dict[tuple[str, int], list[tuple[int, str, float]]] = {}
    seen_docs: set[tuple[str, int, str]] = set()
    seen_ranks: set[tuple[str, int, int]] = set()
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
    return RunFile.from_rankings(system, ordered)


def _check_id(path, lineno: int, doc: str) -> None:
    """A NUL in a document id is a parse error: ids are held as fixed-width
    byte strings, which drop trailing NULs."""
    if "\0" in doc:
        raise ParseError(path, lineno, f"document id {doc!r} holds a NUL byte")


def _scores(ranking: Ranking) -> tuple[float, ...]:
    """A ranking's scores; without them, ``len - rank``, highest first."""
    if ranking.scores is not None:
        return ranking.scores
    return tuple(float(len(ranking.items) - i) for i in range(len(ranking.items)))


def write_run(rankings: Iterable[Ranking], system: str, path) -> None:
    """Write rankings in the six-column run format, 0-based ranks."""
    ordered = sorted(rankings, key=lambda r: (r.request, r.sample))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for ranking in ordered:
            for rank, (doc, score) in enumerate(zip(ranking.items, _scores(ranking))):
                out.write(
                    f"{ranking.request} {ranking.sample} {doc} {rank} "
                    f"{_fmt(score)} {system}\n"
                )


def parse_alignment(path) -> AlignmentTable:
    """Read tab-separated ``docid group weight`` membership rows.

    Multiple rows per document accumulate and are L1-normalized. The
    schema covers every observed group name plus ``unknown``, sorted with
    unknown last. Documents keep the order they are first seen in.
    """
    return _read(path, _alignment_columns, _parse_alignment_lines)


def _alignment_columns(raw: bytes | np.ndarray) -> AlignmentTable:
    buf = _buffer(raw)
    starts, ends = _split_tab_records(buf, 3)
    if ((ends[:, :2] - starts[:, :2]) == 0).any():
        raise _Declined  # an empty document or group name
    weight = _numbers(_column(buf, starts[:, 2], ends[:, 2]), np.float64)
    if not (np.isfinite(weight) & (weight >= 0)).all():
        raise _Declined
    ids, first, doc = _intern(_column(buf, starts[:, 0], ends[:, 0]))
    groups, _, group = _intern(_column(buf, starts[:, 1], ends[:, 1]))
    del buf, starts, ends
    # Renumber the documents in the order they are first seen.
    seen = np.argsort(first)
    doc = np.argsort(seen)[doc]
    groups = decode_ids(groups)
    schema = GroupSchema.from_groups(groups)
    group = np.array([schema.index(name) for name in groups], dtype=np.intp)[group]
    shares = _shares(doc, group, weight, len(ids), schema.size)
    # The per-row arrays go before the table is built, which keeps them out
    # of the reader's peak memory.
    del doc, group, weight
    return AlignmentTable.from_rows(schema, ids[seen], shares)


def _shares(
    doc: np.ndarray, group: np.ndarray, weight: np.ndarray, docs: int, groups: int
) -> np.ndarray:
    """Each document's weights summed per group, over its total. A total
    adds the document's groups in the order first seen for it, as
    row-by-row sums do."""
    pairs, first_row = np.unique(doc * groups + group, return_index=True)
    pairs = pairs[np.lexsort((first_row, pairs // groups))]
    pair_doc = pairs // groups
    place = np.arange(len(pairs)) - np.searchsorted(pair_doc, pair_doc)
    acc = np.zeros((docs, groups))
    by_place = np.zeros((docs, groups))
    with np.errstate(over="ignore"):
        np.add.at(acc, (doc, group), weight)  # in file order, as row-by-row sums
        by_place[pair_doc, place] = acc[pair_doc, pairs % groups]
        total = by_place[:, 0].copy()
        for k in range(1, int(place.max(initial=0)) + 1):
            total += by_place[:, k]
    if not (np.isfinite(total) & (total > 0)).all():
        raise _Declined  # an all-zero document, or sums beyond the float range
    acc /= total[:, None]
    return acc


def _parse_alignment_lines(path, raw: bytes) -> AlignmentTable:
    """Line-by-line :func:`parse_alignment`: names the first bad line."""
    acc_by_doc: dict[str, dict[str, float]] = {}
    first_line: dict[str, int] = {}
    groups: set[str] = set()
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
        vec = [acc.get(name, 0.0) / total for name in schema.names]
        vectors[docid] = vec
    return AlignmentTable.from_weights(schema, vectors)


def parse_qrels(path) -> RelevanceJudgments:
    """Read whitespace-separated ``qid 0 docid grade`` judgments.

    The second column is ignored. Absent pairs read as grade 0.
    """
    return _read(path, _qrels_columns, _parse_qrels_lines)


def _qrels_columns(raw: bytes | np.ndarray) -> RelevanceJudgments:
    buf = _buffer(raw)
    starts, ends = _split_records(buf, 4)
    request, doc, grade = (_column(buf, starts[:, j], ends[:, j]) for j in (0, 2, 3))
    del buf, starts, ends
    grade = _numbers(grade, np.float64)
    if not (np.isfinite(grade) & (grade >= 0)).all():
        raise _Declined
    requests, _, request = _intern(request)
    docs, _, doc = _intern(doc)
    if _repeats(request.astype(np.int64) * len(docs) + doc):
        raise _Declined  # a repeated (request, document) judgment
    return RelevanceJudgments.from_columns(decode_ids(requests), docs, request, doc, grade)


def _parse_qrels_lines(path, raw: bytes) -> RelevanceJudgments:
    """Line-by-line :func:`parse_qrels`: names the first bad line."""
    grades: dict[tuple[str, str], float] = {}
    for lineno, (qid, _, docid, grade) in _records(path, raw, 4):
        _check_id(path, lineno, docid)
        grade = _number(path, lineno, grade, "grade", bounded="relevance grade")
        if (qid, docid) in grades:
            raise ParseError(path, lineno, f"duplicate judgment for {qid!r}/{docid!r}")
        grades[(qid, docid)] = grade
    return RelevanceJudgments(grades)


def parse_fixed_target(path, schema: GroupSchema) -> np.ndarray:
    """Read whitespace-separated ``group weight`` lines into a vector over
    the schema's groups; groups not listed weigh 0."""
    values = np.zeros(schema.size)
    seen = set()
    for lineno, line in _data_lines(path, Path(path).read_bytes()):
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


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# Each results field's text: floats at 12 significant digits.
_FORMATS = tuple(_fmt if kind is float else str for kind in _RESULT_TYPES)


def _csv_fields(cells: Sequence, formats: Sequence = _FORMATS) -> str:
    """``cells`` formatted by ``formats`` and quoted as CSV fields, comma
    joined, without a line end."""
    text = StringIO()
    csv.writer(text, lineterminator="\n").writerow(
        [fmt(cell) for fmt, cell in zip(formats, cells)]
    )
    return text.getvalue()[:-1]


class ResultsGrid(Sequence):
    """Results rows held as value grids, one per system: a value for each
    of the system's requests under each key, the fields between request
    and value (geometry to metric). Rows come in :meth:`ResultsRow.sort_key`
    order, systems sorted, then requests, then keys, and a row is built
    only when read; :func:`write_results` writes the grids as they are.

    ``systems`` holds ``(system, requests, values)`` with ``values[r, k]``
    the value of ``requests[r]`` under ``keys[k]``. A non-finite value is a
    :class:`MetricError` naming the first, systems and then rows taken in
    the order given.
    """

    def __init__(
        self, keys: Sequence[tuple], systems: Iterable[tuple[str, Sequence[str], np.ndarray]]
    ):
        systems = list(systems)
        for _, _, values in systems:
            bad = ~np.isfinite(values)
            if bad.any():
                raise MetricError(f"non-finite metric value: {float(values[bad][0])}")
        key_order = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = [keys[k] for k in key_order]
        self._grids = []
        for system, requests, values in sorted(systems, key=lambda grid: grid[0]):
            order = sorted(range(len(requests)), key=requests.__getitem__)
            self._grids.append(
                (system, [requests[r] for r in order], values[np.ix_(order, key_order)])
            )
        # The index of each grid's first row.
        self._starts = [0, *accumulate(values.size for _, _, values in self._grids)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # IndexError out of range
        g = bisect_right(self._starts, i) - 1
        system, requests, values = self._grids[g]
        r, k = divmod(i - self._starts[g], len(self._keys))
        return ResultsRow(system, requests[r], *self._keys[k], float(values[r, k]))

    def __eq__(self, other) -> bool:
        # Equal to a list of the same rows, so callers of ``measure`` may
        # compare its rows with a list.
        if not isinstance(other, (list, ResultsGrid)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def lines(self) -> Iterator[str]:
        """The CSV text of each system and request's rows."""
        middles = [_csv_fields(key, _FORMATS[2:-1]) for key in self._keys]
        for system, requests, values in self._grids:
            for request, row in zip(requests, values.tolist()):
                head = _csv_fields((system, request), _FORMATS[:2])
                yield "".join([f"{head},{middle},{_fmt(v)}\n" for middle, v in zip(middles, row)])


def write_results(rows: Sequence[ResultsRow], path) -> None:
    """Write rows as CSV with the fixed header, sorted, floats at 12
    significant digits. Identical inputs produce byte-identical files. The
    rows of a :class:`ResultsGrid` are written from its value grids, which
    are in order already."""
    if isinstance(rows, ResultsGrid):
        lines = rows.lines()
    else:
        ordered = sorted(rows, key=ResultsRow.sort_key)
        lines = (_csv_fields(_row_cells(row)) + "\n" for row in ordered)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_fields(RESULT_FIELDS, [str] * len(RESULT_FIELDS)) + "\n")
        handle.writelines(lines)


def read_results(path) -> list[ResultsRow]:
    """Read a results CSV produced by :func:`write_results`."""
    rows = []
    reader = csv.reader(StringIO(read_text(path), newline=""))
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
