r"""Readers and writers for run files, judgments, alignments, and results.

All inputs are UTF-8, newline-delimited text; one leading byte-order mark
is skipped, and ``\n``, ``\r\n`` and a lone ``\r`` each end a line. Lines
whose first non-blank character is ``#``, and blank lines, are ignored.
Parsers reject malformed records instead of repairing them, and every parse
error names the 1-based line it came from, a byte that is not UTF-8
included.

Run, judgment, alignment and fixed-target files are each read one way: as
bytes once, split into fields with numpy over the whole buffer, converted a
column at a time and checked in bulk. Whitespace is every byte of the
characters ``str.split()`` and ``str.strip()`` take for whitespace, ASCII
and Unicode; other control bytes, NUL too, are field bytes. Each input rule
is a mask over the records, and the reader raises the error of the first
record that breaks one, taking a record's rules in the order its fields
come; the records end at the first line with another number of fields. Id
columns are interned (sorted) as fixed-width byte strings, or as ``bytes``
objects where a field holds a NUL or is very wide; a number numpy cannot
read or hold is read by Python's ``int``/``float``. Document ids stay UTF-8
bytes, in sorted byte-string arrays, so a NUL in one is a parse error;
request and group names are decoded.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from io import StringIO
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
        without scores gets ``len - rank``, highest first."""
        requests = sorted(rankings)
        lists = [ranking for request in requests for ranking in rankings[request]]
        docs = sorted({doc for ranking in lists for doc in ranking.items})
        code = {doc: i for i, doc in enumerate(docs)}
        items = [doc for ranking in lists for doc in ranking.items]
        scores = [s for ranking in lists for s in (ranking.scores or range(len(ranking), 0, -1))]
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


RESULT_FIELDS = tuple(f.name for f in fields(ResultsRow))
# Field types double as the reader's conversions from CSV text.
_RESULT_TYPES = tuple(get_type_hints(ResultsRow)[name] for name in RESULT_FIELDS)


def _utf8_error(path, raw, exc: UnicodeDecodeError) -> ParseError:
    """The parse error of ``raw``'s first byte that is not UTF-8."""
    head = bytes(raw[: exc.start])
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ParseError(path, line, f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})")


def read_text(path) -> str:
    """A UTF-8 text file's contents after one leading byte-order mark; a
    byte that is not UTF-8 is a parse error naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, raw, exc) from None


_LF, _CR, _TAB, _HASH, _SPACE = b"\n\r\t# "
# The bytes of the characters str.split() and str.strip() read as
# whitespace: the ASCII ones by value, the others by their UTF-8 bytes.
_ASCII_SPACE = np.array([c < 128 and chr(c).isspace() for c in range(256)])
_UNICODE_SPACE = [
    chr(c).encode()
    for c in (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
]
# The widest field a byte-string column takes; the buffer ends with this
# many NUL bytes, so a window of any field's width fits from every offset.
_PAD = 4096
# Offsets are found this many bytes at a time.
_CHUNK = 1 << 16


def _read_padded(path) -> np.ndarray:
    """The file's bytes after one leading byte-order mark, a final line
    break and ``_PAD`` NUL bytes, read straight into one array; a byte that
    is not UTF-8 is a parse error naming its line."""
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        buf = np.zeros(size + 1 + _PAD, dtype=np.uint8)
        size = file.readinto(memoryview(buf)[:size])
        rest = file.read()  # from a file without a size, such as a pipe
    if rest:
        buf = np.frombuffer(buf[:size].tobytes() + rest + bytes(1 + _PAD), dtype=np.uint8).copy()
        size += len(rest)
    buf[size] = _LF
    buf = buf[3 if buf[:3].tobytes() == "\ufeff".encode() else 0 : size + 1 + _PAD]
    data = buf[: len(buf) - 1 - _PAD]
    if data.max(initial=0) >= 0x80:
        try:
            str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise _utf8_error(path, data, exc) from None
    return buf


def _offsets(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)``, found a chunk at a time, as int32 below
    2 GiB, so no int64 index of the whole buffer is built."""
    dtype = np.int32 if len(mask) < 2**31 else np.int64
    out = np.empty(np.count_nonzero(mask), dtype=dtype)
    at = 0
    for lo in range(0, len(mask), _CHUNK):
        found = np.flatnonzero(mask[lo : lo + _CHUNK])
        found += lo
        out[at : at + len(found)] = found
        at += len(found)
    return out


def _whitespace(buf: np.ndarray) -> np.ndarray:
    """Whether each byte is part of a character ``str.split()`` splits on;
    the padding is whitespace too, and other control bytes, NUL included,
    are field bytes."""
    data = buf[: len(buf) - _PAD]
    # Control bytes that are not whitespace: those below tab, and 0x0e to
    # 0x1b, found shifted to 0 to 13 in the array the mask then reuses.
    shifted = buf - np.uint8(0x0E)
    odd = data.min() < _TAB or shifted[: len(data)].min() < 0x1C - 0x0E
    space = np.less_equal(buf, _SPACE, out=shifted.view(bool))
    if odd:
        space = _ASCII_SPACE[buf]
        space[len(data) :] = True
    if data.max() >= 0x80:  # valid UTF-8, so each match is a character
        leads = {lead: _offsets(data == lead) for lead in {code[0] for code in _UNICODE_SPACE}}
        for code in _UNICODE_SPACE:
            at = leads[code[0]]
            for k in range(1, len(code)):
                at = at[buf[at + k] == code[k]]
            for k in range(len(code)):
                space[at + k] = True
    return space


def _breaks(buf: np.ndarray) -> np.ndarray:
    """Offsets of the line ends, ascending: every LF, and every CR not
    followed by one (the CR of a CRLF is whitespace at its line's end)."""
    lf = _offsets(buf == _LF)
    cr = _offsets(buf == _CR)
    return np.sort(np.concatenate((lf, cr[buf[cr + 1] != _LF]))) if len(cr) else lf


def _ragged(lines: np.ndarray, counts: np.ndarray, width: int, kind: str = ""):
    """How many record lines come before the first without ``width``
    fields, and that line's (line, message), or None."""
    bad = np.flatnonzero(counts != width)
    if not len(bad):
        return len(lines), None
    cut = bad[0]
    return cut, (int(lines[cut]), f"expected {width} {kind}columns, got {counts[cut]}")


def _split_records(buf: np.ndarray, width: int):
    """The whitespace-separated fields of the record lines, as
    ``str.split()`` splits each decoded line: their start and end offsets,
    each shaped (records, width), and each record's line number. Records
    end before the first record line with another number of fields, given
    as its (line, message), or None."""
    space = _whitespace(buf)
    edge = np.empty_like(space)
    edge[0] = not space[0]
    np.not_equal(space[1:], space[:-1], out=edge[1:])
    del space
    # The buffer ends in whitespace, so the edges are each field's start
    # and end in turn.
    bounds = _offsets(edge).reshape(-1, 2)
    del edge
    # The number of fields before each line end gives each line's fields.
    before = np.searchsorted(bounds[:, 0], _breaks(buf))
    counts = np.diff(before, prepend=0)
    lines = np.flatnonzero(counts)
    counts = counts[lines]
    record = buf[bounds[before[lines] - counts, 0]] != _HASH
    del before
    lines = lines[record] + 1
    cut, ragged = _ragged(lines, counts[record], width)
    if ragged:
        record[np.flatnonzero(record)[cut:]] = False
    if not record.all():
        bounds = bounds[np.repeat(record, counts)]
    bounds = bounds.reshape(-1, width, 2)
    return bounds[:, :, 0], bounds[:, :, 1], lines[:cut].astype(np.int32), ragged


def _split_tab_records(buf: np.ndarray, width: int):
    """The tab-separated fields of the record lines, as ``str.split("\\t")``
    splits each decoded line, each field stripped as ``str.strip()``
    strips it; returned as :func:`_split_records` returns them."""
    space = _whitespace(buf)
    breaks = _breaks(buf)
    line_start = np.concatenate(([0], breaks[:-1] + 1)).astype(breaks.dtype)
    # A CRLF line ends at its CR.
    line_end = breaks - ((buf[breaks] == _LF) & (buf[breaks - 1] == _CR))
    del breaks
    lead = _skip_space(space, line_start, line_end)
    record = lead < line_end
    record[record] = buf[lead[record]] != _HASH
    del lead
    lines = np.flatnonzero(record) + 1
    line_start, line_end = line_start[record], line_end[record]
    tabs = _offsets(buf == _TAB)
    first_tab = np.searchsorted(tabs, line_start)
    counts = np.searchsorted(tabs, line_end) - first_tab + 1
    cut, ragged = _ragged(lines, counts, width, "tab-separated ")
    del counts
    line_start, line_end, lines = line_start[:cut], line_end[:cut], lines[:cut]
    cuts = tabs[first_tab[:cut, None] + np.arange(width - 1)]
    del tabs, first_tab
    ends = np.column_stack((cuts, line_end))
    starts = _skip_space(space, np.column_stack((line_start, cuts + 1)), ends)
    # Move each end back past trailing whitespace (a non-empty field holds
    # a non-space byte at its start).
    back = (starts < ends) & space[ends - 1]
    if back.any():
        solid = _offsets(~space)
        ends[back] = solid[np.searchsorted(solid, ends[back]) - 1] + 1
    return starts, ends, lines.astype(np.int32), ragged


def _skip_space(space: np.ndarray, at: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The first offset from ``at`` on holding no whitespace, capped at
    ``stop``."""
    out = at.copy()
    look = (at < stop) & space[at]
    if look.any():
        solid = _offsets(~space)
        out[look] = np.append(solid, len(space))[np.searchsorted(solid, at[look])]
    return np.minimum(out, stop)


def _column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The fields ``buf[starts[i]:ends[i]]`` as one fixed-width byte-string
    array (shorter fields NUL-padded, which numpy reads as their end), or,
    where that cannot hold them exactly (a NUL byte in a field) or cheaply
    (very wide fields), as an object array of ``bytes``."""
    lengths = ends - starts
    width = max(int(lengths.max(initial=0)), 1)
    if width <= _PAD and width * len(starts) <= 2 * len(buf) + 4096:
        # Each field's window of the buffer (the padding holds the last
        # ones), with the bytes past the field cleared one byte column at a
        # time; a field holding a NUL leaves fewer bytes than its length.
        out = sliding_window_view(buf, width)[starts]
        for j in range(width):
            out[lengths <= j, j] = 0
        if np.count_nonzero(out) == lengths.sum():
            return out.view(f"S{width}").ravel()
    out = np.empty(len(starts), dtype=object)
    out[:] = [buf[a:b].tobytes() for a, b in zip(starts.tolist(), ends.tolist())]
    return out


def _numbers(column: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """Each field as Python's ``int`` (``dtype`` int64) or ``float``
    (float64) reads it, and a mask of the fields it rejects, None when it
    takes them all. Plain decimals are read by digit arithmetic, other
    columns by numpy's cast, which reads as Python does where it succeeds;
    a column the cast cannot read or hold is read field by field, and one
    holding an integer beyond int64 is an object array of ``int``."""
    if column.dtype != object:
        plain = _plain_numbers(column, dtype)
        if plain is not None:
            return plain, None
        try:
            return column.astype(dtype), None
        except (ValueError, OverflowError):
            pass
    kind = int if dtype == np.int64 else float
    failed = np.zeros(len(column), dtype=bool)
    values = []
    for i, field in enumerate(column.tolist()):
        try:
            values.append(kind(field.decode("utf-8")))
        except ValueError:
            values.append(kind(0))
            failed[i] = True
    try:
        out = np.array(values, dtype=dtype)
    except OverflowError:
        out = np.empty(len(values), dtype=object)
        out[:] = values
    return out, failed if failed.any() else None


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


def _sort_key(values: np.ndarray) -> np.ndarray:
    """``values`` as numbers numpy sorts: an object array of ``int`` as
    each value's rank among them."""
    return values if values.dtype != object else np.unique(values, return_inverse=True)[1]


def _intern(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a byte-string column, sorted (UTF-8 byte
    order is code point order); the row each is first seen in; and each
    row's index among them."""
    order = argsort_ids(column) if column.dtype != object else np.argsort(column, kind="stable")
    ordered = column[order]
    new = np.ones(len(order), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    codes = np.empty(len(order), dtype=np.int32)
    codes[order] = np.cumsum(new) - 1
    return ordered[new], order[new], codes  # the sort is stable


def _repeats(keys: np.ndarray) -> np.ndarray | None:
    """Whether each key occurs at an earlier index; None if none does."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:][ordered[1:] == ordered[:-1]]] = True
    return out


def _number_rules(column: np.ndarray, dtype, name: str, bounded: str = ""):
    """The column's numbers (:func:`_numbers`) and its rules for
    :func:`_check`: each field is a number, quoted as ``name`` when it is
    not; with ``bounded``, its name in these messages, also finite and not
    negative."""
    values, failed = _numbers(column, dtype)
    expected = "an integer" if dtype == np.int64 else "a number"
    rules = [(failed, lambda i: f"{name} {column[i].decode()!r} is not {expected}")]
    if bounded and dtype == np.float64:
        finite = np.isfinite(values)
        rules.append((~finite, lambda i: f"non-finite {bounded} {column[i].decode()!r}"))
    if bounded:
        rules.append((values < 0, lambda i: f"negative {bounded} {values.item(i)}"))
    return values, rules


def _nul_rule(docs: np.ndarray, doc: np.ndarray):
    """The rule that a document id holds no NUL byte, which a fixed-width
    byte string cannot keep; ``doc`` indexes the distinct ids ``docs``."""
    nul = None
    if docs.dtype == object:  # a byte-string array holds no NUL
        nul = np.array([b"\0" in name for name in docs.tolist()], dtype=bool)[doc]
    return nul, lambda i: f"document id {docs[doc[i]].decode()!r} holds a NUL byte"


def _check(path, lines: np.ndarray, ragged, *rules) -> None:
    """Raise the parse error of the first record that breaks a rule, the
    first rule it breaks in the order given; else that of the first line
    with another number of fields, ``ragged``, if there is one. A rule is
    a mask of the records that break it, or None, and the message of one
    that does."""
    rules = [(mask, message) for mask, message in rules if mask is not None and mask.any()]
    if rules:
        first = min(int(np.argmax(mask)) for mask, _ in rules)
        message = next(message for mask, message in rules if mask[first])
        raise ParseError(path, int(lines[first]), message(first))
    if ragged:
        raise ParseError(path, *ragged)


def parse_run(path) -> RunFile:
    """Read whitespace-separated ``qid iter docid rank score tag`` records.

    ``iter`` is the stochastic-policy sample index; the conventional
    placeholder ``Q0`` reads as sample 0. Records are grouped by
    (request, sample) and ordered by ascending rank; the rank order in the
    file is authoritative, scores are carried as-is. The system name is
    the first record's tag.
    """
    buf = _read_padded(path)
    starts, ends, lines, ragged = _split_records(buf, 6)
    system = buf[starts[0, 5] : ends[0, 5]].tobytes().decode("utf-8") if len(starts) else ""
    request, it, doc, rank, score = (_column(buf, starts[:, j], ends[:, j]) for j in range(5))
    del buf, starts, ends
    requests, _, request = _intern(request)
    docs, _, doc = _intern(doc)
    it = np.where(it == b"Q0", b"0", it)
    sample, sample_rules = _number_rules(it, np.int64, "sample index", "sample index")
    rank, rank_rules = _number_rules(rank, np.int64, "rank")
    score, score_rules = _number_rules(score, np.float64, "score")
    # A list is a (request, sample); its records go by rank, then by line.
    sample_key, rank_key = _sort_key(sample), _sort_key(rank)
    order = np.lexsort((rank_key, sample_key, request))
    new_list = np.ones(len(order), dtype=bool)
    new_list[1:] = (np.diff(request[order]) != 0) | (np.diff(sample_key[order]) != 0)
    same_rank = np.zeros(len(order), dtype=bool)
    same_rank[order[1:][~new_list[1:] & (np.diff(rank_key[order]) == 0)]] = True
    list_of = np.empty(len(order), dtype=np.int64)
    list_of[order] = np.cumsum(new_list) - 1

    def where(i):
        return f"in request {requests[request[i]].decode()!r} sample {sample.item(i)}"

    duplicate = _repeats(list_of * len(docs) + doc)
    _check(
        path,
        lines,
        ragged,
        _nul_rule(docs, doc),
        *sample_rules,
        *rank_rules,
        *score_rules,
        (duplicate, lambda i: f"duplicate document {docs[doc[i]].decode()!r} {where(i)}"),
        (same_rank, lambda i: f"duplicate rank {rank.item(i)} {where(i)}"),
    )
    if not len(doc):
        raise ParseError(path, 1, "run file contains no records")
    list_starts = np.flatnonzero(new_list)
    new_request = np.flatnonzero(np.diff(request[order[list_starts]], prepend=-1))
    return RunFile(
        system=system,
        request_names=tuple(decode_ids(requests)),
        docs=np.asarray(docs, dtype=bytes),
        doc_codes=doc[order],
        scores=score[order],
        samples=tuple(sample[order[list_starts]].tolist()),
        list_offsets=np.append(list_starts, len(doc)),
        request_offsets=np.append(new_request, len(list_starts)),
    )


def _score_text(score: float) -> str:
    """``score`` at 12 significant digits where that text reads back to
    it, else the shortest text that does."""
    text = _fmt(score)
    return text if float(text) == score else repr(float(score))


def write_run(run: RunFile, path) -> None:
    """Write a run's lists in the six-column run format, in the run's
    (request, sample) order with 0-based ranks; each score reads back as
    the same float."""
    docs = decode_ids(run.docs)
    counts = np.diff(run.request_offsets).tolist()
    requests = [name for name, count in zip(run.request_names, counts) for _ in range(count)]
    bounds = run.list_offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for request, sample, a, b in zip(requests, run.samples, bounds[:-1], bounds[1:]):
            items = zip(run.doc_codes[a:b].tolist(), run.scores[a:b].tolist())
            for rank, (code, score) in enumerate(items):
                out.write(
                    f"{request} {sample} {docs[code]} {rank} {_score_text(score)} {run.system}\n"
                )


def parse_alignment(path) -> AlignmentTable:
    """Read tab-separated ``docid group weight`` membership rows.

    Multiple rows per document accumulate and are L1-normalized. The
    schema covers every observed group name plus ``unknown``, sorted with
    unknown last. Documents keep the order they are first seen in.
    """
    buf = _read_padded(path)
    starts, ends, lines, ragged = _split_tab_records(buf, 3)
    empty = ((ends[:, :2] - starts[:, :2]) == 0).any(axis=1)
    ids, first, doc = _intern(_column(buf, starts[:, 0], ends[:, 0]))
    groups, _, group = _intern(_column(buf, starts[:, 1], ends[:, 1]))
    weight = _column(buf, starts[:, 2], ends[:, 2])
    del buf, starts, ends
    weight, weight_rules = _number_rules(weight, np.float64, "weight", "membership weight")
    empty_rule = (empty, lambda i: "empty document or group name")
    _check(path, lines, ragged, empty_rule, _nul_rule(ids, doc), *weight_rules)
    # Renumber the documents in the order they are first seen.
    seen = np.argsort(first)
    doc = np.argsort(seen)[doc]
    groups = decode_ids(groups)
    schema = GroupSchema.from_groups(groups)
    group = np.array([schema.index(name) for name in groups], dtype=np.intp)[group]
    shares, total = _shares(doc, group, weight, len(ids), schema.size)
    # The per-row arrays go before the table is built, which keeps them out
    # of the reader's peak memory.
    del doc, group, weight
    zero = np.flatnonzero(total <= 0)
    if len(zero):
        d = seen[zero[0]]
        message = f"document {ids[d].decode()!r} has all-zero membership"
        raise ParseError(path, int(lines[first[d]]), message)
    return AlignmentTable.from_rows(schema, np.asarray(ids, dtype=bytes)[seen], shares)


def _shares(
    doc: np.ndarray, group: np.ndarray, weight: np.ndarray, docs: int, groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each document's weights summed per group, over its total, and the
    totals. A total adds the document's groups in the order first seen for
    it, as row-by-row sums do; a sum beyond the float range stays as it
    comes out, for the table's checks."""
    pairs, first_row = np.unique(doc * groups + group, return_index=True)
    pairs = pairs[np.lexsort((first_row, pairs // groups))]
    pair_doc = pairs // groups
    place = np.arange(len(pairs)) - np.searchsorted(pair_doc, pair_doc)
    acc = np.zeros((docs, groups))
    by_place = np.zeros((docs, groups))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.add.at(acc, (doc, group), weight)  # in file order, as row-by-row sums
        by_place[pair_doc, place] = acc[pair_doc, pairs % groups]
        total = by_place[:, 0].copy()
        for k in range(1, int(place.max(initial=0)) + 1):
            total += by_place[:, k]
        acc /= total[:, None]
    return acc, total


def parse_qrels(path) -> RelevanceJudgments:
    """Read whitespace-separated ``qid 0 docid grade`` judgments.

    The second column is ignored. Absent pairs read as grade 0.
    """
    buf = _read_padded(path)
    starts, ends, lines, ragged = _split_records(buf, 4)
    request, doc, grade = (_column(buf, starts[:, j], ends[:, j]) for j in (0, 2, 3))
    del buf, starts, ends
    grade, grade_rules = _number_rules(grade, np.float64, "grade", "relevance grade")
    requests, _, request = _intern(request)
    docs, _, doc = _intern(doc)
    duplicate = _repeats(request.astype(np.int64) * len(docs) + doc)
    _check(
        path,
        lines,
        ragged,
        _nul_rule(docs, doc),
        *grade_rules,
        (
            duplicate,
            lambda i: "duplicate judgment for "
            f"{requests[request[i]].decode()!r}/{docs[doc[i]].decode()!r}",
        ),
    )
    docs = np.asarray(docs, dtype=bytes)
    return RelevanceJudgments.from_columns(decode_ids(requests), docs, request, doc, grade)


def parse_fixed_target(path, schema: GroupSchema) -> np.ndarray:
    """Read whitespace-separated ``group weight`` lines into a vector over
    the schema's groups; groups not listed weigh 0."""
    buf = _read_padded(path)
    starts, ends, lines, ragged = _split_records(buf, 2)
    if ragged:
        text = str(buf[: len(buf) - 1 - _PAD], "utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line = text.split("\n")[ragged[0] - 1].strip()
        ragged = (ragged[0], f"expected 'group weight', got {line!r}")
    names, _, name = _intern(_column(buf, starts[:, 0], ends[:, 0]))
    weight = _column(buf, starts[:, 1], ends[:, 1])
    weight, weight_rules = _number_rules(weight, np.float64, "weight", "target weight")
    names = decode_ids(names)
    index = np.array([schema.names.index(n) if n in schema.names else -1 for n in names], int)
    index = index[name]
    _check(
        path,
        lines,
        ragged,
        (index < 0, lambda i: f"group {names[name[i]]!r} not in the alignment schema"),
        (_repeats(name), lambda i: f"duplicate group {names[name[i]]!r}"),
        *weight_rules,
    )
    values = np.zeros(schema.size)
    values[index] = weight
    return values


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# Each results field's text: floats at 12 significant digits.
_FORMATS = tuple(_fmt if kind is float else str for kind in _RESULT_TYPES)


def _csv_fields(cells: Sequence, formats: Sequence) -> str:
    """``cells`` formatted by ``formats`` and quoted as CSV fields, comma
    joined, without a line end."""
    text = StringIO()
    csv.writer(text, lineterminator="\n").writerow(
        [fmt(cell) for fmt, cell in zip(formats, cells)]
    )
    return text.getvalue()[:-1]


class ResultsGrid:
    """Results rows held as value grids, one per system: a value for each
    of the system's requests under each key, the fields between request
    and value (geometry to metric). Rows come in CSV order, systems sorted,
    then requests, then keys; ``len`` counts them without building one, and
    iterating builds each :class:`ResultsRow` with its exact value.

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

    def __len__(self) -> int:
        return sum(values.size for _, _, values in self._grids)

    def __iter__(self) -> Iterator[ResultsRow]:
        for system, requests, values in self._grids:
            for request, row in zip(requests, values.tolist()):
                for key, value in zip(self._keys, row):
                    yield ResultsRow(system, request, *key, value)

    def lines(self) -> Iterator[str]:
        """The CSV text of each system and request's rows."""
        middles = [_csv_fields(key, _FORMATS[2:-1]) for key in self._keys]
        for system, requests, values in self._grids:
            for request, row in zip(requests, values.tolist()):
                head = _csv_fields((system, request), _FORMATS[:2])
                yield "".join([f"{head},{middle},{_fmt(v)}\n" for middle, v in zip(middles, row)])


def write_results(grid: ResultsGrid, path) -> None:
    """Write a results grid as CSV with the fixed header, in the grid's row
    order, floats at 12 significant digits. Identical inputs produce
    byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_fields(RESULT_FIELDS, [str] * len(RESULT_FIELDS)) + "\n")
        handle.writelines(grid.lines())


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
