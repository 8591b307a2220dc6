"""The columnar readers against the line-by-line reference readers.

``parse_run``, ``parse_qrels`` and ``parse_alignment`` tokenize a whole
file with numpy and fall back to a line-by-line reader on any failed check
or on input they leave alone. Here both readers see the same generated
files: where the reference accepts a file, the columnar reader either gives
an equal result or declines it; where the reference rejects it, the
columnar reader declines it and the public parser raises the reference's
error, path, line and message alike.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridfair import GridfairError, ParseError, parse_alignment, parse_qrels, parse_run
from gridfair import io

# Small pools so duplicate keys come up; odd but valid spellings of numbers;
# ids with non-ASCII letters or a '#' inside.
REQUESTS = ["q1", "q2", "qé", "q#"]
DOCS = ["d1", "d2", "d3", "dé", "d→", "d#1"]
GOOD_INTEGERS = ["0", "1", "2", "+1", "1_0", "007"]
INTEGERS = GOOD_INTEGERS + ["-1", "x", "1.0", "99999999999999999999"]
GOOD_GRADES = ["0", "1", "0.5", "+2", "1_0.5", "1e-3", ".5"]
NUMBERS = GOOD_GRADES + ["nan", "inf", "-Infinity", "-1", "abc", "1e400"]
SPACES = st.sampled_from([" ", " ", "\t", "  ", " \t"])
TABS = st.just("\t")
ODD_SPACES = st.sampled_from(["\xa0", "\u2003", "\x0b", "\x1c", "\x85", "\u3000"])
NEWLINES = st.sampled_from(["\n", "\n", "\r\n", "\r"])


def run_record(draw, i, valid, unique):
    """Fields of line ``i``; ``valid`` values only; ``unique`` keys only."""
    if unique:
        doc = f"{draw(st.sampled_from(DOCS))}{i}"
        rank = draw(st.sampled_from(["", "+", "0", "00"])) + str(i)
    else:
        doc = draw(st.sampled_from(DOCS))
        rank = draw(st.sampled_from(GOOD_INTEGERS if valid else INTEGERS))
    return [
        draw(st.sampled_from(REQUESTS)),
        draw(st.sampled_from(["0", "Q0", "+1"] if valid else ["Q0"] + INTEGERS)),
        doc,
        rank,
        draw(st.sampled_from(NUMBERS[:-2] if valid else NUMBERS)),  # NaN scores are valid
        draw(st.sampled_from(["sysA", "sysé"])),
    ]


def qrels_record(draw, i, valid, unique):
    return [
        draw(st.sampled_from(REQUESTS)),
        draw(st.sampled_from(["0", "Q0", "x"])),
        f"{draw(st.sampled_from(DOCS))}{i}" if unique else draw(st.sampled_from(DOCS)),
        draw(st.sampled_from(GOOD_GRADES if valid else NUMBERS)),
    ]


def alignment_record(draw, i, valid, unique):
    """Tab-separated fields that may carry spaces around or inside them;
    rows of one document accumulate, so no key needs to be unique."""
    if valid:
        return [
            draw(st.sampled_from(DOCS + ["d 1", " d1", "d2 "])),
            draw(st.sampled_from(["A", "B", "unknown", " A", "g é"])),
            draw(st.sampled_from(["1", "0.25", "1_0", " 0.5 ", "1e-300", "0"])),
        ]
    return [
        draw(st.sampled_from(DOCS + ["d 1", ""])),
        draw(st.sampled_from(["A", "B", ""])),
        draw(st.sampled_from(["1", "0", "-0.5", "nan", "x", "1e308"])),
    ]


@st.composite
def files(draw, record, separators=SPACES):
    """A file of records with valid values and distinct keys, with valid
    values alone, or with anything; with comments, blank lines, mixed line
    breaks, records with a field too few or too many and,
    now and then, whitespace ``str.split()`` knows but the columnar reader
    leaves to the reference, or a NUL byte."""
    valid = draw(st.booleans())
    unique = valid and draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 8 + ["comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # indented", "\t#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            fields = record(draw, i, valid, unique)
            if kind == "ragged" and not valid:
                fields = draw(st.sampled_from([fields[:-1], fields + ["1"]]))
            line = draw(st.sampled_from(["", " "]))
            for field in fields:
                line += field + draw(separators)
            lines.append(line[: -1] if separators is TABS else line.rstrip(" \t"))
    text = "".join(line + draw(NEWLINES) for line in lines)
    if text and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.one_of(ODD_SPACES, st.just("\x00"))) + text[at:]
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no break after the last line
    return text.encode("utf-8")


def _reference(read, path, raw):
    try:
        return read(path, raw)
    except GridfairError as exc:
        return exc


def _columnar(read, raw):
    try:
        return read(raw)
    except io._Declined:
        return None


def _same_error(public, path, expected):
    with pytest.raises(type(expected)) as caught:
        public(path)
    got = caught.value
    if isinstance(expected, ParseError):
        assert (got.path, got.line) == (expected.path, expected.line)
    assert str(got) == str(expected)


def _check(public, columnar, reference, raw, tmp_path, same):
    path = tmp_path / "input.txt"
    path.write_bytes(raw)
    expected = _reference(reference, path, raw)
    got = _columnar(columnar, raw)
    if isinstance(expected, Exception):
        assert got is None, f"columnar reader accepted what the reference rejects: {expected}"
        _same_error(public, path, expected)
    else:
        if got is not None:
            same(got, expected)
        same(public(path), expected)


def _same_table(a, b):
    assert a.schema == b.schema
    assert a.documents() == b.documents()
    assert a._matrix.tobytes() == b._matrix.tobytes()


def _equal(a, b):
    assert a == b


SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@SETTINGS
@given(raw=files(run_record))
def test_run_reader_matches_the_reference(tmp_path, raw):
    _check(parse_run, io._run_columns, io._parse_run_lines, raw, tmp_path, _equal)


@SETTINGS
@given(raw=files(qrels_record))
def test_qrels_reader_matches_the_reference(tmp_path, raw):
    _check(parse_qrels, io._qrels_columns, io._parse_qrels_lines, raw, tmp_path, _equal)


@SETTINGS
@given(raw=files(alignment_record, TABS))
def test_alignment_reader_matches_the_reference(tmp_path, raw):
    _check(parse_alignment, io._alignment_columns, io._parse_alignment_lines, raw, tmp_path, _same_table)


def test_columnar_readers_take_odd_but_valid_input(tmp_path):
    """Line breaks of every kind, comments, ``Q0``, ``+``/``_`` numbers and
    non-ASCII ids stay on the columnar path."""
    run = "# c\r\nqé Q0 dé +1 1_0.5 sys\rqé 0 d1 0 nan sys\n\n  q2 1 d→ 1_0 -inf x"
    qrels = "q1 0 dé +2\r\n\tq1 x d1 1_0\r  # c\nq2 0 d1 0"
    alignment = " d 1 \t A \t0.5\r\nd 1\tB\t1_0\r#c\n\t\nd2\tunknown\t1e-3"
    path = tmp_path / "input.txt"
    for text, columnar, reference, same in [
        (run, io._run_columns, io._parse_run_lines, _equal),
        (qrels, io._qrels_columns, io._parse_qrels_lines, _equal),
        (alignment, io._alignment_columns, io._parse_alignment_lines, _same_table),
    ]:
        raw = text.encode("utf-8")
        same(columnar(raw), reference(path, raw))


def test_run_reader_keeps_line_order_semantics(tmp_path):
    path = tmp_path / "a.run"
    path.write_bytes(b"q2 1 d1 5 0.5 s\r\nq2 1 d2 2 0.9 s\rq1 0 d9 0 1 t\n")
    run = parse_run(path)
    assert run.system == "s"
    assert run.requests() == ("q1", "q2")
    assert list(run.rankings) == ["q1", "q2"]
    assert run.rankings["q2"][0].items == ("d2", "d1")
    assert run.rankings["q2"][0].scores == (0.9, 0.5)
    assert run.rankings["q2"][0].sample == 1
    assert "q3" not in run.rankings


def test_unicode_space_class_is_what_str_split_splits_on():
    spaces = {chr(c) for c in range(128, sys.maxunicode + 1) if chr(c).isspace()}
    matched = {c for c in map(chr, range(128, sys.maxunicode + 1)) if io._UNICODE_SPACE.match(c)}
    assert matched == spaces
    # The columnar reader declines the other ASCII whitespace as control bytes.
    others = {c for c in range(128) if chr(c).isspace()} - {ord(c) for c in " \t\n\r"}
    assert others and all(c < io._SPACE for c in others)
    for c in others:
        with pytest.raises(io._Declined):
            io._buffer(b"q1 0 d1" + bytes([c]) + b"1\n")


def test_undecodable_byte_names_its_line_after_every_kind_of_break(tmp_path):
    path = tmp_path / "a.run"
    path.write_bytes(b"# a\r\n# b\r# c\n# d \xe9\n")
    with pytest.raises(ParseError) as caught:
        parse_run(path)
    assert caught.value.line == 4
    assert "byte 0xe9 is not UTF-8" in str(caught.value)
