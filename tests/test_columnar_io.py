"""The bulk readers against the line-by-line reference readers.

``parse_run``, ``parse_qrels`` and ``parse_alignment`` tokenize a whole
file with numpy, convert and check it column by column, and raise the error
of the first record that breaks a rule. The references in ``tests/util.py``
read the same bytes one decoded line at a time. Here both see the same
generated files: where the reference accepts a file, the public parser gives
an equal result; where it rejects one, the public parser raises the same
exception type with the same path, line and message.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from util import (
    parse_alignment_lines,
    parse_fixed_target_lines,
    parse_qrels_lines,
    parse_run_lines,
)

from gridfair import (
    GridfairError,
    GroupSchema,
    ParseError,
    ShapeError,
    parse_alignment,
    parse_qrels,
    parse_run,
)
from gridfair import io
from gridfair.io import parse_fixed_target, read_results, read_text

# Every character str.split() splits on, but the line breaks.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]
# Small pools so duplicate keys come up; odd but valid spellings of numbers;
# ids with non-ASCII letters, a '#', control bytes or a NUL inside, and one
# wider than the byte-string columns take.
WIDE = "w" * 4100
REQUESTS = ["q1", "q2", "qé", "q#", "q\x00", "q\x01"]
DOCS = ["d1", "d2", "d3", "dé", "d→", "d#1", "d\x01", "d\x1b1", "d\x7f", WIDE]
GOOD_INTEGERS = ["0", "1", "2", "+1", "1_0", "007", "-1", "\u0663", "99999999999999999999"]
INTEGERS = GOOD_INTEGERS + ["x", "1.0", "-99999999999999999999", "1e3"]
GOOD_SAMPLES = ["0", "Q0", "+1", "18446744073709551616"]
GOOD_GRADES = ["0", "1", "0.5", "+2", "1_0.5", "1e-3", ".5", "-0", "\u0662.5"]
NUMBERS = GOOD_GRADES + ["nan", "inf", "-Infinity", "-1", "abc", "1e400", "1\x7f"]
SPACES = st.one_of(st.sampled_from([" ", " ", "\t", "  ", " \t"]), st.sampled_from(WHITESPACE))
TABS = st.just("\t")
# Inside an alignment field or around it; stripped where it is around.
PADDING = st.one_of(st.just(""), st.sampled_from([c for c in WHITESPACE if c != "\t"]))
ODD_BYTES = st.sampled_from(["\x00", "\x01", "\x1b", "\x7f", "\ufeff", *WHITESPACE])
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
        draw(st.sampled_from(GOOD_SAMPLES if valid else GOOD_SAMPLES + INTEGERS)),
        doc,
        rank,
        draw(st.sampled_from(NUMBERS[:-3] if valid else NUMBERS)),  # NaN scores are valid
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
    """Tab-separated fields that may carry whitespace around or inside
    them; rows of one document accumulate, so no key needs to be unique."""
    if valid:
        fields = [
            draw(st.sampled_from(DOCS + ["d 1", "d2 "])),
            draw(st.sampled_from(["A", "B", "unknown", " A", "g é", "A\x00"])),
            draw(st.sampled_from(["1", "0.25", "1_0", " 0.5 ", "1e-300", "0", "1e308"])),
        ]
    else:
        fields = [
            draw(st.sampled_from(DOCS + ["d 1", ""])),
            draw(st.sampled_from(["A", "B", ""])),
            draw(st.sampled_from(["1", "0", "-0.5", "nan", "x", "1e308", "1e400"])),
        ]
    return [draw(PADDING) + field + draw(PADDING) for field in fields]


def fixed_record(draw, i, valid, unique):
    """A ``group weight`` line; the schema holds A, B and unknown."""
    names = ["A", "B", "unknown"] if valid else ["A", "B", "unknown", "C", "A\x00", "é"]
    return [
        names[i % len(names)] if unique else draw(st.sampled_from(names)),
        draw(st.sampled_from(GOOD_GRADES if valid else NUMBERS)),
    ]


@st.composite
def files(draw, record, separators=SPACES):
    """A file of records with valid values and distinct keys, with valid
    values alone, or with anything; with comments, blank lines, mixed line
    breaks, records with a field too few or too many, now and then a
    control byte, a NUL, a byte-order mark or whitespace somewhere, and a
    leading byte-order mark."""
    valid = draw(st.booleans())
    unique = valid and draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 8 + ["comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # indented", "\t#", "\xa0#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u3000", "\x0b"])))
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
        text = text[:at] + draw(ODD_BYTES) + text[at:]
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no break after the last line
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text.encode("utf-8")


def _outcome(read, *args):
    try:
        return read(*args)
    except GridfairError as exc:
        return exc


def _check(public, reference, raw, tmp_path, same):
    path = tmp_path / "input.txt"
    path.write_bytes(raw)
    expected = _outcome(reference, path, raw)
    got = _outcome(public, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected), f"expected {expected!r}, got {got!r}"
        if isinstance(expected, ParseError):
            assert (got.path, got.line) == (expected.path, expected.line)
        assert str(got) == str(expected)
    else:
        assert not isinstance(got, Exception), f"rejected what the reference reads: {got}"
        same(got, expected)


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
    _check(parse_run, parse_run_lines, raw, tmp_path, _equal)


@SETTINGS
@given(raw=files(qrels_record))
def test_qrels_reader_matches_the_reference(tmp_path, raw):
    _check(parse_qrels, parse_qrels_lines, raw, tmp_path, _equal)


@SETTINGS
@given(raw=files(alignment_record, TABS))
def test_alignment_reader_matches_the_reference(tmp_path, raw):
    _check(parse_alignment, parse_alignment_lines, raw, tmp_path, _same_table)


SCHEMA = GroupSchema.from_groups(["A", "B"])


def parse_fixed(path):
    return parse_fixed_target(path, SCHEMA)


@SETTINGS
@given(raw=files(fixed_record))
def test_fixed_target_reader_matches_the_reference(tmp_path, raw):
    _check(
        parse_fixed,
        lambda path, raw: parse_fixed_target_lines(path, raw, SCHEMA),
        raw,
        tmp_path,
        lambda a, b: np.testing.assert_array_equal(a, b),
    )


def test_columnar_readers_take_odd_but_valid_input(tmp_path):
    """Line breaks of every kind, comments, ``Q0``, ``+``/``_`` numbers,
    non-ASCII ids and whitespace, control bytes, a NUL in a request or
    group name, a very wide id and integers beyond int64 read as the
    reference reads them."""
    wide = "d" * 5000
    run = (
        "# c\r\nqé Q0 dé +1 1_0.5 sys\rqé 0 d1 0 nan sys\n\n  q2 1 d→ 1_0 -inf x\n"
        f"q\x00\u3000 99999999999999999999 d\x01\xa0-99999999999999999999 1e400 s\n"
        f"q2\x0b1 {wide} 5\x1c2 s"
    )
    qrels = f"q1 0 dé +2\r\n\tq1 x d1 1_0\r  # c\nq2 0 d1 0\nq\x00 0 d\x7f 1\nq2 0 {wide} \u0663"
    alignment = (
        " d 1 \t A \t0.5\r\nd 1\tB\t1_0\r#c\n\t\nd2\tunknown\t1e-3\n"
        f"d\x1b\tA\x00\t1\u2028\n{wide}\t\xa0B\t1"
    )
    path = tmp_path / "input.txt"
    for text, public, reference, same in [
        (run, parse_run, parse_run_lines, _equal),
        (qrels, parse_qrels, parse_qrels_lines, _equal),
        (alignment, parse_alignment, parse_alignment_lines, _same_table),
    ]:
        raw = text.encode("utf-8")
        path.write_bytes(raw)
        same(public(path), reference(path, raw))


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
    """The whitespace mask marks every byte of each character
    ``str.isspace()`` accepts, and no byte of any other, over the UTF-8
    encoding of every code point."""
    chars = [chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c < 0xE000]
    raw = "".join(chars).encode("utf-8")
    widths = np.array([len(c.encode("utf-8")) for c in chars])
    expected = np.repeat([c.isspace() for c in chars], widths)
    buf = np.zeros(len(raw) + 1 + io._PAD, dtype=np.uint8)
    buf[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    buf[len(raw)] = ord("\n")
    assert np.array_equal(io._whitespace(buf)[: len(raw)], expected)


def test_undecodable_byte_names_its_line_after_every_kind_of_break(tmp_path):
    path = tmp_path / "a.run"
    path.write_bytes(b"# a\r\n# b\r# c\n# d \xe9\n")
    with pytest.raises(ParseError) as caught:
        parse_run(path)
    assert caught.value.line == 4
    assert "byte 0xe9 is not UTF-8" in str(caught.value)


# (reader, text, line, message): the first failing line wins across lines,
# and within a line the rules run in the order the line reader checks them.
# Aggregate errors come after every line's, and a sum beyond the float
# range after those.
FIRST_ERRORS = [
    # across lines: an earlier bad number beats a later ragged line, and
    # nothing after a ragged line is read
    (parse_run, "q1 0 d1 0 1 s\nq1 x d2 1 1 s\nq1 0 d3\n", 2,
     "sample index 'x' is not an integer"),
    (parse_run, "q1 0 d1 0\nq1 x d2 1 1 s\n", 1, "expected 6 columns, got 4"),
    (parse_qrels, "q1 0 d1\nq1 0 d1 1\nq1 0 d1 1\n", 1, "expected 4 columns, got 3"),
    # within a line: NUL id, sample, its bound, rank, score, duplicates
    (parse_run, "q1 0 d1 0 1 s\nq1 -1 d\x00 x y s\n", 2, "document id 'd\\x00' holds a NUL byte"),
    (parse_run, "q1 0 d1 0 1 s\nq1 x d1 x y s\n", 2, "sample index 'x' is not an integer"),
    (parse_run, "q1 0 d1 0 1 s\nq1 -1 d1 x y s\n", 2, "negative sample index -1"),
    (parse_run, "q1 0 d1 0 1 s\nq1 0 d1 x y s\n", 2, "rank 'x' is not an integer"),
    (parse_run, "q1 0 d1 0 1 s\nq1 0 d1 0 y s\n", 2, "score 'y' is not a number"),
    (parse_run, "q1 0 d1 0 1 s\nq1 0 d1 0 1 s\n", 2,
     "duplicate document 'd1' in request 'q1' sample 0"),
    (parse_run, "q1 0 d1 0 1 s\nq1 0 d2 0 1 s\n", 2, "duplicate rank 0 in request 'q1' sample 0"),
    # a duplicate names the later line, even when it ranks first
    (parse_run, "q1 0 d1 5 1 s\nq1 0 d2 1 1 s\nq1 0 d1 0 1 s\n", 3,
     "duplicate document 'd1' in request 'q1' sample 0"),
    (parse_run, "# only\n", 1, "run file contains no records"),
    (parse_run, "# only\nq1 0 d1 0 1\n", 2, "expected 6 columns, got 5"),
    (parse_run, "q1 Q0 d1 0 1 s\nq1 99999999999999999999 d1 0 1 s\n"
     "q1 +99999999999999999999 d1 0 1 s\n", 3,
     "duplicate document 'd1' in request 'q1' sample 99999999999999999999"),
    (parse_qrels, "q1 0 d\x00 nan\n", 1, "document id 'd\\x00' holds a NUL byte"),
    (parse_qrels, "q1 0 d1 1\nq1 0 d1 -1\n", 2, "negative relevance grade -1.0"),
    (parse_qrels, "q1 0 d1 1\nq1 0 d1 inf\n", 2, "non-finite relevance grade 'inf'"),
    (parse_qrels, "q1 0 d1 1\nq1 0 d1 2\n", 2, "duplicate judgment for 'q1'/'d1'"),
    (parse_alignment, "d1\tA\t1\n\t\x00\tx\n", 2, "empty document or group name"),
    (parse_alignment, "d1\tA\t1\nd\x00\tA\tx\n", 2, "document id 'd\\x00' holds a NUL byte"),
    (parse_alignment, "d1\tA\t1\nd2\tA\tinf\n", 2, "non-finite membership weight 'inf'"),
    (parse_alignment, "d1\tA\t1\nd2\tA\t-1\n", 2, "negative membership weight -1.0"),
    (parse_fixed, "A 1\nA x\n", 2, "duplicate group 'A'"),
    (parse_fixed, "A 1\nC x y\nB 1\nC x\n", 2, "expected 'group weight', got 'C x y'"),
    (parse_fixed, "A 1\nB x\nC 1\n", 2, "weight 'x' is not a number"),
    (parse_fixed, "A 1\nC -1\n", 2, "group 'C' not in the alignment schema"),
    # aggregates: after every line's errors, at the document's first line
    (parse_alignment, "d1\tA\t0\nd2\tA\t1\nd1\tB\t0\nd2\tA\tx\n", 4, "weight 'x' is not a number"),
    (parse_alignment, "d1\tA\t1\nd2\tA\t0\nd3\tA\t0\nd2\tB\t0\n", 2,
     "document 'd2' has all-zero membership"),
    (parse_alignment, "d1\tA\t1e308\nd1\tA\t1e308\nd2\tA\t0\nd3\tA\t1\td\n", 4,
     "expected 3 tab-separated columns, got 4"),
    (parse_alignment, "d1\tA\t1e308\nd1\tA\t1e308\nd2\tA\t0\n", 3,
     "document 'd2' has all-zero membership"),
]


@pytest.mark.parametrize("reader, text, line, message", FIRST_ERRORS)
def test_first_failing_line_and_rule_win(tmp_path, reader, text, line, message):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as caught:
        reader(path)
    assert (caught.value.line, str(caught.value)) == (line, f"{path}:{line}: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("d1\tA\t1e308\nd1\tA\t1e308\n", "membership weights must be finite"),
        ("d1\tA\t1e308\nd1\tB\t1e308\n", "membership weights sum to 0.0, expected 1"),
    ],
)
def test_a_sum_beyond_the_float_range_is_a_shape_error(tmp_path, text, message):
    path = tmp_path / "a.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ShapeError, match=message):
        parse_alignment(path)
    with pytest.raises(ShapeError, match=message):
        parse_alignment_lines(path, text.encode("utf-8"))


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    """One leading BOM is not part of the first record, in any reader."""

    def write(name, text):
        path = tmp_path / name
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        return path

    rel = parse_qrels(write("q.txt", "q1 0 d1 2\n"))
    assert rel.grades("q1", ["d1"])[0] == 2.0
    table = parse_alignment(write("a.tsv", "d1\tA\t1\n"))
    assert table.documents() == ("d1",)
    assert table.matrix(["d1"])[0].tolist() == [1.0, 0.0]
    run = parse_run(write("a.run", "q1 0 d1 0 1 s\n"))
    assert run.requests() == ("q1",)
    schema = GroupSchema.from_groups(["A"])
    assert parse_fixed_target(write("t.txt", "A 1\n"), schema).tolist() == [1.0, 0.0]
    assert read_text(write("c.yaml", "k: 1\n")) == "k: 1\n"
    assert read_text(write("two.txt", "\ufeffk")) == "\ufeffk"  # only one is skipped
    header = ",".join(io.RESULT_FIELDS)
    row = "s,ALL,vertical-linear,1,none,geometric,none,0.5,0,1,awrf,0.25"
    assert read_results(write("r.csv", f"{header}\n{row}\n"))[0].value == 0.25
