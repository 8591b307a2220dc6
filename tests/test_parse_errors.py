"""Every error the input readers raise, pinned as (path, line, message).

Each file below fails one rule of its format; the public parser must name
the file, the line and the exact message.
"""

import pytest

from gridfair import GroupSchema, ParseError, parse_alignment, parse_qrels, parse_run
from gridfair.io import parse_fixed_target

RUN_OK = "q1 0 d1 0 1.5 sysA\n"
ALIGN_OK = "d1\tA\t1\n"
QRELS_OK = "q1 0 d1 1\n"
FIXED_OK = "A 0.5\n"


def parse_fixed(path):
    return parse_fixed_target(path, GroupSchema.from_groups(["A", "B"]))


CASES = [
    # runs
    ("run-columns", parse_run, RUN_OK + "q1 0 d2 1 1.0\n", 2, "expected 6 columns, got 5"),
    ("run-nul", parse_run, RUN_OK + "q1 0 d\x002 1 1.0 sysA\n", 2,
     "document id 'd\\x002' holds a NUL byte"),
    ("run-sample", parse_run, RUN_OK + "q1 x d2 1 1.0 sysA\n", 2,
     "sample index 'x' is not an integer"),
    ("run-negative-sample", parse_run, RUN_OK + "# c\nq1 -1 d2 1 1.0 sysA\n", 3,
     "negative sample index -1"),
    ("run-rank", parse_run, RUN_OK + "q1 0 d2 1.0 1.0 sysA\n", 2, "rank '1.0' is not an integer"),
    ("run-score", parse_run, RUN_OK + "q1 0 d2 1 high sysA\n", 2, "score 'high' is not a number"),
    ("run-duplicate-document", parse_run, RUN_OK + "q1 Q0 d1 1 1.0 sysA\n", 2,
     "duplicate document 'd1' in request 'q1' sample 0"),
    ("run-duplicate-rank", parse_run, RUN_OK + "q2 0 d1 0 1 s\nq1 +0 d2 0 1.0 sysA\n", 3,
     "duplicate rank 0 in request 'q1' sample 0"),
    ("run-empty", parse_run, "# only a comment\n\n", 1, "run file contains no records"),
    # alignments
    ("alignment-columns", parse_alignment, ALIGN_OK + "d2 A 1\n", 2,
     "expected 3 tab-separated columns, got 1"),
    ("alignment-empty-name", parse_alignment, ALIGN_OK + "d2\t \t1\n", 2,
     "empty document or group name"),
    ("alignment-nul", parse_alignment, ALIGN_OK + "d\x002\tA\t1\n", 2,
     "document id 'd\\x002' holds a NUL byte"),
    ("alignment-weight", parse_alignment, ALIGN_OK + "d2\tA\tmuch\n", 2,
     "weight 'much' is not a number"),
    ("alignment-non-finite", parse_alignment, ALIGN_OK + "d2\tA\t inf \n", 2,
     "non-finite membership weight 'inf'"),
    ("alignment-negative", parse_alignment, ALIGN_OK + "d2\tA\t-1\n", 2,
     "negative membership weight -1.0"),
    ("alignment-all-zero", parse_alignment, ALIGN_OK + "d2\tA\t0\nd2\tB\t0\n", 2,
     "document 'd2' has all-zero membership"),
    # qrels
    ("qrels-columns", parse_qrels, QRELS_OK + "q1 d2 1\n", 2, "expected 4 columns, got 3"),
    ("qrels-nul", parse_qrels, QRELS_OK + "q1 0 d\x002 1\n", 2,
     "document id 'd\\x002' holds a NUL byte"),
    ("qrels-grade", parse_qrels, QRELS_OK + "q1 0 d2 good\n", 2, "grade 'good' is not a number"),
    ("qrels-non-finite", parse_qrels, QRELS_OK + "q1 0 d2 nan\n", 2,
     "non-finite relevance grade 'nan'"),
    ("qrels-negative", parse_qrels, QRELS_OK + "q1 0 d2 -2\n", 2, "negative relevance grade -2.0"),
    ("qrels-duplicate", parse_qrels, QRELS_OK + "\nq1 Q0 d1 2\n", 3,
     "duplicate judgment for 'q1'/'d1'"),
    # fixed: targets
    ("fixed-fields", parse_fixed, FIXED_OK + "  B 0.25 x \n", 2,
     "expected 'group weight', got 'B 0.25 x'"),
    ("fixed-unknown-group", parse_fixed, FIXED_OK + "C 0.5\n", 2,
     "group 'C' not in the alignment schema"),
    ("fixed-duplicate", parse_fixed, FIXED_OK + "A 0.5\n", 2, "duplicate group 'A'"),
    ("fixed-weight", parse_fixed, FIXED_OK + "B half\n", 2, "weight 'half' is not a number"),
    ("fixed-non-finite", parse_fixed, FIXED_OK + "B -inf\n", 2, "non-finite target weight '-inf'"),
    ("fixed-negative", parse_fixed, FIXED_OK + "B -0.5\n", 2, "negative target weight -0.5"),
]


@pytest.mark.parametrize("parse, text, line, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_line_reader_error(tmp_path, parse, text, line, message):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as caught:
        parse(path)
    assert (caught.value.path, caught.value.line) == (str(path), line)
    assert str(caught.value) == f"{path}:{line}: {message}"
