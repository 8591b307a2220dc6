import dataclasses
import os
import threading

import numpy as np
import pytest

from gridfair import MetricError, ParseError, Ranking, ResultsRow, parse_alignment, parse_qrels, parse_run
from gridfair.io import ResultsGrid, RunFile, read_results, write_results, write_run
from util import parse_alignment_lines, parse_qrels_lines, parse_run_lines, row_key, run_of
from util import write_rows


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseRun:
    def test_single_record(self, tmp_path):
        run = parse_run(write(tmp_path, "a.run", "q1 0 d9 0 3.2 sysA\n"))
        assert run.system == "sysA"
        ranking = run.rankings["q1"][0]
        assert ranking.items == ("d9",)
        assert ranking.scores == (3.2,)
        assert ranking.sample == 0

    def test_samples_grouped_separately(self, tmp_path):
        text = "q1 0 d1 0 1.0 s\nq1 1 d2 0 1.0 s\nq1 1 d1 1 0.5 s\n"
        run = parse_run(write(tmp_path, "a.run", text))
        per_sample = run.rankings["q1"]
        assert [r.sample for r in per_sample] == [0, 1]
        assert per_sample[1].items == ("d2", "d1")

    def test_q0_reads_as_sample_zero(self, tmp_path):
        run = parse_run(write(tmp_path, "a.run", "q1 Q0 d1 0 1.0 s\n"))
        assert run.rankings["q1"][0].sample == 0

    def test_rank_column_orders_items(self, tmp_path):
        text = "q1 0 d2 5 0.2 s\nq1 0 d1 1 0.9 s\nq1 0 d3 9 0.1 s\n"
        run = parse_run(write(tmp_path, "a.run", text))
        assert run.rankings["q1"][0].items == ("d1", "d2", "d3")

    def test_duplicate_document_names_line(self, tmp_path):
        text = "q1 0 d1 0 1.0 s\nq1 0 d1 1 0.5 s\n"
        with pytest.raises(ParseError) as err:
            parse_run(write(tmp_path, "a.run", text))
        assert ":2:" in str(err.value)

    def test_duplicate_rank_rejected(self, tmp_path):
        text = "q1 0 d1 0 1.0 s\nq1 0 d2 0 0.5 s\n"
        with pytest.raises(ParseError):
            parse_run(write(tmp_path, "a.run", text))

    def test_non_integer_rank_rejected(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_run(write(tmp_path, "a.run", "q1 0 d1 first 1.0 s\n"))
        assert "rank" in str(err.value)

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_run(write(tmp_path, "a.run", "q1 0 d1 0 1.0\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# header\n\nq1 0 d1 0 1.0 s\n"
        run = parse_run(write(tmp_path, "a.run", text))
        assert run.rankings["q1"][0].items == ("d1",)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_run(write(tmp_path, "a.run", "# nothing\n"))

    def test_write_parse_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        rankings = []
        for q in range(3):
            for s in range(2):
                docs = tuple(f"d{i}" for i in rng.permutation(10)[:5])
                scores = tuple(float(x) for x in rng.uniform(0, 1, size=5))
                rankings.append(Ranking(f"q{q}", s, docs, scores))
        path = tmp_path / "round.run"
        write_run(run_of("sysZ", rankings), path)
        back = parse_run(path)
        assert back.system == "sysZ"
        for ranking in rankings:
            got = [r for r in back.rankings[ranking.request] if r.sample == ranking.sample]
            assert len(got) == 1
            assert got[0].items == ranking.items

    def test_rankings_without_scores_round_trip(self, tmp_path):
        """A ranking without scores gets the scores ``len - rank``, and the
        run's columns equal those of the file write_run writes of it."""
        rankings = [
            Ranking("q1", 0, ("d2", "d1", "d3")),
            Ranking("q1", 1, ("d1",)),
            Ranking("q2", 0, ("d9", "d8")),
        ]
        run = RunFile.from_rankings("sysZ", {"q1": tuple(rankings[:2]), "q2": (rankings[2],)})
        assert run.rankings["q1"][0].scores == (3.0, 2.0, 1.0)
        path = tmp_path / "round.run"
        write_run(run, path)
        assert parse_run(path) == run

    def test_scores_read_back_as_the_same_floats(self, tmp_path):
        """Each score is written as 12 significant digits where those read
        back to it, else as the shortest text that does."""
        written = {
            8.0: "8",
            0.3: "0.3",
            0.30000000000000004: "0.30000000000000004",
            0.1234567890123456: "0.1234567890123456",
            123456789012.5: "123456789012.5",
            -0.0: "-0",
            5e-324: "4.94065645841e-324",
            1.7976931348623157e308: "1.7976931348623157e+308",
            float("inf"): "inf",
            float("nan"): "nan",
        }
        scores = tuple(written)
        rng = np.random.default_rng(5)
        scores += tuple((rng.uniform(-1, 1, 200) * 10.0 ** rng.integers(-300, 300, 200)).tolist())
        docs = tuple(f"d{i}" for i in range(len(scores)))
        path = tmp_path / "scores.run"
        write_run(run_of("s", [Ranking("q1", 0, docs, scores)]), path)
        lines = path.read_text().splitlines()
        assert [line.split()[4] for line in lines[: len(written)]] == list(written.values())
        back = parse_run(path).rankings["q1"][0].scores
        assert np.array_equal(np.array(back).view(np.int64), np.array(scores).view(np.int64))


class TestParseAlignment:
    def test_single_label(self, tmp_path):
        table = parse_alignment(write(tmp_path, "a.tsv", "d1\tA\t1.0\n"))
        assert table.schema.names == ("A", "unknown")
        assert table.matrix(["d1"])[0].tolist() == [1.0, 0.0]

    def test_multiple_rows_accumulate_and_normalize(self, tmp_path):
        table = parse_alignment(write(tmp_path, "a.tsv", "d1\tA\t1\nd1\tB\t1\n"))
        assert table.schema.names == ("A", "B", "unknown")
        assert table.matrix(["d1"])[0].tolist() == [0.5, 0.5, 0.0]

    def test_unlabeled_document_reads_as_unknown(self, tmp_path):
        table = parse_alignment(write(tmp_path, "a.tsv", "d1\tA\t1.0\n"))
        assert table.matrix(["d2"])[0].tolist() == [0.0, 1.0]

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_alignment(write(tmp_path, "a.tsv", "d1\tA\t-0.5\n"))

    def test_all_zero_document_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_alignment(write(tmp_path, "a.tsv", "d1\tA\t0\nd1\tB\t0\n"))

    def test_groups_sorted_unknown_last(self, tmp_path):
        text = "d1\tzeta\t1\nd2\talpha\t1\n"
        table = parse_alignment(write(tmp_path, "a.tsv", text))
        assert table.schema.names == ("alpha", "zeta", "unknown")

    def test_requires_tabs(self, tmp_path):
        with pytest.raises(ParseError):
            parse_alignment(write(tmp_path, "a.tsv", "d1 A 1.0\n"))


class TestParseQrels:
    def test_basic(self, tmp_path):
        rel = parse_qrels(write(tmp_path, "q.txt", "q1 0 d1 1\n"))
        assert rel.grades("q1", ["d1"])[0] == 1.0

    def test_missing_pair_is_zero(self, tmp_path):
        rel = parse_qrels(write(tmp_path, "q.txt", "q1 0 d1 1\n"))
        assert rel.grades("q1", ["d2"])[0] == 0.0

    def test_graded_relevance_passes_through(self, tmp_path):
        rel = parse_qrels(write(tmp_path, "q.txt", "q1 0 d1 2\n"))
        assert rel.grades("q1", ["d1"])[0] == 2.0

    def test_negative_grade_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_qrels(write(tmp_path, "q.txt", "q1 0 d1 -1\n"))

    def test_duplicate_pair_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_qrels(write(tmp_path, "q.txt", "q1 0 d1 1\nq1 0 d1 2\n"))

    def test_second_column_ignored(self, tmp_path):
        rel = parse_qrels(write(tmp_path, "q.txt", "q1 whatever d1 1\n"))
        assert rel.grades("q1", ["d1"])[0] == 1.0


def sample_row(**overrides):
    fields = dict(
        system="sysA",
        request="ALL",
        geometry="wrapped-grid",
        columns=5,
        reduction="none",
        base="geometric",
        adjustment="row-skip",
        alpha=0.5,
        gamma=0.5,
        beta=1.9,
        metric="awrf",
        value=0.25,
    )
    fields.update(overrides)
    return ResultsRow(**fields)


class TestResults:
    def test_empty_input_writes_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(ResultsGrid([], []), path)
        assert path.read_text().strip().count("\n") == 0
        assert path.read_text().startswith("system,request,geometry,columns,")

    def test_one_row(self, tmp_path):
        path = tmp_path / "r.csv"
        write_rows([sample_row()], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_shuffled_rows_identical_bytes(self, tmp_path):
        rows = [
            sample_row(system=s, columns=c, value=v)
            for s, c, v in [("b", 3, 0.1), ("a", 5, 0.2), ("a", 3, 0.3), ("b", 5, 0.4)]
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_rows(rows, first)
        write_rows(list(reversed(rows)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_rows([sample_row(value=1 / 3)], path)
        assert "0.333333333333" in path.read_text()

    def test_read_round_trip(self, tmp_path):
        rows = [sample_row(value=0.125), sample_row(metric="eel", value=2.5)]
        path = tmp_path / "r.csv"
        write_rows(rows, path)
        back = read_results(path)
        assert sorted(row_key(r) for r in back) == sorted(row_key(r) for r in rows)
        assert {r.value for r in back} == {0.125, 2.5}

    def test_round_trip_of_rows_that_vary_every_field(self, tmp_path):
        varied = dict(
            system="sysB",
            request="q7",
            geometry="wrapped-grid",
            columns=3,
            reduction="truncate",
            base="cascade",
            adjustment="slow-decay",
            alpha=0.123456789012,
            gamma=0.0,
            beta=2.75,
            metric="eel",
            value=1e-9,
        )
        assert set(varied) == {f.name for f in dataclasses.fields(ResultsRow)}
        rows = [sample_row()] + [sample_row(**{name: value}) for name, value in varied.items()]
        rows.append(sample_row(**varied))
        path = tmp_path / "r.csv"
        write_rows(rows, path)
        assert read_results(path) == sorted(rows, key=row_key)

    def test_header_is_the_row_fields(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(ResultsGrid([], []), path)
        header = path.read_text().split("\n")[0]
        assert header == ",".join(f.name for f in dataclasses.fields(ResultsRow))

    def test_non_finite_value_rejected(self):
        with pytest.raises(MetricError):
            sample_row(value=float("nan"))

    def test_non_finite_value_in_file_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        write_rows([sample_row(value=0.125), sample_row(metric="eel", value=2.5)], path)
        path.write_text(path.read_text().replace(",2.5\n", ",inf\n"))
        with pytest.raises(ParseError) as info:
            read_results(path)
        assert info.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("not,a,results,file\n")
        with pytest.raises(ParseError):
            read_results(path)


# The large files hold more than a pipe's buffer, so the writer blocks
# until the reader drains it; the small ones hold a vertical tab or a form
# feed, whitespace the reader finds by its byte mask.
PIPED = [
    (parse_run, parse_run_lines, "".join(f"q{i} 0 d{i} 0 1.5 sys\n" for i in range(5000))),
    (parse_run, parse_run_lines, "q1 0 d1 0 1.5 sys\nq1 0\x0bd2 1 0.5 sys\n"),
    (parse_qrels, parse_qrels_lines, "".join(f"q{i} 0 d{i} 2\n" for i in range(5000))),
    (parse_qrels, parse_qrels_lines, "q1 0 d1 2\nq1\x0c0 d2 1\n"),
    (parse_alignment, parse_alignment_lines,
     "".join(f"d{i}\tA\t0.25\nd{i}\tB\t0.75\n" for i in range(5000))),
    (parse_alignment, parse_alignment_lines, "d1\tA\t1\nd2\x0b\tB\t1\n"),
]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "parse, reference, text",
    PIPED,
    ids=["run", "run-declined", "qrels", "qrels-declined", "alignment", "alignment-declined"],
)
def test_a_named_pipe_parses_as_its_bytes_in_a_file(tmp_path, parse, reference, text):
    """A pipe reports no size; its bytes are read to the end, and parse as
    the same bytes in a file and as the line-by-line reference reads them."""
    raw = text.encode("utf-8")
    path = write(tmp_path, "file.txt", text)
    expected = parse(path)
    assert expected == reference(path, raw)
    pipe = tmp_path / "pipe.txt"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(raw,), daemon=True)
    writer.start()
    assert parse(pipe) == expected
    writer.join(timeout=10)
    assert not writer.is_alive()
