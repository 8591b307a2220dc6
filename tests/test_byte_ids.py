"""Document ids held as sorted UTF-8 byte-string arrays.

The readers keep every document-id vocabulary as one sorted byte-string
array and join files by ``searchsorted``. Here the joins are checked
against plain dict lookups over str ids: ids that are prefixes of others,
non-ASCII ids, ids of different widths in different files, and ids missing
from the table or the judgments. Also pinned: the NUL rule, table
equality, and a bound on each reader's peak memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridfair import (
    AlignmentTable,
    GroupSchema,
    ParseError,
    PopulationEstimator,
    Ranking,
    RelevanceJudgments,
    ShapeError,
    parse_alignment,
    parse_qrels,
    parse_run,
)
from gridfair.harness import _RunRows
from gridfair.io import RunFile
from gridfair.metrics import population_estimator

# Short ids over a small alphabet: many are prefixes of others (d, d1, d10),
# some are non-ASCII, and the widest id differs from file to file.
IDS = st.text(alphabet="d10é→", min_size=1, max_size=5)
GROUPS = ["A", "B", "unknown"]
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _as_bytes(ids, extra_width=0):
    """The ids as a byte-string array, optionally wider than they need."""
    width = max([len(doc.encode()) for doc in ids] + [1]) + extra_width
    return np.array([doc.encode() for doc in ids], dtype=f"S{width}")


def _alignment(tmp_path, labels):
    """A parsed alignment of ``{doc: group}``, and its rows by doc."""
    table = parse_alignment(_write(tmp_path, "a.tsv", [f"{d}\t{g}\t1" for d, g in labels.items()]))
    schema = GroupSchema.from_groups(labels.values())
    vectors = {doc: np.eye(schema.size)[schema.index(g)] for doc, g in labels.items()}
    return table, vectors


@SETTINGS
@given(
    labels=st.dictionaries(IDS, st.sampled_from(GROUPS), max_size=8),
    queries=st.lists(IDS, max_size=10),
    extra_width=st.integers(0, 3),
)
def test_alignment_rows_match_a_dict(tmp_path, labels, queries, extra_width):
    table, vectors = _alignment(tmp_path, labels)
    unknown = table.schema.unknown_vector()
    expected = np.array([vectors.get(q, unknown) for q in queries]).reshape(-1, table.schema.size)
    for items in (queries, _as_bytes(queries, extra_width)):
        assert np.array_equal(table.matrix(items), expected)
    for q in queries:
        assert (q in table) == (q in vectors)
        assert np.array_equal(table.matrix([q])[0], vectors.get(q, unknown))
    assert table.documents() == tuple(labels)
    assert table == AlignmentTable.from_weights(table.schema, vectors)


@SETTINGS
@given(
    judged=st.dictionaries(
        st.tuples(st.sampled_from(["q1", "q2", "qé"]), IDS),
        st.sampled_from([0, 1, 2.5]),
        max_size=10,
    ),
    requests=st.lists(
        st.sampled_from(["q1", "q2", "qé", "q9"]), min_size=1, max_size=3, unique=True
    ),
    docs=st.lists(IDS, min_size=1, max_size=6, unique=True),
    pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=12),
    extra_width=st.integers(0, 3),
)
def test_judgment_lookup_matches_a_dict(tmp_path, judged, requests, docs, pairs, extra_width):
    rel = parse_qrels(_write(tmp_path, "q.txt", [f"{q} 0 {d} {g}" for (q, d), g in judged.items()]))
    assert rel == RelevanceJudgments(judged)
    pairs = [(q % len(requests), d % len(docs)) for q, d in pairs]
    expected = [judged.get((requests[q], docs[d]), 0.0) for q, d in pairs]
    codes = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    for names in (docs, _as_bytes(docs, extra_width)):
        assert rel.lookup(requests, names, *codes).tolist() == expected
    for q in requests:
        assert rel.grades(q, docs).tolist() == [judged.get((q, d), 0.0) for d in docs]


@SETTINGS
@given(
    lists=st.lists(st.lists(IDS, min_size=1, max_size=5, unique=True), min_size=1, max_size=5),
    labels=st.dictionaries(IDS, st.sampled_from(GROUPS), max_size=8),
    judged=st.dictionaries(IDS, st.sampled_from([1, 2]), max_size=8),
)
def test_sweep_joins_match_a_dict(tmp_path, lists, labels, judged):
    """The stacked rows of a run: each request's union of documents, with
    the membership row and the grade a dict lookup gives each."""
    run_lines = [
        f"q{i % 2} {i} {doc} {rank} 1 s"
        for i, items in enumerate(lists)
        for rank, doc in enumerate(items)
    ]
    run = parse_run(_write(tmp_path, "a.run", run_lines))
    table, vectors = _alignment(tmp_path, labels)
    rel = parse_qrels(_write(tmp_path, "q.txt", [f"q0 0 {d} {g}" for d, g in judged.items()]))
    rows = _RunRows(run, 0, len(run.requests()), table, rel, False)
    by_request = [{d for i, items in enumerate(lists) if i % 2 == q for d in items} for q in (0, 1)]
    unions = [sorted(docs) for docs in by_request if docs]
    bounds = rows.union_bounds.tolist()
    got = [rows.docs[rows.doc_of[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]
    assert [[doc.decode() for doc in union.tolist()] for union in got] == unions
    flat = [(q, doc) for q, union in enumerate(unions) for doc in union]
    unknown = table.schema.unknown_vector()
    assert np.array_equal(rows.members, np.array([vectors.get(d, unknown) for _, d in flat]))
    # Only q0 is judged; the requests are q0, then q1 if it has rankings.
    assert rows.grades.tolist() == [judged.get(d, 0.0) if q == 0 else 0.0 for q, d in flat]


@SETTINGS
@given(labels=st.dictionaries(IDS, st.sampled_from(GROUPS), min_size=1, max_size=8))
def test_catalog_and_retrieved_targets_average_rows_in_sorted_order(tmp_path, labels):
    table, _ = _alignment(tmp_path, labels)
    ordered = sorted(labels)
    catalog = population_estimator(PopulationEstimator("catalog"), table)
    assert catalog.tobytes() == table.matrix(ordered).mean(axis=0).tobytes()
    retrieved = PopulationEstimator("retrieved")
    by_name = population_estimator(retrieved, table, list(reversed(ordered)))
    by_id = population_estimator(retrieved, table, _as_bytes(ordered))
    assert by_name.tobytes() == by_id.tobytes() == catalog.tobytes()


# -- the NUL rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,text,reader",
    [
        ("a.run", "q1 0 d1 0 1 s\nq1 0 d\x002 1 1 s\n", parse_run),
        ("a.tsv", "d1\tA\t1\nd2\x00\tA\t1\n", parse_alignment),
        ("q.txt", "q1 0 d1 1\nq1 0 d\x00 1\n", parse_qrels),
    ],
)
def test_nul_in_a_document_id_is_a_parse_error_naming_its_line(tmp_path, name, text, reader):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        reader(path)
    assert caught.value.line == 2
    assert "holds a NUL byte" in str(caught.value)


def test_nul_in_a_request_or_group_name_is_kept(tmp_path):
    run = parse_run(_write(tmp_path, "a.run", ["q\x00 0 d1 0 1 s"]))
    assert run.requests() == ("q\x00",)
    table = parse_alignment(_write(tmp_path, "a.tsv", ["d1\tA\x00\t1"]))
    assert table.schema.names == ("A\x00", "unknown")


def test_api_rejects_a_nul_in_a_document_id():
    schema = GroupSchema.from_groups(["A"])
    with pytest.raises(ShapeError, match="NUL"):
        AlignmentTable.from_weights(schema, {"d\x00": [1.0, 0.0]})
    with pytest.raises(ShapeError, match="NUL"):
        RelevanceJudgments({("q1", "d\x00"): 1.0})
    with pytest.raises(ShapeError, match="NUL"):
        RunFile.from_rankings("s", {"q1": (Ranking("q1", 0, ("d\x00",)),)})
    table = AlignmentTable.from_weights(schema, {"d": [1.0, 0.0]})
    assert "d\x00" not in table
    with pytest.raises(ShapeError, match="NUL"):
        table.matrix(["d\x00"])


# -- table equality -------------------------------------------------------


def test_alignment_tables_compare_by_value_and_do_not_hash(tmp_path):
    text = "d2\tA\t1\nd1\tB\t0.5\nd1\tA\t0.5\n"
    a = parse_alignment(_write(tmp_path, "a.tsv", text.splitlines()))
    b = parse_alignment(_write(tmp_path, "b.tsv", text.splitlines()))
    assert a == b
    reordered = parse_alignment(_write(tmp_path, "c.tsv", text.splitlines()[::-1]))
    assert reordered.documents() == ("d1", "d2")
    assert a != reordered  # the same vectors, in another order
    reweighted = parse_alignment(_write(tmp_path, "d.tsv", ["d2\tA\t1", "d1\tB\t1"]))
    assert a != reweighted
    assert a != "not a table"
    with pytest.raises(TypeError):
        hash(a)


# -- reader memory --------------------------------------------------------


def _ingest_like(kind: str, size: int = 1_000_000) -> str:
    """About ``size`` bytes shaped like a large TREC input: 8-byte document
    ids, 20-deep rankings, 40 judgments per request, and an alignment
    where three documents in ten belong to two groups."""
    rng = np.random.default_rng(3)
    lines = []
    if kind == "run":
        while len(lines) * 28 < size:
            q = len(lines) // 20
            docs = rng.choice(50_000, 20, replace=False)
            lines += [f"q{q:05d} 0 d{d:07d} {r} {20 - r} sysA" for r, d in enumerate(docs)]
    elif kind == "qrels":
        while len(lines) * 20 < size:
            q = len(lines) // 40
            docs = rng.choice(50_000, 40, replace=False)
            lines += [f"q{q:05d} 0 d{d:07d} {g}" for d, g in zip(docs, rng.integers(0, 3, 40))]
    else:
        d = 0
        while len(lines) * 17 < size:
            g = rng.integers(0, 3)
            if rng.random() < 0.3:
                w = rng.uniform(0.2, 0.8)
                lines += [f"d{d:07d}\tg{g}\t{w:.4f}", f"d{d:07d}\tg{(g + 1) % 3}\t{1 - w:.4f}"]
            else:
                lines.append(f"d{d:07d}\tg{g}\t1")
            d += 1
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "kind,reader,bound",
    [("run", parse_run, 7), ("qrels", parse_qrels, 7), ("alignment", parse_alignment, 12)],
)
def test_reader_peak_memory_is_a_small_multiple_of_the_file(tmp_path, kind, reader, bound):
    path = tmp_path / kind
    path.write_text(_ingest_like(kind), encoding="utf-8")
    size = path.stat().st_size
    reader(path)  # first-call costs (lazy imports, caches) are not the parse's
    tracemalloc.start()
    try:
        reader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * size, f"{kind}: peak {peak / size:.1f}x the file's {size} bytes"
