import numpy as np
import pytest

from gridfair import (
    AlignmentTable,
    GroupSchema,
    Ranking,
    RelevanceJudgments,
    ShapeError,
)
from gridfair.core import normalize_weights

from util import make_table


class TestGroupSchema:
    def test_unknown_required(self):
        with pytest.raises(ShapeError):
            GroupSchema(("a", "b"))

    def test_unknown_exactly_once(self):
        with pytest.raises(ShapeError):
            GroupSchema(("unknown", "a", "unknown"))

    def test_duplicates_rejected(self):
        with pytest.raises(ShapeError):
            GroupSchema(("a", "a", "unknown"))

    def test_from_groups_sorts_unknown_last(self):
        schema = GroupSchema.from_groups(["b", "a", "c"])
        assert schema.names == ("a", "b", "c", "unknown")
        assert schema.unknown_index == 3

    def test_unknown_vector(self):
        schema = GroupSchema.from_groups(["a"])
        assert schema.unknown_vector().tolist() == [0.0, 1.0]


class TestNormalizeWeights:
    def test_small_deviation_renormalized(self):
        vec = normalize_weights([0.5, 0.5 + 5e-7])
        assert vec.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_deviation_rejected(self):
        with pytest.raises(ShapeError):
            normalize_weights([0.5, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(ShapeError):
            normalize_weights([-0.1, 1.1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            normalize_weights([1.0000002, 0.0])


class TestAlignmentTable:
    def test_single_known_document(self):
        table = make_table({"d1": "a"}, groups=["a", "b"])
        mat = table.matrix(["d1"])
        assert mat.tolist() == [[1.0, 0.0, 0.0]]

    def test_missing_document_maps_to_unknown(self):
        table = make_table({}, groups=["a", "b"])
        mat = table.matrix(["d_missing"])
        assert mat.tolist() == [[0.0, 0.0, 1.0]]

    def test_mixed_membership_passthrough(self):
        table = make_table(
            {"d1": [0.5, 0.5, 0.0], "d2": [0.0, 1.0, 0.0]}, groups=["a", "b"]
        )
        mat = table.matrix(["d1", "d2"])
        assert mat.tolist() == [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]

    def test_lookup_is_total(self):
        table = make_table({"d1": "a"})
        for doc in ("d1", "never-seen", ""):
            vec = table.matrix([doc])[0]
            assert vec.shape == (2,)
            assert vec.sum() == pytest.approx(1.0)

    def test_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1, size=(20, 4))
        raw /= raw.sum(axis=1, keepdims=True)
        table = make_table(
            {f"d{i}": raw[i] for i in range(20)}, groups=["a", "b", "c"]
        )
        mat = table.matrix([f"d{i}" for i in range(20)] + ["absent"])
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_wrong_width_rejected(self):
        schema = GroupSchema.from_groups(["a", "b"])
        with pytest.raises(ShapeError):
            AlignmentTable.from_weights(schema, {"d1": [1.0, 0.0]})

    def test_rows_equal_per_document_normalization(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0, 1, size=(50, 5))
        raw /= raw.sum(axis=1, keepdims=True)
        raw[::7, 0] += 4e-7  # within tolerance: renormalized, not rejected
        weights = {f"d{i}": raw[i].tolist() for i in range(50)}
        table = AlignmentTable.from_weights(GroupSchema.from_groups("abcd"), weights)
        for doc, vec in weights.items():
            assert table.matrix([doc])[0].tobytes() == normalize_weights(vec).tobytes()
        assert table.matrix(list(weights)).tobytes() == np.stack(
            [normalize_weights(vec) for vec in weights.values()]
        ).tobytes()

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([0.5, 0.6, 0.0], "membership weights sum to"),
            ([-0.1, 1.1, 0.0], "membership weights must lie in [0, 1]"),
            ([float("nan"), 1.0, 0.0], "membership weights must be finite"),
            ([1.0, 0.0], "alignment vector for 'd2' has 2 entries, schema has 3 groups"),
            ([], "membership weights must be a non-empty 1-d vector"),
        ],
        ids=["sum", "range", "finite", "width", "empty"],
    )
    def test_first_offending_document_is_reported(self, bad, message):
        schema = GroupSchema.from_groups(["a", "b"])
        weights = {
            "d0": [1.0, 0.0, 0.0],
            "d1": [0.0, 1.0, 0.0],
            "d2": bad,
            "d3": [0.2, 0.2, 0.2],  # also invalid, but later in input order
            "d4": [1.0, 0.0],
        }
        try:  # what checking d2 alone reports
            normalize_weights(bad)
            alone = f"alignment vector for 'd2' has {len(bad)} entries, schema has 3 groups"
        except ShapeError as exc:
            alone = str(exc)
        with pytest.raises(ShapeError) as caught:
            AlignmentTable.from_weights(schema, weights)
        assert str(caught.value) == alone
        assert message in alone

    def test_matrix_is_one_read_only_table(self):
        table = make_table({"d1": "a", "d2": "b"})
        assert len(table) == 2 and "d1" in table and "d3" not in table
        assert table.documents() == ("d1", "d2")
        assert not table._matrix.flags.writeable
        assert table.matrix([]).shape == (0, 3)
        gathered = table.matrix(["d2", "absent", "d1"])
        assert gathered.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        gathered[0, 0] = 5.0  # a gather is a copy
        assert table.matrix(["d2"])[0].tolist() == [0.0, 1.0, 0.0]


class TestRanking:
    def test_duplicate_items_rejected(self):
        with pytest.raises(ShapeError):
            Ranking("q1", 0, ("d1", "d1"))

    def test_scores_must_parallel_items(self):
        with pytest.raises(ShapeError):
            Ranking("q1", 0, ("d1", "d2"), scores=(1.0,))

    def test_empty_request_rejected(self):
        with pytest.raises(ShapeError):
            Ranking("", 0, ("d1",))

    def test_negative_sample_rejected(self):
        with pytest.raises(ShapeError):
            Ranking("q1", -1, ("d1",))

    def test_unordered_scores_allowed(self):
        ranking = Ranking("q1", 0, ("d1", "d2"), scores=(0.1, 0.9))
        assert ranking.scores == (0.1, 0.9)


class TestRelevanceJudgments:
    def test_absent_pairs_read_as_zero(self):
        rel = RelevanceJudgments({("q1", "d1"): 1.0})
        assert rel.grades("q1", ["d2"])[0] == 0.0
        assert rel.grades("q2", ["d1"])[0] == 0.0

    def test_negative_grade_rejected(self):
        with pytest.raises(ShapeError):
            RelevanceJudgments({("q1", "d1"): -0.5})

    @pytest.mark.parametrize("grade", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_grade_rejected_naming_its_pair(self, grade):
        grades = {("q1", "a"): 1.0, ("q1", "b"): grade}
        with pytest.raises(ShapeError, match=r"non-finite relevance grade for \('q1', 'b'\)"):
            RelevanceJudgments(grades)
        with pytest.raises(ShapeError, match="non-finite"):
            RelevanceJudgments.from_columns(["q1"], ["a", "b"], [0, 0], [0, 1], [1.0, grade])

    def test_grades_vector(self):
        rel = RelevanceJudgments({("q1", "d1"): 2.0, ("q1", "d3"): 1.0})
        assert rel.grades("q1", ["d1", "d2", "d3"]).tolist() == [2.0, 0.0, 1.0]

    def test_max_grade(self):
        rel = RelevanceJudgments({("q1", "d1"): 2.0, ("q2", "d1"): 5.0})
        assert rel.max_grade("q1") == 2.0
        assert rel.max_grade("q3") == 0.0

    def test_views_over_several_requests(self):
        rel = RelevanceJudgments(
            {("q2", "d3"): 1.0, ("q1", "d2"): 2.0, ("q2", "d1"): 5.0, ("q1", "d9"): 0.0}
        )
        assert len(rel) == 4
        assert (rel.max_grade("q1"), rel.max_grade("q2"), rel.max_grade("qx")) == (2.0, 5.0, 0.0)
        assert rel.grades("q2", ["d1", "d2", "d3", "d9"]).tolist() == [5.0, 0.0, 1.0, 0.0]
        assert rel.grades("qx", ["d1"]).tolist() == [0.0]
        assert rel.grades("q1", []).shape == (0,)
        assert RelevanceJudgments().grades("q1", ["d1"]).tolist() == [0.0]
        assert RelevanceJudgments().max_grade("q1") == 0.0
        # Input order does not matter.
        assert rel == RelevanceJudgments(
            {("q1", "d9"): 0.0, ("q2", "d1"): 5.0, ("q1", "d2"): 2.0, ("q2", "d3"): 1.0}
        )
        assert rel != RelevanceJudgments({("q1", "d2"): 2.0})

    def test_lookup_over_shared_name_lists(self):
        rel = RelevanceJudgments({("q1", "d2"): 2.0, ("q2", "d1"): 5.0})
        requests, docs = ["q2", "q1", "qx"], ["d1", "d2", "dx"]
        pairs = [(0, 0), (1, 1), (1, 0), (2, 0), (0, 2)]
        got = rel.lookup(requests, docs, *np.array(pairs).T)
        assert got.tolist() == [rel.grades(requests[q], [docs[d]])[0] for q, d in pairs]
        assert got.tolist() == [5.0, 2.0, 0.0, 0.0, 0.0]
