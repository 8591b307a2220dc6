import numpy as np
import pytest

from gridfair import (
    BrowsingModelSpec,
    DistanceSpec,
    MetricError,
    PopulationEstimator,
    Ranking,
    ShapeError,
    awrf,
    awrf_system,
    eel,
    group_exposure,
    population_estimator,
    system_exposure,
    target_exposure,
    truncate,
    wrap,
)
from gridfair.layout import VERTICAL, WRAPPED_GRID, RenderPlan

from util import make_judgments, make_ranking, make_table, permutation_expectation

L1 = DistanceSpec("l1")


class TestGroupExposure:
    def test_matrix_vector_product(self):
        expo = group_exposure([1.0, 0.5], [[1, 0], [0, 1]])
        assert expo.tolist() == [1.0, 0.5]

    def test_empty_layout_gives_zero_vector(self):
        expo = group_exposure([], np.zeros((0, 3)))
        assert expo.tolist() == [0.0, 0.0, 0.0]

    def test_mixed_membership_split(self):
        expo = group_exposure([1.0], [[0.5, 0.5]])
        assert expo.tolist() == [0.5, 0.5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            group_exposure([1.0, 0.5], [[1, 0]])


class TestPopulationEstimator:
    def test_catalog_mean_of_unit_vectors(self):
        table = make_table({"d1": "a", "d2": "b"})
        est = population_estimator(PopulationEstimator("catalog"), table)
        assert est.tolist() == [0.5, 0.5, 0.0]

    def test_uniform_spreads_over_all_groups(self):
        table = make_table({"d1": "a", "d2": "b"})
        est = population_estimator(PopulationEstimator("uniform"), table)
        np.testing.assert_allclose(est, [1 / 3, 1 / 3, 1 / 3])

    def test_catalog_with_unlabeled_documents(self):
        table = make_table({"d1": [1.0, 0.0, 0.0]}, groups=["a", "b"])
        est = population_estimator(
            PopulationEstimator("catalog"), table, docs=["d1", "d2"]
        )
        assert est.tolist() == [0.5, 0.0, 0.5]

    def test_retrieved_requires_documents(self):
        table = make_table({"d1": "a"})
        with pytest.raises(MetricError):
            population_estimator(PopulationEstimator("retrieved"), table)

    def test_retrieved_mean(self):
        table = make_table({"d1": "a", "d2": "a", "d3": "b"})
        est = population_estimator(
            PopulationEstimator("retrieved"), table, docs=["d1", "d3"]
        )
        assert est.tolist() == [0.5, 0.5, 0.0]

    def test_fixed_must_sum_to_one(self):
        table = make_table({"d1": "a", "d2": "b"})
        with pytest.raises(MetricError):
            population_estimator(
                PopulationEstimator("fixed", np.array([0.7, 0.7, 0.0])), table
            )

    def test_fixed_rejects_negatives(self):
        table = make_table({"d1": "a", "d2": "b"})
        with pytest.raises(MetricError):
            population_estimator(
                PopulationEstimator("fixed", np.array([1.5, -0.5, 0.0])), table
            )

    def test_fixed_passthrough(self):
        table = make_table({"d1": "a", "d2": "b"})
        est = population_estimator(
            PopulationEstimator("fixed", np.array([0.25, 0.75, 0.0])), table
        )
        assert est.tolist() == [0.25, 0.75, 0.0]

    def test_fixed_requires_values(self):
        with pytest.raises(MetricError):
            PopulationEstimator("fixed")


class TestAwrf:
    def schema(self):
        return make_table({"d1": "a", "d2": "b"}).schema

    def test_parity_scores_zero(self):
        assert awrf([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], L1, self.schema()) == 0.0

    def test_l1_on_normalized_shares(self):
        got = awrf([1.0, 0.5, 0.0], [0.5, 0.5, 0.0], L1, self.schema())
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_l2(self):
        got = awrf([1.0, 0.5, 0.0], [0.5, 0.5, 0.0], DistanceSpec("l2"), self.schema())
        assert got == pytest.approx(np.sqrt(2) / 6, abs=1e-12)

    def test_signed_two_group(self):
        got = awrf(
            [1.0, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            DistanceSpec("signed-two-group"),
            self.schema(),
        )
        assert got == pytest.approx(1 / 6, abs=1e-12)

    def test_signed_respects_protected_choice(self):
        got = awrf(
            [1.0, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            DistanceSpec("signed-two-group", protected="b"),
            self.schema(),
        )
        assert got == pytest.approx(-1 / 6, abs=1e-12)

    def test_signed_needs_exactly_two_groups(self):
        schema = make_table({"d1": "a", "d2": "b", "d3": "c"}).schema
        with pytest.raises(MetricError):
            awrf(
                [1.0, 0.5, 0.2, 0.0],
                [0.25, 0.25, 0.25, 0.25],
                DistanceSpec("signed-two-group"),
                schema,
            )

    def test_zero_exposure_undefined(self):
        with pytest.raises(MetricError):
            awrf([0.0, 0.0, 0.0], [0.5, 0.5, 0.0], L1, self.schema())

    def test_scale_invariance(self):
        schema = self.schema()
        a = awrf([1.0, 0.5, 0.1], [0.5, 0.5, 0.0], L1, schema)
        b = awrf([10.0, 5.0, 1.0], [0.5, 0.5, 0.0], L1, schema)
        assert a == pytest.approx(b, abs=1e-12)

    def test_exclude_unknown_renormalizes_both_sides(self):
        schema = self.schema()
        got = awrf(
            [1.0, 0.5, 0.5],
            [0.25, 0.25, 0.5],
            L1,
            schema,
            exclude_unknown=True,
        )
        # shares (2/3, 1/3) vs renormalized target (1/2, 1/2)
        assert got == pytest.approx(1 / 3, abs=1e-12)


class TestAwrfSystem:
    def test_mean(self):
        assert awrf_system([0.2, 0.4]) == pytest.approx(0.3)

    def test_singleton(self):
        assert awrf_system([0.7]) == 0.7

    def test_idempotent_on_identical_scores(self):
        assert awrf_system([0.125] * 100) == 0.125

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            awrf_system([])


class TestTargetExposure:
    def test_distinct_grades_linear(self):
        table = make_table({"r": "a", "n": "b"})
        rel = make_judgments("q1", {"r": 1.0})
        tau = target_exposure(
            "q1", ["n", "r"], rel, RenderPlan(VERTICAL, 1), BrowsingModelSpec(), table
        )
        assert tau.tolist() == [1.0, 0.5, 0.0]

    def test_tied_grades_share_equally(self):
        table = make_table({"x": "a", "y": "b"})
        rel = make_judgments("q1", {"x": 1.0, "y": 1.0})
        tau = target_exposure(
            "q1", ["x", "y"], rel, RenderPlan(VERTICAL, 1), BrowsingModelSpec(), table
        )
        assert tau.tolist() == [0.75, 0.75, 0.0]

    def test_hidden_slots_count_as_zero(self):
        table = make_table({d: "a" for d in "abcde"})
        rel = make_judgments("q1", {d: 1.0 for d in "abcde"})
        renderer = lambda ranking: truncate(wrap(ranking, 2), 1)
        tau = target_exposure(
            "q1", list("abcde"), rel, renderer, BrowsingModelSpec(), table
        )
        # displayed ideal slots weigh 1, 0.5, 0.25; five-way tier mean is 0.35
        np.testing.assert_allclose(tau, [5 * 0.35, 0.0], rtol=0, atol=1e-12)

    def test_empty_documents_rejected(self):
        table = make_table({"d": "a"})
        with pytest.raises(MetricError):
            target_exposure(
                "q1", [], make_judgments("q1", {}), RenderPlan(VERTICAL, 1),
                BrowsingModelSpec(), table,
            )

    def test_tier_mean_equals_permutation_expectation(self):
        """Exhaustive within-tier shuffles give the same exposure for
        models whose weights depend on position only."""
        rng = np.random.default_rng(21)
        specs = [
            BrowsingModelSpec(),
            BrowsingModelSpec(adjustment="row-skip", gamma=0.4),
            BrowsingModelSpec(adjustment="slow-decay", beta=1.5),
        ]
        for trial in range(6):
            n = int(rng.integers(2, 7))
            docs = [f"d{i}" for i in range(n)]
            grades = {d: float(rng.integers(0, 3)) for d in docs}
            table = make_table(
                {d: ("a" if i % 2 else "b") for i, d in enumerate(docs)}
            )
            rel = make_judgments("q1", grades)
            plan = RenderPlan(WRAPPED_GRID, int(rng.integers(1, 4)))
            for spec in specs:
                tau = target_exposure("q1", docs, rel, plan, spec, table)
                oracle = permutation_expectation(docs, grades, plan, spec, table)
                np.testing.assert_allclose(tau, oracle, rtol=0, atol=1e-12)


class TestSystemExposureAndEel:
    def test_singleton_policy(self):
        table = make_table({"d0": "a", "d1": "b"})
        ranking = make_ranking(2)
        expo = system_exposure(
            [ranking], RenderPlan(VERTICAL, 1), BrowsingModelSpec(), None, table
        )
        assert expo.tolist() == [1.0, 0.5, 0.0]

    def test_mean_over_samples(self):
        table = make_table({"d0": "a", "d1": "b"})
        first = Ranking("q1", 0, ("d0", "d1"))
        second = Ranking("q1", 1, ("d1", "d0"))
        expo = system_exposure(
            [first, second], RenderPlan(VERTICAL, 1), BrowsingModelSpec(), None, table
        )
        assert expo.tolist() == [0.75, 0.75, 0.0]

    def test_identical_samples_idempotent(self):
        table = make_table({"d0": "a", "d1": "b"})
        rankings = [Ranking("q1", i, ("d0", "d1")) for i in range(3)]
        expo = system_exposure(
            rankings, RenderPlan(VERTICAL, 1), BrowsingModelSpec(), None, table
        )
        assert expo.tolist() == [1.0, 0.5, 0.0]

    def test_empty_policy_rejected(self):
        table = make_table({"d0": "a"})
        with pytest.raises(MetricError):
            system_exposure(
                [], RenderPlan(VERTICAL, 1), BrowsingModelSpec(), None, table
            )

    def test_eel_zero_on_match(self):
        assert eel([1.0, 0.5], [1.0, 0.5]) == 0.0

    def test_eel_squared_distance(self):
        assert eel([1.0, 0.5], [0.75, 0.75]) == pytest.approx(0.125, abs=1e-15)

    def test_eel_homogeneity(self):
        a = eel([1.0, 0.5, 0.2], [0.3, 0.3, 0.3])
        b = eel([2.0, 1.0, 0.4], [0.6, 0.6, 0.6])
        assert b == pytest.approx(4 * a, rel=1e-12)

    def test_eel_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            eel([1.0, 0.5], [1.0, 0.5, 0.0])

    def test_policy_mean_matches_explicit_expansion(self):
        rng = np.random.default_rng(8)
        table = make_table({f"d{i}": ("a" if i % 3 else "b") for i in range(12)})
        plan = RenderPlan(WRAPPED_GRID, 3)
        spec = BrowsingModelSpec(adjustment="row-skip")
        for n_samples in range(1, 6):
            rankings = []
            for s in range(n_samples):
                items = [f"d{i}" for i in rng.permutation(12)[:8]]
                rankings.append(Ranking("q1", s, tuple(items)))
            combined = system_exposure(rankings, plan, spec, None, table)
            expanded = np.zeros(table.schema.size)
            for ranking in rankings:
                expanded += (1.0 / n_samples) * system_exposure(
                    [ranking], plan, spec, None, table
                )
            np.testing.assert_allclose(combined, expanded, rtol=0, atol=1e-12)
