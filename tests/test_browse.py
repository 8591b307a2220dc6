import numpy as np
import pytest

from gridfair import BrowsingModelSpec, ShapeError, attention, continuations, wrap

from util import make_judgments, make_ranking


GEO = BrowsingModelSpec()  # geometric, no adjustment, alpha 0.5


def random_grid(rng, max_n=50, max_c=10, n_min=1):
    n = int(rng.integers(n_min, max_n + 1))
    c = int(rng.integers(1, max_c + 1))
    return wrap(make_ranking(n), c)


class TestContinuation:
    def test_non_relevant_cascade_equals_alpha(self):
        spec = BrowsingModelSpec(base="cascade", alpha=0.5, relevance_cap=1.0)
        assert continuations([0.0], spec).tolist() == [0.5]

    def test_fully_relevant_halves_at_default_satisfaction(self):
        spec = BrowsingModelSpec(base="cascade", alpha=0.5, satisfaction=0.5, relevance_cap=1.0)
        assert continuations([1.0], spec)[0] == pytest.approx(0.25)

    def test_zero_satisfaction_disables_relevance(self):
        spec = BrowsingModelSpec(base="cascade", alpha=0.5, satisfaction=0.0, relevance_cap=1.0)
        assert continuations([1.0], spec).tolist() == [0.5]

    def test_geometric_ignores_grades(self):
        spec = BrowsingModelSpec(base="geometric", alpha=0.3, relevance_cap=1.0)
        assert continuations([5.0], spec).tolist() == [0.3]

    def test_grades_above_cap_saturate(self):
        spec = BrowsingModelSpec(base="cascade", alpha=0.5, satisfaction=1.0, relevance_cap=2.0)
        above, at = continuations([7.0, 2.0], spec)
        assert above == at


class TestBase:
    def test_geometric_powers(self):
        grid = wrap(make_ranking(4), 1)
        assert attention(grid, None, GEO).tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_cascade_products(self):
        grid = wrap(make_ranking(2), 1)
        rel = make_judgments("q1", {"d0": 1.0, "d1": 0.0})
        spec = BrowsingModelSpec(base="cascade", alpha=0.5, satisfaction=0.5)
        assert attention(grid, rel, spec).tolist() == [1.0, 0.25]

    def test_cascade_all_zero_equals_geometric(self):
        rng = np.random.default_rng(0)
        cascade = BrowsingModelSpec(base="cascade", alpha=0.5)
        for _ in range(20):
            grid = random_grid(rng)
            np.testing.assert_array_equal(
                attention(grid, None, cascade), attention(grid, None, GEO)
            )

    def test_layout_shape_does_not_change_base(self):
        ranking = make_ranking(9)
        linear = attention(wrap(ranking, 1), None, GEO)
        grid = attention(wrap(ranking, 3), None, GEO)
        np.testing.assert_array_equal(linear, grid)


class TestRowSkip:
    def test_zero_gamma_recovers_base(self):
        rng = np.random.default_rng(1)
        spec = BrowsingModelSpec(adjustment="row-skip", gamma=0.0)
        for _ in range(20):
            grid = random_grid(rng)
            np.testing.assert_allclose(
                attention(grid, None, spec),
                attention(grid, None, GEO),
                rtol=0,
                atol=1e-12,
            )

    def test_square_grid_hand_values(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec(adjustment="row-skip", alpha=0.5, gamma=0.5)
        assert attention(grid, None, spec).tolist() == [1.0, 0.5, 0.625, 0.3125]

    def test_always_skip_reaches_every_row(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec(adjustment="row-skip", alpha=0.5, gamma=1.0)
        assert attention(grid, None, spec).tolist() == [1.0, 0.5, 1.0, 0.5]

    def test_full_mode_constant_within_rows(self):
        grid = wrap(make_ranking(9), 3)
        spec = BrowsingModelSpec(adjustment="row-skip", within_row="full")
        weights = attention(grid, None, spec)
        for row in range(3):
            segment = weights[3 * row : 3 * row + 3]
            assert np.all(segment == segment[0])

    def test_prefix_mode_non_increasing_within_rows(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            grid = random_grid(rng)
            spec = BrowsingModelSpec(
                adjustment="row-skip",
                alpha=float(rng.uniform(0.1, 0.9)),
                gamma=float(rng.uniform(0.0, 1.0)),
            )
            weights = attention(grid, None, spec)
            start = 0
            for ln in grid.row_lengths:
                segment = weights[start : start + ln]
                assert np.all(np.diff(segment) <= 1e-15)
                start += ln

    def test_weights_are_probabilities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            grid = random_grid(rng)
            spec = BrowsingModelSpec(
                adjustment="row-skip",
                alpha=float(rng.uniform(0.1, 0.9)),
                gamma=float(rng.uniform(0.0, 1.0)),
            )
            weights = attention(grid, None, spec)
            assert np.all(weights >= 0.0) and np.all(weights <= 1.0)

    def test_top_row_always_reached(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            grid = random_grid(rng)
            spec = BrowsingModelSpec(adjustment="row-skip", gamma=float(rng.uniform(0, 1)))
            assert attention(grid, None, spec)[0] == 1.0


class TestSlowDecay:
    def test_unit_beta_recovers_base(self):
        rng = np.random.default_rng(5)
        spec = BrowsingModelSpec(adjustment="slow-decay", beta=1.0)
        for _ in range(20):
            grid = random_grid(rng)
            np.testing.assert_allclose(
                attention(grid, None, spec),
                attention(grid, None, GEO),
                rtol=0,
                atol=1e-12,
            )

    def test_square_grid_hand_values(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec(adjustment="slow-decay", alpha=0.5, beta=1.9)
        assert attention(grid, None, spec).tolist() == [1.0, 0.5, 0.475, 0.2375]

    def test_boost_clamped_at_one(self):
        grid = wrap(make_ranking(3), 2)
        spec = BrowsingModelSpec(adjustment="slow-decay", alpha=0.9, beta=2.0)
        weights = attention(grid, None, spec)
        # third item sits on row 1: boost 2 x 0.81 exceeds 1 and is capped
        assert weights[2] == 1.0

    def test_cascade_slow_decay_zero_grades_equals_geometric(self):
        grid = wrap(make_ranking(10), 4)
        geo = BrowsingModelSpec(adjustment="slow-decay", beta=1.6)
        cas = BrowsingModelSpec(base="cascade", adjustment="slow-decay", beta=1.6)
        np.testing.assert_array_equal(
            attention(grid, None, cas), attention(grid, None, geo)
        )

    def test_deep_single_column_stays_a_probability(self):
        # boost and decay race toward inf and 0; weights must not blow up
        grid = wrap(make_ranking(1200), 1)
        spec = BrowsingModelSpec(adjustment="slow-decay", alpha=0.5, beta=2.0)
        weights = attention(grid, None, spec)
        assert np.all(np.isfinite(weights))
        # alpha*beta = 1 keeps every position at probability exactly 1
        assert np.all(weights == 1.0)
        milder = BrowsingModelSpec(adjustment="slow-decay", alpha=0.4, beta=2.0)
        weights = attention(grid, None, milder)
        assert np.all(np.isfinite(weights))
        assert np.all((weights >= 0.0) & (weights <= 1.0))


class TestDispatchAndSpec:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ShapeError):
            BrowsingModelSpec(alpha=0.0)
        with pytest.raises(ShapeError):
            BrowsingModelSpec(alpha=1.0)
        with pytest.raises(ShapeError):
            BrowsingModelSpec(gamma=1.5)
        with pytest.raises(ShapeError):
            BrowsingModelSpec(beta=0.9)
        with pytest.raises(ShapeError):
            BrowsingModelSpec(base="uniform")
        with pytest.raises(ShapeError):
            BrowsingModelSpec(within_row="suffix")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, value):
        with pytest.raises(ShapeError, match="beta must be finite"):
            BrowsingModelSpec(beta=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_relevance_cap_rejected(self, value):
        with pytest.raises(ShapeError, match="relevance cap must be finite"):
            BrowsingModelSpec(relevance_cap=value)

    def test_relevance_cap_default_is_max_observed(self):
        grid = wrap(make_ranking(3), 1)
        rel = make_judgments("q1", {"d0": 4.0, "d1": 2.0})
        capped = BrowsingModelSpec(base="cascade", relevance_cap=4.0)
        inferred = BrowsingModelSpec(base="cascade")
        np.testing.assert_array_equal(
            attention(grid, rel, inferred), attention(grid, rel, capped)
        )

    def test_empty_layout_gives_empty_weights(self):
        grid = wrap(make_ranking(1), 1)
        cut = grid
        assert attention(cut, None, GEO).shape == (1,)
