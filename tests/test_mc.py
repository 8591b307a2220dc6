import numpy as np
import pytest

from gridfair import (
    BrowsingModelSpec,
    ShapeError,
    attention,
    continuations,
    simulate_row_skip,
    wrap,
)
from gridfair.browse import position_weights

from util import make_ranking


def ungraded(grid, spec):
    """The ``cont, row_lengths`` of a grid whose items all have grade 0."""
    return continuations(np.zeros(grid.n_displayed), spec), grid.row_lengths


class TestSimulator:
    def test_matches_analytic_weights(self):
        grid = wrap(make_ranking(9), 3)
        spec = BrowsingModelSpec(adjustment="row-skip", alpha=0.5, gamma=0.5)
        exact = attention(grid, None, spec)
        est, se = simulate_row_skip(*ungraded(grid, spec), spec, 100_000, seed=7)
        # 4 standard errors leaves ~2e-3 odds per weight of a false alarm
        assert np.all(np.abs(est - exact) <= 4.0 * se + 1e-12)

    def test_first_item_always_visited(self):
        grid = wrap(make_ranking(6), 2)
        spec = BrowsingModelSpec(adjustment="row-skip", gamma=0.9)
        est, se = simulate_row_skip(*ungraded(grid, spec), spec, 5_000, seed=1)
        assert est[0] == 1.0
        assert se[0] == 0.0

    def test_seed_reproducible(self):
        grid = wrap(make_ranking(6), 3)
        spec = BrowsingModelSpec(adjustment="row-skip")
        a, _ = simulate_row_skip(*ungraded(grid, spec), spec, 20_000, seed=5)
        b, _ = simulate_row_skip(*ungraded(grid, spec), spec, 20_000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_chunking_does_not_change_counts(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec(adjustment="row-skip")
        a, _ = simulate_row_skip(*ungraded(grid, spec), spec, 30_000, seed=9, chunk_size=30_000)
        b, _ = simulate_row_skip(*ungraded(grid, spec), spec, 30_000, seed=9, chunk_size=1 << 32)
        np.testing.assert_array_equal(a, b)

    def test_only_prefix_row_skip_supported(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec()
        with pytest.raises(ShapeError):
            simulate_row_skip(*ungraded(grid, spec), spec, 100, seed=0)
        with pytest.raises(ShapeError):
            spec = BrowsingModelSpec(adjustment="row-skip", within_row="full")
            simulate_row_skip(*ungraded(grid, spec), spec, 100, seed=0)

    @pytest.mark.parametrize(
        "row_lengths", [[1], [3, 1, 4, 2], [2, 2, 2, 1], [4, 3], [1, 1, 1, 1, 1], [3, 3, 3, 3]]
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.35, 0.8, 1.0])
    def test_ragged_rows_and_varying_continuations(self, row_lengths, gamma):
        # Any continuations and row lengths, not only a constant alpha on a
        # wrapped grid; the seed is fixed, so the check cannot flake.
        rng = np.random.default_rng(len(row_lengths) * 100 + int(gamma * 20))
        cont = rng.uniform(0.5, 0.95, size=sum(row_lengths))
        rows = np.array(row_lengths)
        spec = BrowsingModelSpec(adjustment="row-skip", gamma=gamma)
        exact = position_weights(cont, rows, spec)
        est, se = simulate_row_skip(cont, rows, spec, 200_000, seed=11)
        assert np.all(np.abs(est - exact) <= 4.0 * se + 1e-12)

    def test_graded_cascade_continuations(self):
        spec = BrowsingModelSpec(base="cascade", adjustment="row-skip", gamma=0.4)
        cont = continuations(np.array([3.0, 0.0, 1.0, 2.0, 0.0, 3.0, 1.0]), spec)
        rows = np.array([3, 3, 1])
        exact = position_weights(cont, rows, spec)
        est, se = simulate_row_skip(cont, rows, spec, 200_000, seed=12)
        assert np.all(np.abs(est - exact) <= 4.0 * se + 1e-12)

    def test_continuations_must_fill_the_rows(self):
        spec = BrowsingModelSpec(adjustment="row-skip")
        with pytest.raises(ShapeError):
            simulate_row_skip(np.full(5, 0.5), np.array([2, 2]), spec, 100, seed=0)
        with pytest.raises(ShapeError):
            simulate_row_skip(np.full((2, 4), 0.5), np.array([2, 2]), spec, 100, seed=0)
        with pytest.raises(ShapeError):
            simulate_row_skip(np.full(2, 0.5), np.array([2, 0]), spec, 100, seed=0)
