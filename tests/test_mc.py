import numpy as np
import pytest

from gridfair import BrowsingModelSpec, ShapeError, attention, simulate_row_skip, wrap

from util import make_ranking


class TestSimulator:
    def test_matches_analytic_weights(self):
        grid = wrap(make_ranking(9), 3)
        spec = BrowsingModelSpec(adjustment="row-skip", alpha=0.5, gamma=0.5)
        exact = attention(grid, None, spec)
        est, se = simulate_row_skip(grid, None, spec, 100_000, seed=7)
        # 4 standard errors leaves ~2e-3 odds per weight of a false alarm
        assert np.all(np.abs(est - exact) <= 4.0 * se + 1e-12)

    def test_first_item_always_visited(self):
        grid = wrap(make_ranking(6), 2)
        spec = BrowsingModelSpec(adjustment="row-skip", gamma=0.9)
        est, se = simulate_row_skip(grid, None, spec, 5_000, seed=1)
        assert est[0] == 1.0
        assert se[0] == 0.0

    def test_seed_reproducible(self):
        grid = wrap(make_ranking(6), 3)
        spec = BrowsingModelSpec(adjustment="row-skip")
        a, _ = simulate_row_skip(grid, None, spec, 20_000, seed=5)
        b, _ = simulate_row_skip(grid, None, spec, 20_000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_chunking_does_not_change_counts(self):
        grid = wrap(make_ranking(4), 2)
        spec = BrowsingModelSpec(adjustment="row-skip")
        a, _ = simulate_row_skip(grid, None, spec, 30_000, seed=9, chunk_size=30_000)
        b, _ = simulate_row_skip(grid, None, spec, 30_000, seed=9, chunk_size=1 << 32)
        np.testing.assert_array_equal(a, b)

    def test_only_prefix_row_skip_supported(self):
        grid = wrap(make_ranking(4), 2)
        with pytest.raises(ShapeError):
            simulate_row_skip(grid, None, BrowsingModelSpec(), 100, seed=0)
        with pytest.raises(ShapeError):
            simulate_row_skip(
                grid,
                None,
                BrowsingModelSpec(adjustment="row-skip", within_row="full"),
                100,
                seed=0,
            )
