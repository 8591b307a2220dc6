import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfair import ConfigError, LayoutError, RenderPlan, render, rewrap, truncate, wrap
from gridfair.layout import HORIZONTAL, VERTICAL, REDUCTIONS, WRAPPED_GRID, parse_geometry

from util import make_ranking, prefix_rows, sliced_layout


def rows_of(grid):
    return [list(row) for row in grid.rows]


class TestWrap:
    def test_exact_fill(self):
        grid = wrap(make_ranking(6), 3)
        assert rows_of(grid) == [["d0", "d1", "d2"], ["d3", "d4", "d5"]]
        assert not grid.dropped

    def test_ragged_last_row(self):
        grid = wrap(make_ranking(5), 2)
        assert rows_of(grid) == [["d0", "d1"], ["d2", "d3"], ["d4"]]

    def test_single_column_is_vertical(self):
        grid = wrap(make_ranking(3), 1)
        assert rows_of(grid) == [["d0"], ["d1"], ["d2"]]

    def test_zero_columns_rejected(self):
        with pytest.raises(LayoutError):
            wrap(make_ranking(3), 0)

    def test_reading_order_matches_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            c = int(rng.integers(1, 12))
            ranking = make_ranking(n)
            assert wrap(ranking, c).items == ranking.items


class TestTruncate:
    def test_column_slice(self):
        grid = truncate(wrap(make_ranking(6), 3), 2)
        assert rows_of(grid) == [["d0", "d1"], ["d3", "d4"]]
        assert grid.dropped == {"d2", "d5"}

    def test_same_width_is_identity(self):
        base = wrap(make_ranking(6), 3)
        same = truncate(base, 3)
        assert rows_of(same) == rows_of(base)
        assert not same.dropped

    def test_ragged_grid_slice(self):
        grid = truncate(wrap(make_ranking(5), 3), 2)
        assert rows_of(grid) == [["d0", "d1"], ["d3", "d4"]]
        assert grid.dropped == {"d2"}

    def test_wider_than_base_rejected(self):
        with pytest.raises(LayoutError):
            truncate(wrap(make_ranking(6), 3), 4)

    def test_ranks_reindexed_densely(self):
        grid = truncate(wrap(make_ranking(6), 3), 2)
        assert grid.position("d3") == (1, 0, 2)
        assert grid.position("d4") == (1, 1, 3)

    def test_retention_count(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            c = int(rng.integers(1, 12))
            new_c = int(rng.integers(1, c + 1))
            base = wrap(make_ranking(n), c)
            cut = truncate(base, new_c)
            expected = sum(min(len(row), new_c) for row in base.rows)
            assert cut.n_displayed == expected
            assert len(cut.dropped) == n - expected

    def test_retained_order_preserved(self):
        base = wrap(make_ranking(11), 4)
        cut = truncate(base, 2)
        kept = [d for d in base.origin.items if d not in cut.dropped]
        assert list(cut.items) == kept


class TestRewrap:
    def test_reflow(self):
        grid = rewrap(wrap(make_ranking(6), 3), 2)
        assert rows_of(grid) == [["d0", "d1"], ["d2", "d3"], ["d4", "d5"]]

    def test_same_width_identity(self):
        base = wrap(make_ranking(6), 3)
        assert rows_of(rewrap(base, 3)) == rows_of(base)

    def test_equals_direct_wrap(self):
        ranking = make_ranking(37)
        assert rows_of(rewrap(wrap(ranking, 10), 4)) == rows_of(wrap(ranking, 4))

    def test_truncated_grid_rejected(self):
        cut = truncate(wrap(make_ranking(6), 3), 2)
        with pytest.raises(LayoutError):
            rewrap(cut, 2)

    def test_widening_allowed(self):
        ranking = make_ranking(9)
        assert rows_of(rewrap(wrap(ranking, 2), 5)) == rows_of(wrap(ranking, 5))


class TestPosition:
    def test_square_grid(self):
        grid = wrap(make_ranking(4), 2)
        assert grid.position("d3") == (1, 1, 3)

    def test_dropped_item_absent(self):
        cut = truncate(wrap(make_ranking(6), 3), 2)
        assert cut.position("d2") is None

    def test_unknown_item_absent(self):
        assert wrap(make_ranking(4), 2).position("nope") is None

    def test_ragged_row(self):
        grid = wrap(make_ranking(5), 2)
        assert grid.position("d4") == (2, 0, 4)


class TestValue:
    def test_grids_compare_by_value_and_do_not_hash(self):
        ranking = make_ranking(6)
        grid = wrap(ranking, 3)
        assert grid == wrap(make_ranking(6), 3)
        assert grid != wrap(ranking, 2)
        assert grid != truncate(grid, 2)
        assert grid != "not a grid"
        with pytest.raises(TypeError):
            hash(grid)

    def test_shape_arrays_are_read_only(self):
        grid = truncate(wrap(make_ranking(7), 3), 2)
        for array in (grid.ranks, grid.row_lengths):
            with pytest.raises(ValueError):
                array[0] = 5


class TestGeometry:
    def test_vertical_forces_one_column(self):
        with pytest.raises(LayoutError):
            RenderPlan(VERTICAL, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LayoutError):
            RenderPlan("diagonal", 1)

    def test_render_vertical(self):
        grid = render(make_ranking(3), RenderPlan(VERTICAL, 1))
        assert grid.columns == 1
        assert grid.n_rows == 3

    def test_render_horizontal_single_row(self):
        grid = render(make_ranking(7), RenderPlan(HORIZONTAL, 0))
        assert grid.n_rows == 1
        assert grid.row_lengths.tolist() == [7]

    def test_render_grid(self):
        grid = render(make_ranking(7), RenderPlan(WRAPPED_GRID, 3))
        assert grid.columns == 3
        assert grid.row_lengths.tolist() == [3, 3, 1]

    def test_horizontal_needs_zero_columns(self):
        with pytest.raises(LayoutError):
            RenderPlan(HORIZONTAL, 1)

    @pytest.mark.parametrize("columns", [0, -2])
    def test_grid_needs_a_column(self, columns):
        with pytest.raises(LayoutError):
            RenderPlan(WRAPPED_GRID, columns)

    def test_unknown_reduction_rejected(self):
        with pytest.raises(LayoutError):
            RenderPlan(WRAPPED_GRID, 3, "squeeze", 5)

    @pytest.mark.parametrize("geometry, columns", [(VERTICAL, 1), (HORIZONTAL, 0)])
    def test_reduction_needs_a_grid(self, geometry, columns):
        with pytest.raises(LayoutError):
            RenderPlan(geometry, columns, "truncate", 5)

    @pytest.mark.parametrize("base_columns", [None, 2])
    def test_reduction_needs_a_wider_base(self, base_columns):
        with pytest.raises(LayoutError):
            RenderPlan(WRAPPED_GRID, 3, "rewrap", base_columns)

    def test_render_reductions(self):
        ranking = make_ranking(6)
        cut = render(ranking, RenderPlan(WRAPPED_GRID, 2, "truncate", 3))
        assert rows_of(cut) == rows_of(truncate(wrap(ranking, 3), 2))
        reflowed = render(ranking, RenderPlan(WRAPPED_GRID, 2, "rewrap", 3))
        assert rows_of(reflowed) == rows_of(wrap(ranking, 2))

    def test_parse_geometry_gives_plans(self):
        assert parse_geometry("vertical-linear") == RenderPlan(VERTICAL, 1)
        assert parse_geometry("horizontal-linear") == RenderPlan(HORIZONTAL, 0)
        assert parse_geometry("wrapped-grid:4") == RenderPlan(WRAPPED_GRID, 4)
        with pytest.raises(LayoutError):
            parse_geometry("wrapped-grid:0")
        for bad in ("wrapped-grid", "wrapped-grid:x", "spiral"):
            with pytest.raises(ConfigError):
                parse_geometry(bad)


SHAPE_PLANS = [
    RenderPlan(VERTICAL, 1),
    RenderPlan(HORIZONTAL, 0),
    *[RenderPlan(WRAPPED_GRID, c) for c in (1, 3, 5)],
    *[RenderPlan(WRAPPED_GRID, c, red, 5) for red in REDUCTIONS for c in (1, 3, 5)],
]


@pytest.mark.parametrize(
    "plan", SHAPE_PLANS, ids=lambda p: f"{p.geometry}:{p.columns}:{p.reduction}"
)
def test_a_shorter_lists_shape_is_a_prefix_of_a_longer_lists(plan):
    """The sweep computes one shape per plan, for its longest list, and
    reads a list of length L off its first k displayed ranks: those below
    L. That holds because every plan lays items out by rank, row-major,
    and truncation keeps a column prefix of every row."""
    shapes = [plan.shape(length) for length in range(24)]
    for width, (displayed, row_lengths) in enumerate(shapes):
        for length in range(width + 1):
            shown, rows = shapes[length]
            k = int(np.searchsorted(displayed, length))
            assert np.array_equal(shown, displayed[:k])
            assert np.array_equal(rows, prefix_rows(row_lengths, k))


@st.composite
def plans(draw):
    """Any plan: a list, a wrapped grid, or a grid reduced from a base at
    least as wide."""
    kind = draw(st.sampled_from([VERTICAL, HORIZONTAL, WRAPPED_GRID, *REDUCTIONS]))
    if kind == VERTICAL:
        return RenderPlan(VERTICAL, 1)
    if kind == HORIZONTAL:
        return RenderPlan(HORIZONTAL, 0)
    base = draw(st.integers(1, 12))
    if kind == WRAPPED_GRID:
        return RenderPlan(WRAPPED_GRID, base)
    return RenderPlan(WRAPPED_GRID, draw(st.integers(1, base)), kind, base)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 40), plan=plans())
def test_render_and_shape_match_slicing_the_ids(n, plan):
    ranking = make_ranking(n)
    grid = plan.render(ranking)
    columns, rows = sliced_layout(ranking.items, plan)
    shown = [doc for row in rows for doc in row]
    assert grid.rows == tuple(rows)
    assert grid.items == tuple(shown)
    assert grid.dropped == set(ranking.items) - set(shown)
    assert grid.row_lengths.tolist() == [len(row) for row in rows]
    assert grid.columns == columns
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    expected = {doc: (*cell, k) for k, (doc, cell) in enumerate(zip(shown, cells))}
    for doc in (*ranking.items, "nope"):
        assert grid.position(doc) == expected.get(doc)
    ranks, row_lengths = plan.shape(n)
    assert np.array_equal(ranks, grid.ranks)
    assert np.array_equal(row_lengths, grid.row_lengths)
