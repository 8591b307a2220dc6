"""Layouts: wrapping rankings into rows and reducing column counts.

A ranking is laid out row-major: item at 0-based rank i goes to row
``i // columns``, column ``i % columns``. Narrowing the display is done
either by truncating every row at the new width (hiding the cut items) or
by re-wrapping the full item order at the new width. A :class:`RenderPlan`
describes one layout; its ``render`` is the one place that chooses between
wrapping, truncating and re-wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Ranking
from .errors import ConfigError, LayoutError

VERTICAL = "vertical-linear"
HORIZONTAL = "horizontal-linear"
WRAPPED_GRID = "wrapped-grid"
GEOMETRY_KINDS = (VERTICAL, HORIZONTAL, WRAPPED_GRID)
REDUCTIONS = ("truncate", "rewrap")


@dataclass(frozen=True)
class GridLayout:
    """A ranking rendered into rows, possibly with truncated items.

    The reading order (row-major, left to right) of displayed items plus
    the ``dropped`` set always equals the origin ranking's items.
    """

    columns: int
    rows: tuple[tuple[str, ...], ...]
    origin: Ranking
    dropped: frozenset[str] = field(default_factory=frozenset)

    @cached_property
    def items(self) -> tuple[str, ...]:
        """Displayed items in reading order."""
        return tuple(doc for row in self.rows for doc in row)

    @property
    def n_displayed(self) -> int:
        return len(self.items)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def row_lengths(self) -> np.ndarray:
        out = np.array([len(row) for row in self.rows], dtype=np.int64)
        out.flags.writeable = False
        return out

    @cached_property
    def _positions(self) -> dict[str, tuple[int, int, int]]:
        table = {}
        rank = 0
        for r, row in enumerate(self.rows):
            for c, doc in enumerate(row):
                table[doc] = (r, c, rank)
                rank += 1
        return table

    def position(self, doc: str) -> tuple[int, int, int] | None:
        """0-based (row, column, reading rank) of a displayed item.

        Dropped and unknown documents return None; absence is a value.
        """
        return self._positions.get(doc)


def wrap(ranking: Ranking, columns: int) -> GridLayout:
    """Lay the ranking out row-major at the given width; nothing dropped."""
    if columns < 1:
        raise LayoutError(f"invalid geometry: columns={columns}")
    items = ranking.items
    rows = tuple(
        tuple(items[i : i + columns]) for i in range(0, len(items), columns)
    )
    return GridLayout(columns=columns, rows=rows, origin=ranking)


def truncate(grid: GridLayout, new_columns: int) -> GridLayout:
    """Cut every row at the new width; cut items become hidden.

    Reading ranks of the retained items are re-indexed densely, so
    browsing models see only what is on screen.
    """
    if new_columns < 1 or new_columns > grid.columns:
        raise LayoutError(
            f"invalid reduction: cannot truncate {grid.columns} columns "
            f"to {new_columns}"
        )
    rows = tuple(row[:new_columns] for row in grid.rows)
    kept = {doc for row in rows for doc in row}
    dropped = frozenset(set(grid.origin.items) - kept) | grid.dropped
    return GridLayout(
        columns=new_columns, rows=rows, origin=grid.origin, dropped=dropped
    )


def rewrap(grid: GridLayout, new_columns: int) -> GridLayout:
    """Reflow the full original order at the new width.

    Only valid on untruncated grids: once items have been cut, the
    original order can no longer be reconstructed from the display.
    """
    if grid.dropped:
        raise LayoutError("invalid reduction: cannot re-wrap a truncated grid")
    return wrap(grid.origin, new_columns)


@dataclass(frozen=True)
class RenderPlan:
    """One way of putting a ranking on screen.

    ``columns`` is the displayed width: 1 for vertical lists, 0 for
    horizontal lists (one row as wide as the list), at least 1 for wrapped
    grids. Reduced plans first wrap at ``base_columns`` and then truncate
    or re-wrap down to ``columns``.
    """

    geometry: str
    columns: int
    reduction: str = "none"
    base_columns: int | None = None

    def __post_init__(self):
        if self.geometry not in GEOMETRY_KINDS:
            raise LayoutError(f"unknown geometry kind {self.geometry!r}")
        if self.geometry == VERTICAL and self.columns != 1:
            raise LayoutError("vertical-linear layout requires columns=1")
        if self.geometry == HORIZONTAL and self.columns != 0:
            raise LayoutError("horizontal-linear layout requires columns=0")
        if self.geometry == WRAPPED_GRID and self.columns < 1:
            raise LayoutError(f"invalid geometry: columns={self.columns}")
        if self.reduction == "none":
            return
        if self.reduction not in REDUCTIONS:
            raise LayoutError(f"unknown reduction {self.reduction!r}")
        if self.geometry != WRAPPED_GRID:
            raise LayoutError(f"a {self.reduction} reduction needs a wrapped grid")
        if self.base_columns is None or self.base_columns < self.columns:
            raise LayoutError(
                f"invalid reduction: cannot {self.reduction} "
                f"{self.base_columns} columns to {self.columns}"
            )

    def render(self, ranking: Ranking) -> GridLayout:
        if self.geometry == VERTICAL:
            return wrap(ranking, 1)
        if self.geometry == HORIZONTAL:
            return wrap(ranking, max(1, len(ranking.items)))
        if self.reduction == "truncate":
            return truncate(wrap(ranking, self.base_columns), self.columns)
        if self.reduction == "rewrap":
            return rewrap(wrap(ranking, self.base_columns), self.columns)
        return wrap(ranking, self.columns)


def render(ranking: Ranking, plan: RenderPlan) -> GridLayout:
    """Put a ranking on screen according to a plan."""
    return plan.render(ranking)


def parse_geometry(token: str) -> RenderPlan:
    """Parse ``vertical-linear``, ``horizontal-linear``, or
    ``wrapped-grid:<columns>``."""
    if token == VERTICAL:
        return RenderPlan(VERTICAL, 1)
    if token == HORIZONTAL:
        return RenderPlan(HORIZONTAL, 0)
    if token.startswith(WRAPPED_GRID):
        rest = token[len(WRAPPED_GRID) :]
        if rest.startswith(":"):
            try:
                columns = int(rest[1:])
            except ValueError:
                raise ConfigError(f"bad grid width in geometry {token!r}")
            return RenderPlan(WRAPPED_GRID, columns)
    raise ConfigError(
        f"unknown geometry {token!r}; expected one of {GEOMETRY_KINDS} "
        f"(wrapped-grid takes a width, e.g. wrapped-grid:5)"
    )
