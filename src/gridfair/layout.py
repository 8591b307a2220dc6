"""Layouts: wrapping rankings into rows and reducing column counts.

A ranking is laid out row-major: item at 0-based rank i goes to row
``i // columns``, column ``i % columns``. Narrowing the display is done
either by truncating every row at the new width (hiding the cut items) or
by re-wrapping the full item order at the new width. A :class:`RenderPlan`
describes one layout; its ``shape`` is the one place that chooses between
wrapping, truncating and re-wrapping, by index arithmetic on ranks alone.
:class:`GridLayout` is one ranking seen through such a shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Ranking
from .errors import ConfigError, LayoutError

VERTICAL = "vertical-linear"
HORIZONTAL = "horizontal-linear"
WRAPPED_GRID = "wrapped-grid"
GEOMETRY_KINDS = (VERTICAL, HORIZONTAL, WRAPPED_GRID)
REDUCTIONS = ("truncate", "rewrap")


def _wrapped(n: int, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranks ``0..n-1`` in rows of ``columns``, and those rows' lengths."""
    full, rest = divmod(n, columns)
    row_lengths = np.full(full + (rest > 0), columns, dtype=np.intp)
    row_lengths[full:] = rest
    return np.arange(n), row_lengths


def _truncated(ranks: np.ndarray, columns: int, new_columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of a grid ``columns`` wide whose column is below
    ``new_columns``, and the lengths of the rows they fill."""
    kept = ranks[np.arange(len(ranks)) % columns < new_columns]
    return kept, _wrapped(len(kept), new_columns)[1]


@dataclass(frozen=True, eq=False)
class GridLayout:
    """A ranking seen through a shape: ``ranks`` are the 0-based ranks of
    ``origin`` on screen, in reading order, and ``row_lengths`` the rows
    they fill. Rows are ``columns`` wide, the last possibly shorter.

    The displayed items plus the ``dropped`` set always equal the origin
    ranking's items.
    """

    columns: int
    origin: Ranking
    ranks: np.ndarray
    row_lengths: np.ndarray

    def __post_init__(self):
        for name in ("ranks", "row_lengths"):
            value = np.array(getattr(self, name), dtype=np.intp)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.columns, self.origin, self.ranks.tolist(), self.row_lengths.tolist())

    def __eq__(self, other):  # by value; like the arrays, not hashable
        return isinstance(other, GridLayout) and self._key() == other._key()

    @cached_property
    def items(self) -> tuple[str, ...]:
        """Displayed items in reading order."""
        items = self.origin.items
        return tuple(items[i] for i in self.ranks.tolist())

    @cached_property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        ends = np.cumsum(self.row_lengths).tolist()
        return tuple(self.items[a:b] for a, b in zip([0, *ends], ends))

    @cached_property
    def dropped(self) -> frozenset[str]:
        """The origin's items that are not on screen."""
        return frozenset(self.origin.items).difference(self.items)

    @property
    def n_displayed(self) -> int:
        return len(self.ranks)

    @property
    def n_rows(self) -> int:
        return len(self.row_lengths)

    @cached_property
    def _positions(self) -> dict[str, tuple[int, int, int]]:
        width = self.columns
        return {doc: (k // width, k % width, k) for k, doc in enumerate(self.items)}

    def position(self, doc: str) -> tuple[int, int, int] | None:
        """0-based (row, column, reading rank) of a displayed item.

        Dropped and unknown documents return None; absence is a value.
        """
        return self._positions.get(doc)


def wrap(ranking: Ranking, columns: int) -> GridLayout:
    """Lay the ranking out row-major at the given width; nothing dropped."""
    if columns < 1:
        raise LayoutError(f"invalid geometry: columns={columns}")
    return GridLayout(columns, ranking, *_wrapped(len(ranking.items), columns))


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
    return GridLayout(new_columns, grid.origin, *_truncated(grid.ranks, grid.columns, new_columns))


def rewrap(grid: GridLayout, new_columns: int) -> GridLayout:
    """Reflow the full original order at the new width.

    Only valid on untruncated grids: once items have been cut, the
    original order can no longer be reconstructed from the display.
    """
    if grid.n_displayed < len(grid.origin.items):
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

    def _width(self, n: int) -> int:
        """Displayed width for an ``n``-item ranking."""
        return max(1, n) if self.geometry == HORIZONTAL else self.columns

    def shape(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Where this plan puts the items of any ``n``-item ranking: the
        0-based ranks it displays, in reading order, and the lengths of the
        rows they fill. A re-wrap is a wrap at the new width."""
        if self.reduction == "truncate":
            return _truncated(np.arange(n), self.base_columns, self.columns)
        return _wrapped(n, self._width(n))

    def render(self, ranking: Ranking) -> GridLayout:
        n = len(ranking.items)
        return GridLayout(self._width(n), ranking, *self.shape(n))


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
