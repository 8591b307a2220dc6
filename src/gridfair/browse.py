"""User attention models over rendered layouts.

Two base models estimate the probability that a user examines each
displayed position: ``geometric`` (attention decays by a constant
continuation probability per position) and ``cascade`` (the continuation
probability after each item shrinks with that item's relevance, since
satisfied users stop). Two grid adjustments modify the bases:

* ``row-skip``: users may jump over whole rows with probability gamma;
* ``slow-decay``: attention decays more slowly across a row, modeled as a
  per-row boost (beta to the row index) capped at probability 1.

All weights are probabilities: every model clamps to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RelevanceJudgments
from .errors import ShapeError
from .layout import GridLayout

GEOMETRIC = "geometric"
CASCADE = "cascade"
BASES = (GEOMETRIC, CASCADE)

ADJUST_NONE = "none"
ROW_SKIP = "row-skip"
SLOW_DECAY = "slow-decay"
ADJUSTMENTS = (ADJUST_NONE, ROW_SKIP, SLOW_DECAY)

WITHIN_ROW_MODES = ("prefix", "full")


@dataclass(frozen=True)
class BrowsingModelSpec:
    """Parameters of one attention model.

    ``satisfaction`` scales how strongly relevance cuts the cascade
    continuation probability (0 disables relevance entirely).
    ``relevance_cap`` normalizes grades into [0, 1]; when None, the
    largest grade present in the inputs at hand is used.
    ``within_row`` controls row-skip attention inside a reached row:
    ``prefix`` decays item by item, ``full`` charges the whole row's
    continuation product uniformly.
    """

    base: str = GEOMETRIC
    adjustment: str = ADJUST_NONE
    alpha: float = 0.5
    gamma: float = 0.5
    beta: float = 1.9
    satisfaction: float = 0.5
    within_row: str = "prefix"
    relevance_cap: float | None = None

    def __post_init__(self):
        if self.base not in BASES:
            raise ShapeError(f"unknown base model {self.base!r}")
        if self.adjustment not in ADJUSTMENTS:
            raise ShapeError(f"unknown adjustment {self.adjustment!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ShapeError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ShapeError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ShapeError(f"beta must be finite and >= 1, got {self.beta}")
        if not 0.0 <= self.satisfaction <= 1.0:
            raise ShapeError(f"satisfaction must be in [0, 1], got {self.satisfaction}")
        if self.within_row not in WITHIN_ROW_MODES:
            raise ShapeError(f"unknown within-row mode {self.within_row!r}")
        cap = self.relevance_cap
        if cap is not None and not (math.isfinite(cap) and cap > 0):
            raise ShapeError(f"relevance cap must be finite and positive, got {cap}")


def continuations(grades: np.ndarray, spec: BrowsingModelSpec) -> np.ndarray:
    """Probabilities of moving past items with the given relevance grades.

    Geometric browsing continues with constant probability alpha; cascade
    scales it down to alpha * (1 - satisfaction * normalized grade), so a
    maximally relevant item is the most likely stopping point. ``grades``
    has shape ``(..., n)``: one ranking per row, each normalized by the
    spec's relevance cap or else by its own largest grade.
    """
    grades = np.asarray(grades, dtype=np.float64)
    if spec.base == GEOMETRIC:
        return np.full(grades.shape, spec.alpha)
    cap = spec.relevance_cap
    if cap is None:
        top = grades.max(axis=-1, keepdims=True, initial=0.0)
        cap = np.where(top > 0, top, 1.0)
    capped = np.minimum(grades / cap, 1.0)
    return spec.alpha * (1.0 - spec.satisfaction * capped)


# The kernels below take continuations of shape (..., n): one ranking per
# row, all rows sharing the row lengths. Every product runs along the last
# axis in reading order, so a row gets the same bits alone or in a batch.


def _base_weights(cont):
    """w[i] = product of continuation over items strictly before rank i."""
    out = np.empty(cont.shape)
    out[..., :1] = 1.0
    np.cumprod(cont[..., :-1], axis=-1, out=out[..., 1:])
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _row_skip_weights(cont, row_lengths, gamma, prefix):
    """Row-skipping weights.

    The probability of reaching row r is the chance the user either
    scanned every earlier row to completion or skipped every earlier row;
    the first row is always reached. Within a reached row, ``prefix``
    multiplies in the continuations of the items already passed, while
    full mode charges the whole row's product to every item in it.

    Rows are padded to the widest with continuations of 1.0, which leave
    every product unchanged, so one cumulative product per row gives the
    within-row prefixes and one per ranking the scan and skip chances.
    """
    rows = len(row_lengths)
    if not rows:
        return np.empty(cont.shape)
    width = int(np.max(row_lengths))
    row_of = np.repeat(np.arange(rows), row_lengths)
    cell = row_of * width + np.arange(cont.shape[-1]) - np.repeat(
        np.cumsum(row_lengths) - row_lengths, row_lengths
    )
    grid = np.ones((*cont.shape[:-1], rows * width))
    grid[..., cell] = cont
    grid = grid.reshape(*cont.shape[:-1], rows, width)
    prods = np.cumprod(grid, axis=-1)
    row_prod = prods[..., -1]
    # Chance of reaching row r + 1 by scanning, and by skipping, rows 0..r.
    scan = np.cumprod((1.0 - gamma) * row_prod, axis=-1)
    skip = np.cumprod(np.full(rows, gamma))
    reach = np.ones(row_prod.shape)
    reach[..., 1:] = scan[..., :-1] + skip[:-1]
    if prefix:
        before = np.ones(grid.shape)
        before[..., 1:] = prods[..., :-1]
        weights = (reach[..., None] * before).reshape(*cont.shape[:-1], rows * width)
        out = np.take(weights, cell, axis=-1)
    else:
        out = np.take(reach * row_prod, row_of, axis=-1)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _slow_decay_weights(cont, row_lengths, beta):
    """min(beta**row x plain decayed weight, 1) per item.

    One running product over the reading order, the boost multiplied in
    at the head of every row after the first, so extreme inputs saturate
    instead of overflowing: a huge boost against a vanishing tail clamps
    to 1, and a hard-zero continuation zeroes everything after it (the
    NaN of an infinite boost times zero reads as 0).
    """
    heads = np.cumsum(row_lengths) - row_lengths
    boosts = np.full(len(heads), beta)
    boosts[:1] = 1.0
    factors = np.insert(cont, heads, boosts, axis=-1)
    # Item i's weight is the product just before its own continuation: its
    # index plus the boosts of the rows up to and including its own, minus 1.
    before = np.arange(cont.shape[-1]) + np.repeat(np.arange(len(heads)), row_lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.cumprod(factors, axis=-1)
    out = np.take(running, before, axis=-1)
    np.fmax(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    return out


def position_weights(
    cont: np.ndarray, row_lengths: np.ndarray, spec: BrowsingModelSpec
) -> np.ndarray:
    """Attention weights from the continuations of the displayed items (in
    reading order, shape ``(..., n)``: one ranking per row) and the lengths
    of the rows they fill, which all rankings of the batch share."""
    cont = np.asarray(cont, dtype=np.float64)
    if spec.adjustment == ROW_SKIP:
        return _row_skip_weights(cont, row_lengths, spec.gamma, spec.within_row == "prefix")
    if spec.adjustment == SLOW_DECAY:
        return _slow_decay_weights(cont, row_lengths, spec.beta)
    return _base_weights(cont)


def attention(
    grid: GridLayout, rel: RelevanceJudgments | None, spec: BrowsingModelSpec
) -> np.ndarray:
    """Attention weights of the displayed items, in reading order.

    Unadjusted, each weight is the product of the continuations of
    everything read before it (geometric reduces to alpha**rank); row-skip
    with gamma=0 in prefix mode and slow-decay with beta=1 recover it.
    Without judgments every grade is 0.
    """
    if rel is None:
        grades = np.zeros(grid.n_displayed)
    else:
        grades = rel.grades(grid.origin.request, grid.items)
    return position_weights(continuations(grades, spec), grid.row_lengths, spec)
