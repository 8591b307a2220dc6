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
        if self.beta < 1.0:
            raise ShapeError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 <= self.satisfaction <= 1.0:
            raise ShapeError(f"satisfaction must be in [0, 1], got {self.satisfaction}")
        if self.within_row not in WITHIN_ROW_MODES:
            raise ShapeError(f"unknown within-row mode {self.within_row!r}")
        if self.relevance_cap is not None and self.relevance_cap <= 0:
            raise ShapeError("relevance cap must be positive")


def resolve_cap(spec: BrowsingModelSpec, grades: np.ndarray) -> float:
    """Grade ceiling used to normalize relevance into [0, 1]."""
    if spec.relevance_cap is not None:
        return spec.relevance_cap
    top = float(np.max(grades)) if np.size(grades) else 0.0
    return top if top > 0 else 1.0


def continuations(grades: np.ndarray, spec: BrowsingModelSpec) -> np.ndarray:
    """Probabilities of moving past items with the given relevance grades.

    Geometric browsing continues with constant probability alpha; cascade
    scales it down to alpha * (1 - satisfaction * normalized grade), so a
    maximally relevant item is the most likely stopping point.
    """
    grades = np.asarray(grades, dtype=np.float64)
    if spec.base == GEOMETRIC:
        return np.full(grades.shape, spec.alpha)
    cap = resolve_cap(spec, grades)
    capped = np.minimum(grades / cap, 1.0)
    return spec.alpha * (1.0 - spec.satisfaction * capped)


def shape_only(spec: BrowsingModelSpec, rel: RelevanceJudgments | None) -> bool:
    """True when the weights depend on the layout alone, not on grades."""
    return spec.base == GEOMETRIC or rel is None


def _grid_continuations(
    grid: GridLayout, rel: RelevanceJudgments | None, spec: BrowsingModelSpec
) -> np.ndarray:
    if shape_only(spec, rel):
        return np.full(grid.n_displayed, spec.alpha)
    grades = rel.grades(grid.origin.request, grid.items)
    return continuations(grades, spec)


def _base_weights(cont):
    """w[i] = product of continuation over items strictly before rank i."""
    n = cont.shape[0]
    out = np.empty(n)
    if n == 0:
        return out
    out[0] = 1.0
    if n > 1:
        np.cumprod(cont[:-1], out=out[1:])
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _row_skip_weights(cont, row_lengths, gamma, prefix):
    """Row-skipping weights.

    The probability of reaching row r is the chance the user either
    scanned every earlier row to completion or skipped every earlier row;
    the first row is always reached. Within a reached row, ``prefix``
    multiplies in the continuations of the items already passed, while
    full mode charges the whole row's product to every item in it.
    """
    n = cont.shape[0]
    out = np.empty(n)
    scan = 1.0
    skip = 1.0
    pos = 0
    for r in range(row_lengths.shape[0]):
        ln = int(row_lengths[r])
        reach = 1.0 if r == 0 else scan + skip
        row_prod = 1.0
        if prefix:
            w = 1.0
            for j in range(ln):
                out[pos + j] = reach * w
                w *= cont[pos + j]
            row_prod = w
        else:
            for j in range(ln):
                row_prod *= cont[pos + j]
            out[pos : pos + ln] = reach * row_prod
        scan *= (1.0 - gamma) * row_prod
        skip *= gamma
        pos += ln
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _slow_decay_weights(cont, row_lengths, beta):
    """min(beta**row x plain decayed weight, 1) per item.

    Kept as one running product (boost and continuations interleaved in
    reading order) so extreme inputs saturate instead of overflowing: a
    huge boost against a vanishing tail clamps to 1, and a hard-zero
    continuation zeroes everything after it.
    """
    n = cont.shape[0]
    out = np.empty(n)
    v = 1.0
    pos = 0
    for r in range(row_lengths.shape[0]):
        if r > 0:
            v *= beta
        for j in range(row_lengths[r]):
            val = v
            if val > 1.0:
                val = 1.0
            if val < 0.0:
                val = 0.0
            out[pos + j] = val
            v *= cont[pos + j]
            if v != v:  # inf boost times zero continuation: the zero wins
                v = 0.0
        pos += row_lengths[r]
    return out


def position_weights(
    cont: np.ndarray, row_lengths: np.ndarray, spec: BrowsingModelSpec
) -> np.ndarray:
    """Attention weights from the continuations of the displayed items (in
    reading order) and the lengths of the rows they fill."""
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
    """
    return position_weights(_grid_continuations(grid, rel, spec), grid.row_lengths, spec)
