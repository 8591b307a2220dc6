"""Monte Carlo check of the row-skipping attention model.

Samples browsing sessions directly from the model's event semantics: each
row gets an independent skip decision (probability gamma) and each item an
independent continue-past decision (its continuation probability). An item
is visited when all rows above it were scanned in full or all were
skipped, and every item to its left in its own row was continued past.

The estimator is reproducible: uniforms are pre-drawn in chunks from a
seeded generator, so a seed fixes the estimate.
"""

from __future__ import annotations

import numpy as np

from .browse import BrowsingModelSpec, ROW_SKIP, _grid_continuations
from .core import RelevanceJudgments
from .errors import ShapeError
from .layout import GridLayout


def _mc_row_skip_counts(cont, row_lengths, gamma, skip_u, cont_u, visits):
    """Accumulate visit counts for one chunk of sampled browsing sessions.

    ``skip_u`` is (trajectories, rows) and ``cont_u`` (trajectories, items),
    both uniform in [0, 1). A row is skipped when its draw falls below
    gamma; an item is continued past when its draw falls below its
    continuation probability. An item is visited when all earlier rows
    were scanned fully or all were skipped, and every item before it in
    its own row was continued past.
    """
    nrows = row_lengths.shape[0]
    skipped = skip_u < gamma
    continued = cont_u < cont[None, :]

    starts = np.zeros(nrows, dtype=np.int64)
    np.cumsum(row_lengths[:-1], out=starts[1:])

    t = skip_u.shape[0]
    row_full = np.empty((t, nrows), dtype=bool)
    for r in range(nrows):
        s, ln = starts[r], int(row_lengths[r])
        row_full[:, r] = continued[:, s : s + ln].all(axis=1)
    scanned_fully = ~skipped & row_full

    all_scan = np.ones((t, nrows), dtype=bool)
    all_skip = np.ones((t, nrows), dtype=bool)
    if nrows > 1:
        np.logical_and.accumulate(scanned_fully[:, :-1], axis=1, out=all_scan[:, 1:])
        np.logical_and.accumulate(skipped[:, :-1], axis=1, out=all_skip[:, 1:])
    reached = all_scan | all_skip

    for r in range(nrows):
        s, ln = starts[r], int(row_lengths[r])
        seen = np.empty((t, ln), dtype=bool)
        seen[:, 0] = True
        if ln > 1:
            np.logical_and.accumulate(continued[:, s : s + ln - 1], axis=1, out=seen[:, 1:])
        seen &= reached[:, r : r + 1]
        visits[s : s + ln] += seen.sum(axis=0)


def simulate_row_skip(
    grid: GridLayout,
    rel: RelevanceJudgments | None,
    spec: BrowsingModelSpec,
    n_trajectories: int,
    seed: int,
    chunk_size: int = 1 << 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate prefix-mode row-skip weights by simulation.

    Returns (estimated weights, standard errors), one entry per displayed
    item in reading order.
    """
    if spec.adjustment != ROW_SKIP or spec.within_row != "prefix":
        raise ShapeError("simulation covers the prefix-mode row-skip model only")
    if n_trajectories < 1:
        raise ShapeError("need at least one trajectory")
    cont = _grid_continuations(grid, rel, spec)
    lens = grid.row_lengths
    n_items = grid.n_displayed
    rng = np.random.default_rng(seed)
    visits = np.zeros(n_items, dtype=np.int64)
    remaining = n_trajectories
    while remaining > 0:
        t = min(chunk_size, remaining)
        skip_u = rng.random((t, grid.n_rows))
        cont_u = rng.random((t, n_items))
        _mc_row_skip_counts(cont, lens, spec.gamma, skip_u, cont_u, visits)
        remaining -= t
    est = visits / float(n_trajectories)
    stderr = np.sqrt(est * (1.0 - est) / float(n_trajectories))
    return est, stderr
