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

from .browse import BrowsingModelSpec, ROW_SKIP
from .errors import ShapeError


def _mc_row_skip_counts(cont, row_lengths, gamma, skip_u, cont_u, visits):
    """Accumulate visit counts for one chunk of sampled browsing sessions.

    ``skip_u`` is (trajectories, rows) and ``cont_u`` (trajectories, items),
    both uniform in [0, 1). A row is skipped when its draw falls below
    gamma; an item is continued past when its draw falls below its
    continuation probability. One walk over the rows carries, per
    session, whether every earlier row was scanned in full and whether
    every earlier row was skipped; a row is reached when either holds.
    """
    skipped = skip_u < gamma
    continued = cont_u < cont[None, :]
    t = skip_u.shape[0]
    all_scan = np.ones(t, dtype=bool)
    all_skip = np.ones(t, dtype=bool)
    start = 0
    for r, length in enumerate(row_lengths.tolist()):
        row = continued[:, start : start + length]
        reached = (all_scan | all_skip)[:, None]
        seen = np.empty(row.shape, dtype=bool)
        seen[:, :1] = reached
        np.logical_and.accumulate(row[:, :-1], axis=1, out=seen[:, 1:])
        seen[:, 1:] &= reached
        visits[start : start + length] += seen.sum(axis=0)
        # Scanned in full: the row's last item was seen and continued past.
        all_scan &= seen[:, -1] & row[:, -1] & ~skipped[:, r]
        all_skip &= skipped[:, r]
        start += length


def simulate_row_skip(
    cont: np.ndarray,
    row_lengths: np.ndarray,
    spec: BrowsingModelSpec,
    n_trajectories: int,
    seed: int,
    chunk_size: int = 1 << 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate prefix-mode row-skip weights by simulation.

    Takes what ``position_weights`` takes: the continuations of the
    displayed items in reading order (one ranking, shape ``(n,)``) and the
    lengths of the rows they fill, each at least 1. A grid with judgments
    passes ``continuations(rel.grades(request, grid.items), spec)`` and
    ``grid.row_lengths``.

    Returns (estimated weights, standard errors), one entry per displayed
    item in reading order.
    """
    if spec.adjustment != ROW_SKIP or spec.within_row != "prefix":
        raise ShapeError("simulation covers the prefix-mode row-skip model only")
    if n_trajectories < 1:
        raise ShapeError("need at least one trajectory")
    cont = np.asarray(cont, dtype=np.float64)
    row_lengths = np.asarray(row_lengths, dtype=np.intp)
    n_items = int(row_lengths.sum())
    if np.any(row_lengths < 1) or cont.shape != (n_items,):
        raise ShapeError(
            f"continuations of shape {cont.shape} do not fill rows of "
            f"lengths {row_lengths.tolist()}"
        )
    rng = np.random.default_rng(seed)
    visits = np.zeros(n_items, dtype=np.int64)
    remaining = n_trajectories
    while remaining > 0:
        t = min(chunk_size, remaining)
        skip_u = rng.random((t, len(row_lengths)))
        cont_u = rng.random((t, n_items))
        _mc_row_skip_counts(cont, row_lengths, spec.gamma, skip_u, cont_u, visits)
        remaining -= t
    est = visits / float(n_trajectories)
    stderr = np.sqrt(est * (1.0 - est) / float(n_trajectories))
    return est, stderr
