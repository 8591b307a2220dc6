"""Deficit-greedy re-ranking toward a target group distribution.

Positions are filled left to right. At each position the group whose
cumulative attention share falls furthest below its target share is
selected, then the highest-scored remaining item of that group is placed.
Attention accounting uses the full membership vector of each placed item;
group availability uses each item's strongest group. Ties in deficit break
to the lexicographically first group name, ties in score to the earlier
original rank. This is a transparent heuristic, not an optimal allocator:
when the greedy order would score worse than the input order, the input is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .browse import BrowsingModelSpec, continuations, position_weights
from .core import AlignmentTable, RelevanceJudgments
from .errors import MetricError
from .io import RunFile
from .metrics import DistanceSpec, awrf, group_exposure


@dataclass(frozen=True, eq=False)
class RerankSpec:
    """Target distribution plus the linear attention model used to weight
    positions while optimizing. ``target`` is one distribution for every
    list, or one row per list of the run. ``pool`` restricts each step's
    candidates to that many top-scored remaining items (None means all)."""

    target: np.ndarray
    browsing: BrowsingModelSpec = field(default_factory=BrowsingModelSpec)
    pool: int | None = None

    def __post_init__(self):
        if self.pool is not None and self.pool < 1:
            raise MetricError(f"re-rank pool must be at least 1, got {self.pool}")


def rerank_run(
    run: RunFile, table: AlignmentTable, spec: RerankSpec, rel: RelevanceJudgments | None = None
) -> RunFile:
    """Re-rank every list of a run, its items' scores carried along.

    The lists are placed together, one position at a time, as the rows of
    padded (lists, width) arrays; a row gets the bits its list would get
    alone. A ``nan`` score is an error.
    """
    lengths = np.diff(run.list_offsets)
    if not lengths.all():
        raise MetricError("cannot re-rank an empty ranking")
    list_request = np.repeat(np.arange(len(run.request_names)), np.diff(run.request_offsets))
    nan = np.isnan(run.scores)
    if nan.any():
        i = np.searchsorted(run.list_offsets, nan.argmax(), side="right") - 1
        request, sample = run.request_names[list_request[i]], run.samples[i]
        raise MetricError(f"cannot re-rank request {request!r} sample {sample}: a score is nan")
    schema = table.schema
    n_lists, width = len(lengths), int(lengths.max(initial=0))
    target = np.asarray(spec.target, dtype=np.float64)
    if target.shape not in ((schema.size,), (n_lists, schema.size)):
        raise MetricError("re-rank target must have one entry per group")
    with np.errstate(over="ignore", invalid="ignore"):
        total = target.sum(axis=-1, keepdims=True)
    off = total[~(np.abs(total - 1.0) <= 1e-6)]  # a nan sum included
    if off.size:
        raise MetricError(f"re-rank target sums to {off[0]}, expected 1")
    if not (target >= 0).all():  # a sum near 1 leaves every entry finite
        raise MetricError("re-rank target must be non-negative and finite")
    target = np.broadcast_to(target / total, (n_lists, schema.size))

    # Row i holds list i's items in rank order; padding points at item 0.
    columns = np.arange(width)
    real = columns < lengths[:, None]
    cells = np.where(real, run.list_offsets[:-1, None] + columns, 0)
    request_of = np.repeat(list_request, lengths)
    rel = RelevanceJudgments() if rel is None else rel
    grades = rel.lookup(run.request_names, run.docs, request_of, run.doc_codes)
    # Padding grades 0, which leaves each row's cascade cap as it is.
    cont = continuations(np.where(real, grades[cells], 0.0), spec.browsing)
    members = table.matrix(run.docs)[run.doc_codes]
    vectors = members[cells]
    # Groups by their position in name order; an item's strongest group is
    # its first top-weight one.
    by_name = np.array(sorted(range(schema.size), key=schema.names.__getitem__))
    top = members == members.max(axis=1, keepdims=True)
    strongest = top[:, by_name].argmax(axis=1)[cells]

    # Each row's columns in stable score order, padding last. A list past
    # its own length has nothing pending; what it places is dropped.
    ranked = np.argsort(np.where(real, -run.scores[cells], np.inf), axis=1, kind="stable")
    group = np.take_along_axis(strongest, ranked, axis=1)
    pending = real.copy()
    rows = np.arange(n_lists)
    exposure = np.zeros((n_lists, schema.size))
    order = np.empty((n_lists, width), dtype=np.intp)
    for k in range(width):
        window = pending & (np.cumsum(pending, axis=1) <= (spec.pool or width))
        placed = exposure.sum(axis=1, keepdims=True)
        shares = np.divide(exposure, placed, out=np.zeros_like(exposure), where=placed > 0)
        lag = np.take_along_axis((shares - target)[:, by_name], group, axis=1)
        lag[~window] = np.inf
        # The first slot of the least (lag, group name) among the candidates.
        tied = lag == lag.min(axis=1, keepdims=True)
        slot = np.where(tied, group, schema.size).argmin(axis=1)
        pending[rows, slot] = False
        order[:, k] = pick = ranked[rows, slot]
        # A weight depends on the items up to its own, so the last is final.
        prefix = np.take_along_axis(cont, order[:, : k + 1], axis=1)
        weights = position_weights(prefix, np.ones(k + 1, np.intp), spec.browsing)
        exposure = exposure + weights[:, -1:] * vectors[rows, pick]

    # Both orders judged as one batch, under the greedy pass's own model,
    # the lists grouped by length so each product runs over real cells only.
    both = np.stack((np.broadcast_to(columns, order.shape), order), axis=1)
    keep = np.empty(n_lists, dtype=bool)
    for n in np.unique(lengths).tolist():
        idx = np.flatnonzero(lengths == n)
        at = (idx[:, None, None], both[idx, :, :n])
        weights = position_weights(cont[at], np.ones(n, np.intp), spec.browsing)
        exposures = group_exposure(weights, vectors[at])
        scores = awrf(exposures, target[idx, None], DistanceSpec("l1"), schema)
        keep[idx] = scores[:, 1] > scores[:, 0] + 1e-12
    order[keep] = columns
    placed_items = (run.list_offsets[:-1, None] + order)[real]
    return replace(run, doc_codes=run.doc_codes[placed_items], scores=run.scores[placed_items])
