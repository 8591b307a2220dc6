"""Deficit-greedy re-ranking toward a target group distribution.

Positions are filled left to right. At each position the group whose
cumulative attention share falls furthest below its target share is
selected, then the highest-scored remaining item of that group is placed.
Attention accounting uses the full membership vector of each placed item;
group availability uses each item's strongest group. This is a transparent
heuristic, not an optimal allocator: when the greedy order would score
worse than the input order, the input is returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .browse import BrowsingModelSpec, continuations, position_weights
from .core import AlignmentTable, Ranking
from .errors import MetricError
from .metrics import DistanceSpec, awrf, group_exposure


@dataclass(frozen=True, eq=False)
class RerankSpec:
    """Target distribution plus the linear attention model used to weight
    positions while optimizing. ``pool`` restricts each step's candidates
    to that many top-scored remaining items (None means all)."""

    target: np.ndarray
    browsing: BrowsingModelSpec = field(default_factory=BrowsingModelSpec)
    pool: int | None = None

    def __post_init__(self):
        if self.pool is not None and self.pool < 1:
            raise MetricError(f"re-rank pool must be at least 1, got {self.pool}")


def greedy_rerank(
    ranking: Ranking,
    table: AlignmentTable,
    spec: RerankSpec,
    rel=None,
) -> Ranking:
    """Re-rank one result list toward the target group distribution.

    The output is always a permutation of the input items with their
    scores carried along. Deterministic: ties in group deficit break to
    the lexicographically first group name, ties in score to the earlier
    original rank; a list without scores is taken in its rank order.
    """
    if not ranking.items:
        raise MetricError("cannot re-rank an empty ranking")
    schema = table.schema
    target = np.asarray(spec.target, dtype=np.float64)
    if target.shape != (schema.size,):
        raise MetricError("re-rank target must have one entry per group")
    total = float(target.sum())
    if abs(total - 1.0) > 1e-6:
        raise MetricError(f"re-rank target sums to {total}, expected 1")
    target = target / total

    items = ranking.items
    n = len(items)
    names = schema.names
    grades = rel.grades(ranking.request, items) if rel is not None else np.zeros(n)
    cont = continuations(grades, spec.browsing)
    vectors = table.matrix(items)
    # The placed items as a vertical list: one item per row.
    rows = np.ones(n, dtype=np.intp)
    # Each item's strongest group: its first top-weight column in name order.
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__))
    top = vectors == vectors.max(axis=1, keepdims=True)
    group_idx = by_name[top[:, by_name].argmax(axis=1)].tolist()

    remaining = list(range(n))
    if ranking.scores is not None:
        remaining.sort(key=lambda i: -ranking.scores[i])
    exposure = np.zeros(schema.size)
    order: list[int] = []
    for k in range(1, n + 1):
        candidates = remaining if spec.pool is None else remaining[: spec.pool]
        placed = float(exposure.sum())
        shares = exposure / placed if placed > 0 else np.zeros(schema.size)
        lag = (shares - target).tolist()
        pick = min(candidates, key=lambda i: (lag[group_idx[i]], names[group_idx[i]]))
        remaining.remove(pick)
        order.append(pick)
        # A weight depends on the items up to its own, so the last is final.
        weights = position_weights(cont[order], rows[:k], spec.browsing)
        exposure = exposure + weights[-1] * vectors[pick]

    # Both orders judged as one batch, under the greedy pass's own model.
    both = np.array([np.arange(n), order])
    exposures = group_exposure(position_weights(cont[both], rows, spec.browsing), vectors[both])
    before, after = awrf(exposures, target, DistanceSpec("l1"), schema)
    if after > before + 1e-12:
        return ranking
    return Ranking(
        request=ranking.request,
        sample=ranking.sample,
        items=tuple(items[i] for i in order),
        scores=None if ranking.scores is None else tuple(ranking.scores[i] for i in order),
    )
