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
from .layout import VERTICAL, RenderPlan
from .metrics import DistanceSpec, awrf, system_exposure


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


def _strongest_group(vec: np.ndarray, names: tuple[str, ...]) -> str:
    """Group carrying the item's largest membership weight; ties go to the
    lexicographically first name."""
    top = vec.max()
    return min(names[j] for j in range(len(names)) if vec[j] == top)


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
    original rank.
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

    items = list(ranking.items)
    n = len(items)
    # rank order stands in for missing scores
    scores = (
        list(ranking.scores)
        if ranking.scores is not None
        else [float(n - i) for i in range(n)]
    )
    grades = rel.grades(ranking.request, items) if rel is not None else np.zeros(n)
    cont = continuations(grades, spec.browsing)
    vectors = table.matrix(items)
    group_idx = [
        schema.index(_strongest_group(vec, schema.names)) for vec in vectors
    ]

    remaining = sorted(range(n), key=lambda i: (-scores[i], i))
    exposure = np.zeros(schema.size)
    order: list[int] = []
    for _ in range(n):
        candidates = remaining if spec.pool is None else remaining[: spec.pool]
        placed = float(exposure.sum())
        shares = exposure / placed if placed > 0 else np.zeros(schema.size)
        best_key = None
        pick = None
        for i in candidates:
            g = group_idx[i]
            deficit = target[g] - shares[g]
            key = (-deficit, schema.names[g])
            if best_key is None or key < best_key:
                best_key, pick = key, i
        remaining.remove(pick)
        order.append(pick)
        # The placed items as a vertical list: one item per row. A weight
        # depends on the items up to its own, so the last is final.
        weights = position_weights(cont[order], np.ones(len(order), dtype=np.intp), spec.browsing)
        exposure = exposure + weights[-1] * vectors[pick]

    reranked = Ranking(
        request=ranking.request,
        sample=ranking.sample,
        items=tuple(items[i] for i in order),
        scores=tuple(scores[i] for i in order) if ranking.scores is not None else None,
    )
    vertical, delta = RenderPlan(VERTICAL, 1), DistanceSpec("l1")
    before, after = (
        awrf(system_exposure([r], vertical, spec.browsing, rel, table), target, delta, schema)
        for r in (ranking, reranked)
    )
    if after > before + 1e-12:
        return ranking
    return reranked
