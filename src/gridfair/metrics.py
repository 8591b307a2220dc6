"""Group-exposure fairness metrics over rendered rankings.

Two complementary scores:

* attention-weighted rank fairness: the distance between the share of
  attention each provider group receives in one layout and a configurable
  population target. Exposure is normalized to a distribution first, so
  scores are comparable across layouts and list lengths.
* expected exposure loss: squared Euclidean distance between the expected
  group exposure of a stochastic ranking policy (estimated as the mean
  over its sampled rankings) and the exposure an ideal relevance-ordered
  policy would deliver. Compared on raw exposure mass, not shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .browse import BrowsingModelSpec, attention
from .core import UNKNOWN_GROUP, AlignmentTable, GroupSchema, Ranking, RelevanceJudgments
from .errors import MetricError, ShapeError
from .layout import GridLayout, RenderPlan, render

ESTIMATOR_MODES = ("uniform", "catalog", "retrieved", "fixed")
DISTANCE_KINDS = ("l1", "l2", "signed-two-group")

#: Sum deviation beyond which a supplied target distribution is rejected.
_TARGET_TOLERANCE = 1e-6

Renderer = Callable[[Ranking], GridLayout]


@dataclass(frozen=True)
class PopulationEstimator:
    """How the ideal distribution of exposure over groups is chosen."""

    mode: str = "catalog"
    fixed: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ESTIMATOR_MODES:
            raise MetricError(f"unknown population estimator {self.mode!r}")
        if (self.fixed is None) and self.mode == "fixed":
            raise MetricError("fixed estimator requires explicit values")


@dataclass(frozen=True)
class DistanceSpec:
    """Distance between exposure shares and the target distribution.

    ``protected`` names the group whose share difference is reported by
    the signed variant; defaults to the first non-unknown group.
    """

    kind: str = "l1"
    protected: str | None = None

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise MetricError(f"unknown distance {self.kind!r}")


def group_exposure(attention_weights: np.ndarray, alignment: np.ndarray) -> np.ndarray:
    """Aggregate per-position attention into per-group exposure.

    ``alignment`` has one row per displayed item (in the same order as the
    attention weights) and one column per group. Hidden items contribute
    nothing by not appearing.
    """
    att = np.asarray(attention_weights, dtype=np.float64)
    mat = np.asarray(alignment, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeError("alignment must be a 2-d matrix")
    if att.shape[0] != mat.shape[0]:
        raise ShapeError(
            f"attention has {att.shape[0]} entries but alignment has "
            f"{mat.shape[0]} rows"
        )
    if att.shape[0] == 0:
        return np.zeros(mat.shape[1])
    return mat.T @ att


def population_estimator(
    estimator: PopulationEstimator,
    table: AlignmentTable,
    docs: Sequence[str] | None = None,
) -> np.ndarray:
    """Materialize the target group distribution.

    ``uniform`` spreads mass evenly over all groups (unknown included);
    ``catalog`` averages membership over the whole table (or an explicit
    document universe when given); ``retrieved`` averages over the given
    document set; ``fixed`` validates and returns the supplied values.
    """
    schema = table.schema
    if estimator.mode == "uniform":
        return np.full(schema.size, 1.0 / schema.size)
    if estimator.mode == "fixed":
        vec = np.asarray(estimator.fixed, dtype=np.float64)
        if vec.shape != (schema.size,):
            raise MetricError(
                f"fixed target has {vec.size} entries, schema has {schema.size} groups"
            )
        if np.any(vec < 0) or not np.all(np.isfinite(vec)):
            raise MetricError("fixed target must be non-negative and finite")
        total = float(vec.sum())
        if abs(total - 1.0) > _TARGET_TOLERANCE:
            raise MetricError(f"fixed target sums to {total}, expected 1")
        return vec / total
    if estimator.mode == "retrieved":
        if docs is None:
            raise MetricError("retrieved estimator requires the retrieved documents")
        universe = sorted(docs)
    else:  # catalog
        universe = sorted(docs) if docs is not None else sorted(table.documents())
    if not universe:
        raise MetricError("population estimator over an empty document set")
    return table.matrix(universe).mean(axis=0)


def drop_unknown(values: np.ndarray, schema: GroupSchema) -> np.ndarray:
    """Remove the unknown-group coordinate (no renormalization)."""
    return np.delete(np.asarray(values, dtype=np.float64), schema.unknown_index)


def awrf(
    exposure: np.ndarray,
    target: np.ndarray,
    delta: DistanceSpec,
    schema: GroupSchema,
    exclude_unknown: bool = False,
) -> float:
    """Distance between normalized group-exposure shares and the target.

    Zero means parity for the l1/l2 variants. The signed variant requires
    exactly two non-unknown groups and reports protected share minus
    target protected share (positive = over-exposed).
    """
    expo = np.asarray(exposure, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if expo.shape != (schema.size,) or tgt.shape != (schema.size,):
        raise ShapeError("exposure and target must have one entry per group")
    names = schema.names
    if exclude_unknown:
        expo = drop_unknown(expo, schema)
        tgt = drop_unknown(tgt, schema)
        names = tuple(n for n in schema.names if n != UNKNOWN_GROUP)
        tgt_total = float(tgt.sum())
        if tgt_total <= 0:
            raise MetricError("target has no mass outside the unknown group")
        tgt = tgt / tgt_total
    total = float(expo.sum())
    if total <= 0:
        raise MetricError("undefined exposure: no group received any attention")
    shares = expo / total
    diff = shares - tgt
    if delta.kind == "l1":
        return float(np.abs(diff).sum())
    if delta.kind == "l2":
        return float(np.sqrt(np.square(diff).sum()))
    non_unknown = [n for n in names if n != UNKNOWN_GROUP]
    if len(non_unknown) != 2:
        raise MetricError(
            f"signed distance needs exactly two non-unknown groups, have {len(non_unknown)}"
        )
    protected = delta.protected if delta.protected is not None else non_unknown[0]
    if protected not in names:
        raise MetricError(f"protected group {protected!r} not in schema")
    return float(diff[names.index(protected)])


def awrf_system(per_request_scores: Sequence[float]) -> float:
    """Mean over per-request scores (callers supply them in a fixed order)."""
    scores = np.asarray(per_request_scores, dtype=np.float64)
    if scores.size == 0:
        raise MetricError("cannot aggregate an empty score set")
    return float(scores.mean())


def _as_renderer(layout: RenderPlan | Renderer) -> Renderer:
    if callable(layout):
        return layout
    return lambda ranking: render(ranking, layout)


def target_exposure(
    request: str,
    docs: Sequence[str],
    rel: RelevanceJudgments,
    layout: RenderPlan | Renderer,
    spec: BrowsingModelSpec,
    table: AlignmentTable,
) -> np.ndarray:
    """Group exposure delivered by an ideal policy over the given documents.

    The documents are ordered best grade first and rendered through the
    same layout as the system output (``layout`` may be a plan or a
    rendering callable). Documents with equal grades share their
    positions' attention equally: each gets the mean weight over its
    tier's slots, hidden slots counting as zero.
    """
    if not docs:
        raise MetricError("target exposure needs at least one document")
    grades = {d: rel.grade(request, d) for d in docs}
    ordered = sorted(docs, key=lambda d: (-grades[d], d))
    ideal = Ranking(request=request, sample=0, items=tuple(ordered))
    grid = _as_renderer(layout)(ideal)
    weights = attention(grid, rel, spec)
    slot_weight = np.zeros(len(ordered))
    for i, doc in enumerate(ordered):
        pos = grid.position(doc)
        if pos is not None:
            slot_weight[i] = weights[pos[2]]
    tiers = grade_tiers(np.array([grades[d] for d in ordered]))
    return table.matrix(ordered).T @ tier_means(slot_weight, tiers)


def grade_tiers(grades: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of each run of equal grades in a best-first order."""
    cuts = np.flatnonzero(grades[1:] != grades[:-1]) + 1
    edges = [0, *cuts.tolist(), len(grades)]
    return list(zip(edges[:-1], edges[1:]))


def tier_means(slot_weight: np.ndarray, tiers: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per-document ideal attention: every document of a grade tier gets
    the mean weight of the tier's slots (hidden slots weigh zero)."""
    per_doc = np.empty(len(slot_weight))
    for start, end in tiers:
        per_doc[start:end] = slot_weight[start:end].mean()
    return per_doc


def system_exposure(
    rankings: Sequence[Ranking],
    layout: RenderPlan | Renderer,
    spec: BrowsingModelSpec,
    rel: RelevanceJudgments | None,
    table: AlignmentTable,
) -> np.ndarray:
    """Expected group exposure of a policy, estimated as the unweighted
    mean over its sampled rankings."""
    if not rankings:
        raise MetricError("system exposure needs at least one sampled ranking")
    to_grid = _as_renderer(layout)
    total = np.zeros(table.schema.size)
    for ranking in rankings:
        grid = to_grid(ranking)
        weights = attention(grid, rel, spec)
        total += group_exposure(weights, table.matrix(grid.items))
    return total / len(rankings)


def eel(system: np.ndarray, target: np.ndarray) -> float:
    """Squared Euclidean distance between system and target exposure."""
    sys_vec = np.asarray(system, dtype=np.float64)
    tgt_vec = np.asarray(target, dtype=np.float64)
    if sys_vec.shape != tgt_vec.shape:
        raise ShapeError(
            f"system and target exposure differ in shape: "
            f"{sys_vec.shape} vs {tgt_vec.shape}"
        )
    diff = sys_vec - tgt_vec
    return float(diff @ diff)
