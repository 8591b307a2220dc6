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
from .core import (
    UNKNOWN_GROUP,
    AlignmentTable,
    DocIds,
    GroupSchema,
    Ranking,
    RelevanceJudgments,
    encode_ids,
)
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
    nothing by not appearing. Both may carry leading batch axes, weights
    ``(..., n)`` against alignments ``(..., n, groups)``; each ranking's
    exposure is then computed exactly as it would be alone.
    """
    # C order fixes the summation order of the product, whatever the layout
    # of the caller's arrays.
    att = np.ascontiguousarray(attention_weights, dtype=np.float64)
    mat = np.ascontiguousarray(alignment, dtype=np.float64)
    if mat.ndim < 2:
        raise ShapeError("alignment must be a 2-d matrix")
    if att.shape[-1:] != mat.shape[-2:-1]:
        raise ShapeError(
            f"attention has {att.shape[-1]} entries but alignment has "
            f"{mat.shape[-2]} rows"
        )
    return np.matmul(np.swapaxes(mat, -1, -2), att[..., None])[..., 0]


def population_estimator(
    estimator: PopulationEstimator,
    table: AlignmentTable,
    docs: DocIds | None = None,
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
    if estimator.mode == "retrieved" and docs is None:
        raise MetricError("retrieved estimator requires the retrieved documents")
    # catalog, or retrieved: rows averaged in sorted order (UTF-8 byte order
    # is code point order)
    universe = table.ids() if docs is None else np.sort(encode_ids(docs))
    if not len(universe):
        raise MetricError("population estimator over an empty document set")
    return table.matrix(universe).mean(axis=0)


def drop_unknown(values: np.ndarray, schema: GroupSchema) -> np.ndarray:
    """Remove the unknown-group coordinate (no renormalization)."""
    return np.delete(np.asarray(values, dtype=np.float64), schema.unknown_index, axis=-1)


def awrf(
    exposure: np.ndarray,
    target: np.ndarray,
    delta: DistanceSpec,
    schema: GroupSchema,
    exclude_unknown: bool = False,
) -> float | np.ndarray:
    """Distance between normalized group-exposure shares and the target.

    Zero means parity for the l1/l2 variants. The signed variant requires
    exactly two non-unknown groups and reports protected share minus
    target protected share (positive = over-exposed).

    ``exposure`` may be a batch ``(..., groups)`` scored against one
    target or a matching batch of targets; it gives an array of scores,
    each equal to its row scored alone. A batch fails with the error its
    first failing row would raise.
    """
    expo = np.asarray(exposure, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if expo.shape[-1:] != (schema.size,) or tgt.shape[-1:] != (schema.size,):
        raise ShapeError("exposure and target must have one entry per group")
    names = schema.names
    if exclude_unknown:
        expo = drop_unknown(expo, schema)
        tgt = drop_unknown(tgt, schema)
        names = tuple(n for n in schema.names if n != UNKNOWN_GROUP)
        tgt_total = tgt.sum(axis=-1, keepdims=True)
        if np.any(tgt_total <= 0):
            raise MetricError("target has no mass outside the unknown group")
        tgt = tgt / tgt_total
    total = expo.sum(axis=-1, keepdims=True)
    empty = total <= 0
    # Each row checks its exposure before the distance, so the distance's
    # own errors only come first when the first row has exposure.
    if delta.kind == "signed-two-group" and not empty.flat[:1].any():
        protected = _protected_index(delta, names)
    if empty.any():
        raise MetricError("undefined exposure: no group received any attention")
    diff = expo / total - tgt
    if delta.kind == "l1":
        scores = np.abs(diff).sum(axis=-1)
    elif delta.kind == "l2":
        scores = np.sqrt(np.square(diff).sum(axis=-1))
    else:
        scores = diff[..., protected]
    return float(scores) if scores.ndim == 0 else scores


def _protected_index(delta: DistanceSpec, names: tuple[str, ...]) -> int:
    """Column of the protected group for the signed distance."""
    non_unknown = [n for n in names if n != UNKNOWN_GROUP]
    if len(non_unknown) != 2:
        raise MetricError(
            f"signed distance needs exactly two non-unknown groups, have {len(non_unknown)}"
        )
    protected = delta.protected if delta.protected is not None else non_unknown[0]
    if protected not in names:
        raise MetricError(f"protected group {protected!r} not in schema")
    return names.index(protected)


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
    grades = dict(zip(docs, rel.grades(request, docs).tolist()))
    ordered = sorted(docs, key=lambda d: (-grades[d], d))
    ideal = Ranking(request=request, sample=0, items=tuple(ordered))
    grid = _as_renderer(layout)(ideal)
    weights = attention(grid, rel, spec)
    slot_weight = np.zeros(len(ordered))
    slot_weight[grid.ranks] = weights
    tiers = grade_tiers(np.array([grades[d] for d in ordered]))
    return table.matrix(ordered).T @ tier_means(slot_weight, tiers)


def grade_tiers(grades: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of each run of equal grades in a best-first order."""
    cuts = np.flatnonzero(grades[1:] != grades[:-1]) + 1
    edges = [0, *cuts.tolist(), len(grades)]
    return list(zip(edges[:-1], edges[1:]))


def tier_means(slot_weight: np.ndarray, tiers: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per-document ideal attention: every document of a grade tier gets
    the mean weight of the tier's slots (hidden slots weigh zero). Slot
    weights may be a batch ``(..., n)`` over one tiering."""
    per_doc = np.empty(np.shape(slot_weight))
    for start, end in tiers:
        per_doc[..., start:end] = slot_weight[..., start:end].mean(axis=-1, keepdims=True)
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


def eel(system: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """Squared Euclidean distance between system and target exposure; for
    batches ``(..., groups)``, one distance per row."""
    sys_vec = np.asarray(system, dtype=np.float64)
    tgt_vec = np.asarray(target, dtype=np.float64)
    if sys_vec.shape != tgt_vec.shape:
        raise ShapeError(
            f"system and target exposure differ in shape: "
            f"{sys_vec.shape} vs {tgt_vec.shape}"
        )
    diff = sys_vec - tgt_vec
    distance = np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]
    return float(distance) if distance.ndim == 0 else distance
