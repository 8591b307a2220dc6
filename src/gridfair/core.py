"""Core domain types: rankings, group schemas, alignment tables, judgments.

Everything here is immutable after construction and safe to share across
threads. Group membership is a distribution over named groups; a reserved
"unknown" group catches documents without labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ShapeError

UNKNOWN_GROUP = "unknown"

#: Largest L1 deviation from 1.0 that is silently renormalized away.
NORMALIZE_TOLERANCE = 1e-6


def normalize_weights(weights: Sequence[float]) -> np.ndarray:
    """Validate a group-membership vector and renormalize it to sum 1.

    Weights must lie in [0, 1]. Sums within ``NORMALIZE_TOLERANCE`` of 1
    are fixed up by renormalization; larger deviations are rejected as
    malformed input rather than repaired.
    """
    vec = np.asarray(weights, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ShapeError("membership weights must be a non-empty 1-d vector")
    if not np.all(np.isfinite(vec)):
        raise ShapeError("membership weights must be finite")
    if np.any(vec < 0.0) or np.any(vec > 1.0):
        raise ShapeError(f"membership weights must lie in [0, 1], got {vec}")
    total = float(vec.sum())
    if abs(total - 1.0) > NORMALIZE_TOLERANCE:
        raise ShapeError(f"membership weights sum to {total}, expected 1")
    out = vec / total
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GroupSchema:
    """Ordered provider-group names, always containing ``unknown`` once."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ShapeError(f"duplicate group names: {self.names}")
        if self.names.count(UNKNOWN_GROUP) != 1:
            raise ShapeError(f"schema must contain {UNKNOWN_GROUP!r} exactly once")

    @classmethod
    def from_groups(cls, names: Iterable[str]) -> "GroupSchema":
        """Schema over the given names plus ``unknown``, sorted, unknown last."""
        known = sorted(set(names) - {UNKNOWN_GROUP})
        return cls(tuple(known) + (UNKNOWN_GROUP,))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def unknown_index(self) -> int:
        return self.names.index(UNKNOWN_GROUP)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def unknown_vector(self) -> np.ndarray:
        """Unit vector putting all membership mass on the unknown group."""
        vec = np.zeros(self.size)
        vec[self.unknown_index] = 1.0
        vec.flags.writeable = False
        return vec


@dataclass(frozen=True)
class Ranking:
    """One ordered result list for a request.

    ``sample`` identifies which draw from a stochastic policy this list is
    (0 for deterministic systems). The item order in ``items`` is
    authoritative; ``scores``, when present, are informational and need not
    be sorted.
    """

    request: str
    sample: int
    items: tuple[str, ...]
    scores: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.request:
            raise ShapeError("request id must be non-empty")
        if self.sample < 0:
            raise ShapeError("sample index must be non-negative")
        if any(not d for d in self.items):
            raise ShapeError("document ids must be non-empty")
        if len(set(self.items)) != len(self.items):
            raise ShapeError(f"duplicate documents in ranking for {self.request!r}")
        if self.scores is not None and len(self.scores) != len(self.items):
            raise ShapeError("scores must parallel items")

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class AlignmentTable:
    """Total map from document id to its group-membership vector.

    Vectors are rows of one read-only matrix whose last row is the
    unknown-group unit vector: documents that were never labeled map to
    it, so the table can be applied to any ranking.
    """

    schema: GroupSchema
    _rows: Mapping[str, int]
    _matrix: np.ndarray

    @classmethod
    def from_weights(
        cls, schema: GroupSchema, weights: Mapping[str, Sequence[float]]
    ) -> "AlignmentTable":
        """Validate and normalize every vector at once.

        A failing check raises the error :func:`normalize_weights` (or the
        width check) gives for the first offending document in input order.
        """
        docs = list(weights)
        try:
            raw = np.asarray(list(weights.values()), dtype=np.float64)
        except (TypeError, ValueError):  # ragged or non-numeric vectors
            raw = None
        if raw is None or raw.shape != (len(docs), schema.size):
            bad = docs
        else:
            total = raw.sum(axis=1)
            invalid = (
                ~np.isfinite(raw).all(axis=1)
                | (raw < 0.0).any(axis=1)
                | (raw > 1.0).any(axis=1)
                | (np.abs(total - 1.0) > NORMALIZE_TOLERANCE)
            )
            bad = [docs[i] for i in np.flatnonzero(invalid)]
        for doc in bad:
            vec = normalize_weights(weights[doc])
            if vec.size != schema.size:
                raise ShapeError(
                    f"alignment vector for {doc!r} has {vec.size} entries, "
                    f"schema has {schema.size} groups"
                )
        matrix = np.empty((len(docs) + 1, schema.size))
        if docs:
            np.divide(raw, total[:, None], out=matrix[:-1])
        matrix[-1] = schema.unknown_vector()
        matrix.flags.writeable = False
        return cls(schema, {doc: i for i, doc in enumerate(docs)}, matrix)

    def __contains__(self, doc: str) -> bool:
        return doc in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def documents(self) -> tuple[str, ...]:
        return tuple(self._rows)

    def vector(self, doc: str) -> np.ndarray:
        return self._matrix[self._rows.get(doc, -1)]

    def matrix(self, items: Sequence[str]) -> np.ndarray:
        """Membership matrix (one row per item, one column per group)."""
        rows = self._rows
        unknown = len(rows)
        index = np.fromiter(
            (rows.get(doc, unknown) for doc in items), dtype=np.intp, count=len(items)
        )
        return self._matrix[index]


@dataclass(frozen=True)
class RelevanceJudgments:
    """Graded relevance per (request, document); absent pairs read as 0."""

    _grades: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for key, grade in self._grades.items():
            if grade < 0:
                raise ShapeError(f"negative relevance grade for {key}: {grade}")

    def __len__(self) -> int:
        return len(self._grades)

    def grade(self, request: str, doc: str) -> float:
        return self._grades.get((request, doc), 0.0)

    def grades(self, request: str, items: Sequence[str]) -> np.ndarray:
        return np.array([self.grade(request, d) for d in items], dtype=np.float64)

    def max_grade(self, request: str) -> float:
        """Largest grade judged for the request (0.0 when nothing judged)."""
        best = 0.0
        for (req, _), grade in self._grades.items():
            if req == request and grade > best:
                best = grade
        return best
