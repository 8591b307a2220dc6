"""Core domain types: rankings, group schemas, alignment tables, judgments.

Everything here is immutable after construction and safe to share across
threads. Group membership is a distribution over named groups; a reserved
"unknown" group catches documents without labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ShapeError

UNKNOWN_GROUP = "unknown"

#: Largest L1 deviation from 1.0 that is silently renormalized away.
NORMALIZE_TOLERANCE = 1e-6


#: Document ids as the API takes them: str, or UTF-8 bytes in a numpy
#: byte-string array.
DocIds = Sequence[str] | np.ndarray


def encode_ids(ids: DocIds) -> np.ndarray:
    """Document ids as one array of UTF-8 byte strings; a byte-string array
    is returned as it is.

    UTF-8 byte order is code point order, so sorting the array sorts the
    ids as Python sorts the strings. A fixed-width byte string drops
    trailing NULs, so an id holding a NUL is rejected.
    """
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "S":
        return ids
    if "\0" in "".join(ids):
        bad = next(doc for doc in ids if "\0" in doc)
        raise ShapeError(f"document id {bad!r} holds a NUL")
    return np.array([doc.encode("utf-8") for doc in ids], dtype=bytes)


def argsort_ids(ids: np.ndarray) -> np.ndarray:
    """Stable argsort of a byte-string array."""
    # Sort the ids as big-endian 8-byte words: NUL padding sorts first, so
    # word order is byte-string order, and integers sort faster.
    words = -(-ids.itemsize // 8)
    keys = ids.astype(f"S{8 * words}").view(">u8").reshape(len(ids), words)
    return np.lexsort(keys.T[::-1]) if words > 1 else np.argsort(keys[:, 0], kind="stable")


def _find_ids(vocabulary: np.ndarray, ids: DocIds) -> np.ndarray:
    """The index of each id in a sorted byte-string array of distinct ids;
    ``len(vocabulary)`` for an id it does not hold."""
    keys = encode_ids(ids)
    size = len(vocabulary)
    if not size:
        return np.zeros(len(keys), dtype=np.intp)
    # Keys wider than the vocabulary are searched for by their prefix (a
    # wider search would copy the vocabulary), then compared whole.
    narrow = keys.astype(vocabulary.dtype) if keys.itemsize > vocabulary.itemsize else keys
    at = np.searchsorted(vocabulary, narrow)
    np.minimum(at, size - 1, out=at)
    return np.where(vocabulary[at] == keys, at, size)


def decode_ids(ids: np.ndarray) -> list[str]:
    """The UTF-8 values of a byte-string array as str."""
    return [doc.decode("utf-8") for doc in ids.tolist()]


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


@dataclass(frozen=True, eq=False)
class AlignmentTable:
    """Total map from document id to its group-membership vector.

    Vectors are rows of one read-only matrix, in the order the documents
    were given, whose last row is the unknown-group unit vector: documents
    that were never labeled map to it, so the table can be applied to any
    ranking. The documents' ids are held sorted, as UTF-8 byte strings in
    one array (``_ids``), next to the matrix row of each (``_rows``, which
    ends with the unknown row, the row of every id not held).
    """

    schema: GroupSchema
    _ids: np.ndarray
    _rows: np.ndarray
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
            for doc in docs:
                _check_vector(doc, weights[doc], schema)
            raw = np.empty((0, schema.size))  # reached by an empty mapping alone
        return cls.from_rows(schema, docs, raw)

    @classmethod
    def from_rows(cls, schema: GroupSchema, docs: DocIds, raw: np.ndarray) -> "AlignmentTable":
        """Table whose document ``docs[i]`` has the membership vector
        ``raw[i]``, with the checks and normalization of :meth:`from_weights`.
        The documents are distinct: str, or a UTF-8 byte-string array."""
        ids = encode_ids(docs)
        total = raw.sum(axis=1)
        invalid = (
            ~np.isfinite(raw).all(axis=1)
            | (raw < 0.0).any(axis=1)
            | (raw > 1.0).any(axis=1)
            | (np.abs(total - 1.0) > NORMALIZE_TOLERANCE)
        )
        for i in np.flatnonzero(invalid).tolist():
            _check_vector(ids[i].decode("utf-8"), raw[i], schema)
        matrix = np.empty((len(ids) + 1, schema.size))
        np.divide(raw, total[:, None], out=matrix[:-1])
        matrix[-1] = schema.unknown_vector()
        matrix.flags.writeable = False
        order = argsort_ids(ids)
        return cls(schema, ids[order], np.append(order, len(ids)), matrix)

    def __eq__(self, other):
        if not isinstance(other, AlignmentTable):
            return NotImplemented
        # The same ids in the same matrix rows are the same documents in
        # the same order.
        return (
            self.schema == other.schema
            and np.array_equal(self._ids, other._ids)
            and np.array_equal(self._rows, other._rows)
            # Bitwise, so NaN and signed zeros compare as they are stored.
            and np.array_equal(self._matrix.view(np.int64), other._matrix.view(np.int64))
        )

    __hash__ = None

    def __contains__(self, doc: str) -> bool:
        if not isinstance(doc, str) or "\0" in doc:
            return False
        return _find_ids(self._ids, [doc])[0] < len(self)

    def __len__(self) -> int:
        return len(self._ids)

    def documents(self) -> tuple[str, ...]:
        """The documents' ids, in the order they were given."""
        return tuple(decode_ids(self._ids[np.argsort(self._rows[:-1])]))

    def ids(self) -> np.ndarray:
        """The documents' UTF-8 ids, sorted, as one byte-string array."""
        return self._ids

    def vector(self, doc: str) -> np.ndarray:
        return self._matrix[self._rows[_find_ids(self._ids, [doc])[0]]]

    def matrix(self, items: DocIds) -> np.ndarray:
        """Membership matrix (one row per item, one column per group);
        ``items`` are str or a UTF-8 byte-string array."""
        return self._matrix[self._rows[_find_ids(self._ids, items)]]


def _check_vector(doc: str, weights: Sequence[float], schema: GroupSchema) -> None:
    """Raise the error a document's membership vector fails on, if any."""
    vec = normalize_weights(weights)
    if vec.size != schema.size:
        raise ShapeError(
            f"alignment vector for {doc!r} has {vec.size} entries, "
            f"schema has {schema.size} groups"
        )


class RelevanceJudgments:
    """Graded relevance per (request, document); absent pairs read as 0.

    Held as columns: the sorted names of the judged requests, the sorted
    ids of the judged documents as UTF-8 byte strings in one array, and
    each judgment as a (request, document) key with its grade, sorted by
    key. A request's judgments are thus one slice, sorted by document, and
    its largest grade is precomputed.
    """

    def __init__(self, grades: Mapping[tuple[str, str], float] | None = None):
        """Judgments from a ``{(request, document): grade}`` mapping."""
        grades = {} if grades is None else grades
        requests = sorted({request for request, _ in grades})
        docs = sorted({doc for _, doc in grades})
        request_code = {name: i for i, name in enumerate(requests)}
        doc_code = {name: i for i, name in enumerate(docs)}
        self._init(
            requests,
            docs,
            np.array([request_code[request] for request, _ in grades], dtype=np.int64),
            np.array([doc_code[doc] for _, doc in grades], dtype=np.int64),
            np.array(list(grades.values()), dtype=np.float64),
        )

    @classmethod
    def from_columns(
        cls,
        requests: Sequence[str],
        docs: DocIds,
        request_codes: np.ndarray,
        doc_codes: np.ndarray,
        grades: np.ndarray,
    ) -> "RelevanceJudgments":
        """Judgments of the distinct pairs ``(requests[request_codes[i]],
        docs[doc_codes[i]])``; both name lists sorted and distinct, the
        documents as str or a UTF-8 byte-string array."""
        self = cls.__new__(cls)
        self._init(requests, docs, request_codes, doc_codes, grades)
        return self

    def _init(self, requests, docs, request_codes, doc_codes, grades):
        docs = encode_ids(docs)
        grades = np.asarray(grades, dtype=np.float64)
        invalid = np.flatnonzero(~np.isfinite(grades) | (grades < 0))
        if invalid.size:
            i = invalid[0]
            key = (requests[request_codes[i]], docs[doc_codes[i]].decode("utf-8"))
            kind = "non-finite" if not np.isfinite(grades[i]) else "negative"
            raise ShapeError(f"{kind} relevance grade for {key}: {float(grades[i])}")
        keys = np.asarray(request_codes, dtype=np.int64) * len(docs) + doc_codes
        order = np.argsort(keys, kind="stable")
        self._requests = tuple(requests)
        self._docs = docs
        self._request_index = dict(zip(self._requests, range(len(self._requests))))
        self._keys = keys[order]
        self._grades = grades[order]
        self._max = np.zeros(len(requests))
        np.maximum.at(self._max, np.asarray(request_codes)[order], self._grades)

    def __eq__(self, other):
        if not isinstance(other, RelevanceJudgments):
            return NotImplemented
        return (
            self._requests == other._requests
            and np.array_equal(self._docs, other._docs)
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._grades, other._grades)
        )

    __hash__ = None

    def __len__(self) -> int:
        return len(self._keys)

    def grade(self, request: str, doc: str) -> float:
        return float(self.grades(request, (doc,))[0])

    def grades(self, request: str, items: DocIds) -> np.ndarray:
        return self.lookup((request,), items, np.zeros(len(items), np.intp), np.arange(len(items)))

    def lookup(
        self,
        requests: Sequence[str],
        docs: DocIds,
        request_codes: np.ndarray,
        doc_codes: np.ndarray,
    ) -> np.ndarray:
        """Grades of the pairs ``(requests[request_codes[i]],
        docs[doc_codes[i]])``; ``docs`` are str or a UTF-8 byte-string
        array. Each name is looked up once, so a batch of pairs over shared
        name lists costs one array search."""
        if not len(self._keys):
            return np.zeros(len(request_codes))
        to_request = np.fromiter(map(self._request_index.get, requests, repeat(-1)), np.int64)
        request_codes = to_request[request_codes]
        doc_codes = _find_ids(self._docs, docs)[doc_codes]
        keys = request_codes * len(self._docs) + doc_codes
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        found = (request_codes >= 0) & (doc_codes < len(self._docs)) & (self._keys[at] == keys)
        return np.where(found, self._grades[at], 0.0)

    def max_grade(self, request: str) -> float:
        """Largest grade judged for the request (0.0 when nothing judged)."""
        q = self._request_index.get(request)
        return 0.0 if q is None else float(self._max[q])
