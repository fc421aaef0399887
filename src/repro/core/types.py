"""Core value types of the CSJ reproduction.

The vocabulary follows Section 3 of the paper:

* a :class:`Community` is a brand page with a set of subscribers, each
  represented as a d-dimensional vector of aggregate per-category
  counters, and its memoised per-dimension :class:`Envelope`;
* a CSJ run produces a :class:`CSJResult` holding the matched one-to-one
  user pairs as two read-only index arrays, the similarity score of
  Eq. (1), the per-event counters of Section 4 and the wall-clock time.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Community",
    "Envelope",
    "community_envelope",
    "EventCounts",
    "MatchedPair",
    "CSJResult",
    "pairs_from_tuples",
]


def _value_eq(self: object, other: object) -> bool:
    """Field-by-field equality of two dataclasses of one type, array
    fields compared by value (a generated ``__eq__`` raises on them)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for item in dataclasses.fields(self):  # type: ignore[arg-type]
        mine, theirs = getattr(self, item.name), getattr(other, item.name)
        if isinstance(mine, np.ndarray):
            if not np.array_equal(mine, theirs):
                return False
        elif mine != theirs:
            return False
    return True


def as_counter_matrix(vectors: object) -> np.ndarray:
    """Coerce ``vectors`` into a validated 2-D int64 counter matrix.

    CSJ vectors store aggregate counters (numbers of likes), so they must
    be non-negative integers.  Accepts any array-like of shape ``(n, d)``.
    """
    matrix = np.asarray(vectors)
    if matrix.ndim != 2:
        raise ValidationError(
            f"user vectors must form a 2-D (n, d) matrix, got ndim={matrix.ndim}"
        )
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValidationError(
            f"user vectors must be non-empty in both axes, got shape={matrix.shape}"
        )
    if not np.issubdtype(matrix.dtype, np.integer):
        rounded = np.rint(matrix)
        if not np.array_equal(rounded, matrix):
            raise ValidationError("counter vectors must hold integers (like counts)")
        matrix = rounded
    matrix = matrix.astype(np.int64, copy=False)
    if (matrix < 0).any():
        raise ValidationError("counter vectors must be non-negative")
    return matrix


@dataclass(frozen=True)
class Community:
    """A brand community: a named set of d-dimensional user profiles.

    Parameters
    ----------
    name:
        Human-readable page name (e.g. ``"Quick Recipes"``).
    vectors:
        Integer matrix of shape ``(n_users, n_dims)``; row ``i`` is the
        aggregate per-category like counters of subscriber ``i``.  The
        community keeps its own read-only int64 copy unless the
        conversion already made a new array, so the caller's array is
        neither aliased nor frozen.
    category:
        The dominant category of the page (one of the 27 VK categories in
        the reproduction datasets).  Informational only.
    page_id:
        The platform page identifier (Table 2 keeps the real VK ids).
    """

    name: str
    vectors: np.ndarray
    category: str = ""
    page_id: int = 0

    def __post_init__(self) -> None:
        matrix = as_counter_matrix(self.vectors)
        if matrix is self.vectors or not matrix.flags.owndata:
            # The caller's array, or a view of memory someone else owns:
            # keep a private copy, so no later write there can reach this
            # community's vectors or its memoised envelope and encodings,
            # and the caller's array stays writeable.
            matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "vectors", matrix)

    @property
    def n_users(self) -> int:
        """Number of subscribers (the community's commercial value)."""
        return int(self.vectors.shape[0])

    @property
    def n_dims(self) -> int:
        """Number of category dimensions ``d``."""
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return self.n_users

    def subset(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "Community":
        """Return a new community restricted to the given user rows."""
        rows = np.asarray(indices, dtype=np.int64)
        return Community(
            name=name if name is not None else f"{self.name}[subset]",
            vectors=self.vectors[rows],
            category=self.category,
            page_id=self.page_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Community(name={self.name!r}, users={self.n_users}, "
            f"dims={self.n_dims}, category={self.category!r})"
        )


#: Instance-level memo attribute of :func:`community_envelope`.
_ENVELOPE_CACHE_ATTR = "_envelope_cache"


@dataclass(frozen=True, eq=False)
class Envelope:
    """Per-dimension value bounds of one community's user vectors;
    envelopes are equal when their bounds are."""

    mins: np.ndarray  # shape (d,), int64
    maxs: np.ndarray  # shape (d,), int64

    __eq__ = _value_eq

    @property
    def n_dims(self) -> int:
        return int(self.mins.shape[0])

    @functools.cached_property
    def largest(self) -> int:
        """The largest counter over every dimension, computed once."""
        return int(self.maxs.max())


def community_envelope(community: Community) -> Envelope:
    """The per-dimension min/max envelope of a community (memoised).

    Envelopes are epsilon-independent and a community's vectors are
    frozen read-only at construction, so the envelope is computed once
    and stashed on the instance — sweeps touching the same community at
    many epsilons (or many engines sharing a catalog) pay the O(n*d)
    scan a single time.  ``dataclasses.replace`` builds fresh instances,
    so a mutated copy never inherits a stale envelope.
    """
    cached = community.__dict__.get(_ENVELOPE_CACHE_ATTR)
    if cached is not None:
        return cached
    vectors = community.vectors
    envelope = Envelope(
        mins=vectors.min(axis=0).astype(np.int64, copy=False),
        maxs=vectors.max(axis=0).astype(np.int64, copy=False),
    )
    # Community is a frozen dataclass; the memo is not a field, so
    # object.__setattr__ is the sanctioned back door.
    object.__setattr__(community, _ENVELOPE_CACHE_ATTR, envelope)
    return envelope


@dataclass
class EventCounts:
    """Counters of the five pairing events of Section 4.

    ``MIN PRUNE`` — the current ``b`` cannot match any further ``a``;
    ``MAX PRUNE`` — the current ``a`` cannot match any further ``b``;
    ``NO OVERLAP`` — part/range overlap failed, the d-dimensional
    comparison is skipped; ``NO MATCH`` — the d-dimensional comparison
    ran and failed; ``MATCH`` — the comparison succeeded.
    """

    min_prune: int = 0
    max_prune: int = 0
    no_overlap: int = 0
    no_match: int = 0
    match: int = 0

    def __add__(self, other: "EventCounts") -> "EventCounts":
        return EventCounts(
            min_prune=self.min_prune + other.min_prune,
            max_prune=self.max_prune + other.max_prune,
            no_overlap=self.no_overlap + other.no_overlap,
            no_match=self.no_match + other.no_match,
            match=self.match + other.match,
        )

    @property
    def comparisons(self) -> int:
        """Number of full d-dimensional epsilon comparisons executed."""
        return self.no_match + self.match

    @property
    def total(self) -> int:
        return (
            self.min_prune
            + self.max_prune
            + self.no_overlap
            + self.no_match
            + self.match
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "min_prune": self.min_prune,
            "max_prune": self.max_prune,
            "no_overlap": self.no_overlap,
            "no_match": self.no_match,
            "match": self.match,
        }


@dataclass(frozen=True)
class MatchedPair:
    """A one-to-one matched pair ``<b, a>`` by user row index."""

    b_index: int
    a_index: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.b_index, self.a_index)


def _read_only_ids(ids: object) -> np.ndarray:
    """``ids`` as a read-only 1-D int64 array: a read-only int64 array
    is kept as given, anything else becomes a read-only copy, so a
    writeable array passed in is neither aliased nor frozen."""
    if (
        isinstance(ids, np.ndarray)
        and ids.dtype == np.int64
        and ids.ndim == 1
        and not ids.flags.writeable
    ):
        return ids
    array = np.array(ids, dtype=np.int64)
    if array.ndim != 1:
        raise ValidationError(f"pair ids must form a 1-D array, got ndim={array.ndim}")
    array.setflags(write=False)
    return array


#: The empty matching's ids, which every empty result shares.
_NO_IDS = _read_only_ids(())


@dataclass(eq=False)
class CSJResult:
    """Outcome of one CSJ join between communities ``B`` and ``A``.

    ``similarity`` is Eq. (1): ``p * |matched| / |B|``.  Matched pair
    ``k`` is ``(pairs_b[k], pairs_a[k])``: two read-only int64 arrays of
    user rows, in the order the method picked them (empty by default;
    any other input is copied into such an array).  ``pairs`` is a
    :class:`MatchedPair` list built from them on first access and
    memoised; :meth:`check_one_to_one` rejects a view edited out of
    step with the arrays.  ``events`` are the pairing events observed
    by the algorithm (the numpy engines only account for NO MATCH /
    MATCH since pruning happens in bulk); ``swapped`` records whether
    the inputs were re-oriented so that ``B`` is the smaller community,
    in which case pair indices refer to the *oriented* inputs.  Results
    are equal when every field is, the arrays compared by value.
    """

    method: str
    exact: bool
    size_b: int
    size_a: int
    epsilon: int
    pairs_b: np.ndarray = field(default_factory=lambda: _NO_IDS)
    pairs_a: np.ndarray = field(default_factory=lambda: _NO_IDS)
    events: EventCounts = field(default_factory=EventCounts)
    elapsed_seconds: float = 0.0
    p: float = 1.0
    engine: str = "python"
    swapped: bool = False
    #: Per-stage wall times recorded when the join ran with
    #: observability enabled; empty (and costless) otherwise.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pairs_b = _read_only_ids(self.pairs_b)
        self.pairs_a = _read_only_ids(self.pairs_a)
        if self.pairs_b.size != self.pairs_a.size:
            raise ValidationError(
                f"pairs_b and pairs_a differ in length: "
                f"{self.pairs_b.size} != {self.pairs_a.size}"
            )

    def __setstate__(self, state: dict[str, object]) -> None:
        # Unpickled and deep-copied arrays come back writeable.
        self.__dict__.update(state)
        self.__post_init__()

    __eq__ = _value_eq

    @functools.cached_property
    def pairs(self) -> list[MatchedPair]:
        """The matched pairs as :class:`MatchedPair` objects, in order."""
        return [MatchedPair(b, a) for b, a in self.pair_tuples()]

    @property
    def n_matched(self) -> int:
        return self.pairs_b.size

    @property
    def similarity(self) -> float:
        """Eq. (1) of the paper as a fraction in ``[0, 1]``."""
        if self.size_b == 0:
            return 0.0
        return self.p * self.n_matched / self.size_b

    @property
    def similarity_percent(self) -> float:
        return 100.0 * self.similarity

    def pair_tuples(self) -> list[tuple[int, int]]:
        return list(zip(self.pairs_b.tolist(), self.pairs_a.tolist()))

    def check_one_to_one(self) -> None:
        """Raise if the memoised ``pairs`` view no longer agrees with the
        arrays, or if any user participates in more than one pair."""
        view = self.__dict__.get("pairs")
        if view is not None and view != [MatchedPair(b, a) for b, a in self.pair_tuples()]:
            raise ValidationError(f"{self.method}: pairs no longer agree with pairs_b/pairs_a")
        for ids in (self.pairs_b, self.pairs_a):
            if np.unique(ids).size != ids.size:
                raise ValidationError(f"{self.method}: matching is not one-to-one")

    def detached(self) -> "CSJResult":
        """A copy over the same read-only arrays with its own ``events``,
        ``stage_seconds`` and ``swapped`` flag and no ``pairs`` view, so
        no edit of one reaches the other."""
        return dataclasses.replace(
            self,
            events=dataclasses.replace(self.events),
            stage_seconds=dict(self.stage_seconds),
        )

    def summary(self) -> str:
        """One-line summary in the style of the paper's result tables."""
        return (
            f"{self.method}: {self.similarity_percent:.2f}% "
            f"({self.elapsed_seconds:.3f} s), |B|={self.size_b}, |A|={self.size_a}, "
            f"matched={self.n_matched}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "method": self.method,
            "exact": self.exact,
            "size_b": self.size_b,
            "size_a": self.size_a,
            "epsilon": self.epsilon,
            "pairs": self.pair_tuples(),
            "events": self.events.as_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "p": self.p,
            "engine": self.engine,
            "swapped": self.swapped,
            "similarity": self.similarity,
            "stage_seconds": dict(self.stage_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CSJResult":
        """Rebuild a result saved by :meth:`to_dict`.

        The redundant ``similarity`` entry, if present, is validated
        against the recomputed Eq. (1) value.
        """
        events = EventCounts(**payload.get("events", {}))  # type: ignore[arg-type]
        pairs_b, pairs_a = pairs_from_tuples(payload.get("pairs", []))  # type: ignore[arg-type]
        result = cls(
            method=str(payload["method"]),
            exact=bool(payload["exact"]),
            size_b=int(payload["size_b"]),  # type: ignore[arg-type]
            size_a=int(payload["size_a"]),  # type: ignore[arg-type]
            epsilon=int(payload["epsilon"]),  # type: ignore[arg-type]
            pairs_b=pairs_b,
            pairs_a=pairs_a,
            events=events,
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),  # type: ignore[arg-type]
            p=float(payload.get("p", 1.0)),  # type: ignore[arg-type]
            engine=str(payload.get("engine", "python")),
            swapped=bool(payload.get("swapped", False)),
            stage_seconds={
                str(stage): float(seconds)  # type: ignore[arg-type]
                for stage, seconds in payload.get("stage_seconds", {}).items()  # type: ignore[union-attr]
            },
        )
        stored = payload.get("similarity")
        if stored is not None and abs(float(stored) - result.similarity) > 1e-9:  # type: ignore[arg-type]
            raise ValidationError(
                "stored similarity disagrees with the recomputed Eq. (1) value"
            )
        return result


def pairs_from_tuples(tuples: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(b, a)`` pairs as read-only ``(pairs_b, pairs_a)`` arrays, in
    order: how a tuple list becomes a :class:`CSJResult`'s matching."""
    ids = np.array(list(tuples), dtype=np.int64)
    if ids.size == 0:
        ids = ids.reshape(0, 2)
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise ValidationError(f"pairs must be (b, a) tuples, got shape {ids.shape}")
    ids = ids.T.copy()
    ids.setflags(write=False)
    return ids[0], ids[1]
