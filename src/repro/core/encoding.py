"""The MinMax encoding scheme (Section 4, Figure 1).

A d-dimensional counter vector is segmented into ``n_parts`` contiguous
parts (the paper fixes 4 parts as the best time/space trade-off; fewer
parts prune less, more parts cost more memory).  For each user the scheme
derives:

* ``parts`` — the per-part counter sums (e.g. ``5, 13, 9, 19`` in
  Figure 1);
* ``encoded_ID`` — the total counter sum (``46`` in Figure 1);
* per-part ranges — each dimension value ``v`` can only match values in
  ``[max(0, v - eps), v + eps]``, so the part range is the sum of those
  per-dimension intervals (``[2, 11], [8, 20], [5, 16], [13, 26]``);
* ``encoded_Min`` / ``encoded_Max`` — the sums of the range endpoints
  (``28`` and ``73``).

A user ``b`` can only match a user ``a`` when ``b.encoded_ID`` falls in
``[a.encoded_Min, a.encoded_Max]`` *and* every part sum of ``b`` falls in
the corresponding part range of ``a``.  Both conditions are necessary
(never sufficient), so the scheme can prune without false misses.
They stay necessary under a per-dimension threshold ``eps_i``, whose
intervals are ``[max(0, v - eps_i), v + eps_i]``.

Figure 1 shows the segmentation for ``d = 27`` with 4 parts as sizes
``6, 7, 7, 7``: the remainder dimensions go to the *last* parts.

An encoding is per-community preprocessing: ``Encd_B`` depends only on
the community and ``n_parts``, ``Encd_A`` also on epsilon.
:meth:`MinMaxEncoder.targets_of` and :meth:`MinMaxEncoder.candidates_of`
memoise them on the frozen :class:`~repro.core.types.Community`, one
slot per role, so a community joined many times is encoded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigurationError
from .types import Community

__all__ = [
    "split_dimensions",
    "EncodedTargets",
    "EncodedCandidates",
    "MinMaxEncoder",
]

#: Instance attributes of the per-role memo slots on a ``Community``;
#: each holds one ``(key, buffer)`` tuple.
_TARGETS_SLOT = "_encd_b"
_CANDIDATES_SLOT = "_encd_a"

_Buffer = TypeVar("_Buffer", "EncodedTargets", "EncodedCandidates")


def split_dimensions(n_dims: int, n_parts: int) -> list[slice]:
    """Split ``n_dims`` dimensions into contiguous near-equal parts.

    The base size is ``n_dims // n_parts``; the remainder is distributed
    one dimension at a time to the *last* parts, matching Figure 1 where
    ``d = 27`` and 4 parts yield sizes ``6, 7, 7, 7``.
    """
    if n_parts < 1:
        raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > n_dims:
        raise ConfigurationError(
            f"n_parts ({n_parts}) cannot exceed the number of dimensions ({n_dims})"
        )
    base = n_dims // n_parts
    remainder = n_dims % n_parts
    sizes = [base] * (n_parts - remainder) + [base + 1] * remainder
    slices: list[slice] = []
    start = 0
    for size in sizes:
        slices.append(slice(start, start + size))
        start += size
    return slices


@dataclass(frozen=True)
class EncodedTargets:
    """The ``Encd_B`` buffer: one triple-entry per user ``b`` in ``B``.

    Arrays are aligned with ``order``: row ``k`` describes the user whose
    original row index is ``real_ids[k]``, and rows are ascending-sorted
    on ``encoded_ID`` (ties broken by original index for determinism).
    """

    encoded_id: np.ndarray  # (n,) int64, ascending
    parts: np.ndarray  # (n, n_parts) int64
    real_ids: np.ndarray  # (n,) int64 original row indices

    @property
    def n_users(self) -> int:
        return int(self.encoded_id.shape[0])

    def entry_label(self, position: int) -> str:
        """Display label like ``"b2:48"`` used in Figures 2/3."""
        return f"b{self.real_ids[position] + 1}:{self.encoded_id[position]}"


@dataclass(frozen=True)
class EncodedCandidates:
    """The ``Encd_A`` buffer: one quadruple-entry per user ``a`` in ``A``.

    Rows are ascending-sorted on ``encoded_Min`` (ties broken by
    ``encoded_Max`` then original index).
    """

    encoded_min: np.ndarray  # (n,) int64, ascending
    encoded_max: np.ndarray  # (n,) int64
    range_min: np.ndarray  # (n, n_parts) int64
    range_max: np.ndarray  # (n, n_parts) int64
    real_ids: np.ndarray  # (n,) int64 original row indices

    @property
    def n_users(self) -> int:
        return int(self.encoded_min.shape[0])

    def entry_label(self, position: int) -> str:
        """Display label like ``"a3:(42, 72)"`` used in Figures 2/3."""
        return (
            f"a{self.real_ids[position] + 1}:"
            f"({self.encoded_min[position]}, {self.encoded_max[position]})"
        )


class MinMaxEncoder:
    """Computes the Figure 1 encoding for both sides of a CSJ join.

    Parameters
    ----------
    epsilon:
        The per-dimension absolute-difference threshold: an int, or a
        tuple of ``d`` ints that broadcasts over the ``(n, d)`` matrix.
    n_parts:
        Number of contiguous vector parts (the paper uses 4).
    """

    def __init__(self, epsilon: int | tuple[int, ...], n_parts: int = 4) -> None:
        if isinstance(epsilon, tuple):
            negative = min(epsilon, default=0) < 0
        else:
            negative, epsilon = epsilon < 0, int(epsilon)
        if negative:
            raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self.n_parts = int(n_parts)

    def part_slices(self, n_dims: int) -> list[slice]:
        return split_dimensions(n_dims, self.n_parts)

    def part_sums(self, vectors: np.ndarray) -> np.ndarray:
        """Per-part counter sums, shape ``(n, n_parts)``."""
        matrix = np.asarray(vectors, dtype=np.int64)
        starts = [part.start for part in self.part_slices(matrix.shape[1])]
        return np.add.reduceat(matrix, starts, axis=1)

    def encode_targets(self, vectors: np.ndarray) -> EncodedTargets:
        """Build the sorted ``Encd_B`` buffer for community ``B``."""
        parts = self.part_sums(vectors)
        encoded_id = parts.sum(axis=1)
        # A stable sort breaks ties by original index.
        order = np.argsort(encoded_id, kind="stable").astype(np.int64, copy=False)
        return EncodedTargets(
            encoded_id=encoded_id.take(order),
            parts=parts.take(order, axis=0),
            real_ids=order,
        )

    def encode_candidates(self, vectors: np.ndarray) -> EncodedCandidates:
        """Build the sorted ``Encd_A`` buffer for community ``A``.

        The lower endpoint of each per-dimension interval is clamped at
        zero (counters are non-negative), exactly as in Figure 1 where
        value ``0`` with ``eps = 1`` yields the interval ``[0, 1]``.
        """
        matrix = np.asarray(vectors, dtype=np.int64)
        starts = [part.start for part in self.part_slices(matrix.shape[1])]
        range_min = np.add.reduceat(np.maximum(matrix - self.epsilon, 0), starts, axis=1)
        range_max = np.add.reduceat(matrix + self.epsilon, starts, axis=1)
        encoded_min = range_min.sum(axis=1)
        encoded_max = range_max.sum(axis=1)
        # lexsort is stable, so full ties keep their original order.
        order = np.lexsort((encoded_max, encoded_min)).astype(np.int64, copy=False)
        return EncodedCandidates(
            encoded_min=encoded_min.take(order),
            encoded_max=encoded_max.take(order),
            range_min=range_min.take(order, axis=0),
            range_max=range_max.take(order, axis=0),
            real_ids=order,
        )

    def targets_of(self, community: Community) -> EncodedTargets:
        """The ``Encd_B`` buffer of ``community``, memoised on it.

        The memo slot holds one buffer, keyed by ``n_parts``; its arrays
        are read-only because every join of the community shares them.
        """
        return _memoised(community, _TARGETS_SLOT, self.n_parts, self.encode_targets)

    def candidates_of(self, community: Community) -> EncodedCandidates:
        """The ``Encd_A`` buffer of ``community``, memoised like
        :meth:`targets_of` but keyed by ``(n_parts, epsilon)``, a tuple
        epsilon whole."""
        return _memoised(
            community,
            _CANDIDATES_SLOT,
            (self.n_parts, self.epsilon),
            self.encode_candidates,
        )

    @staticmethod
    def parts_overlap(
        parts_row: np.ndarray, range_min_row: np.ndarray, range_max_row: np.ndarray
    ) -> bool:
        """Complete part/range overlap test between one ``b`` and one ``a``.

        True only when *every* part sum of ``b`` falls inside the
        corresponding range of ``a`` — a NO OVERLAP event otherwise.
        """
        return bool(
            np.all((parts_row >= range_min_row) & (parts_row <= range_max_row))
        )

    def describe(self, vector: np.ndarray) -> dict[str, object]:
        """Explain the encoding of a single vector (Figure 1 walkthrough).

        Returns the part slices, part sums, per-part ranges and the three
        encoded values, keyed the way the figure names them.
        """
        matrix = np.asarray(vector, dtype=np.int64).reshape(1, -1)
        slices = self.part_slices(matrix.shape[1])
        parts = self.part_sums(matrix)[0]
        candidates = self.encode_candidates(matrix)
        return {
            "part_slices": slices,
            "parts": parts.tolist(),
            "encoded_id": int(parts.sum()),
            "part_ranges": [
                (int(lo), int(hi))
                for lo, hi in zip(candidates.range_min[0], candidates.range_max[0])
            ],
            "encoded_min": int(candidates.encoded_min[0]),
            "encoded_max": int(candidates.encoded_max[0]),
        }


def _memoised(
    community: Community,
    slot: str,
    key: object,
    encode: Callable[[np.ndarray], _Buffer],
) -> _Buffer:
    """The buffer held in ``community``'s memo ``slot`` under ``key``.

    A miss encodes the vectors and replaces the slot with one attribute
    store, so each role keeps at most one buffer and concurrent joins
    need no lock: a reader sees the old or the new ``(key, buffer)``
    tuple whole, and a buffer is only returned under its own key.  A
    community's vectors are read-only from construction on, and
    ``dataclasses.replace`` or :meth:`Community.subset` build a new
    instance with empty slots.
    """
    held = community.__dict__.get(slot)
    if held is not None and held[0] == key:
        return held[1]
    buffer = encode(community.vectors)
    for array in vars(buffer).values():
        array.setflags(write=False)
    # Community is a frozen dataclass; the memo is not a field, so
    # object.__setattr__ is the sanctioned back door.
    object.__setattr__(community, slot, (key, buffer))
    return buffer
