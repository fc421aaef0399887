"""Out-of-core CSJ: joining communities larger than memory.

The paper's testbed holds both communities in RAM (24 GB for ~300k x 27
vectors is comfortable), but a platform-scale deployment — the paper's
VK sample alone is 7.8M users — may not.  This module keeps the vectors
on disk (``.npy`` accessed through ``numpy.memmap``) and runs the
MinMax-windowed exact join with bounded memory:

1. one streaming pass computes the encoded IDs of ``B`` and the encoded
   Min/Max windows of ``A`` — ``O(n)`` *scalars* in RAM, never the
   ``O(n * d)`` vectors;
2. ``B`` is taken in slices of ``chunk_size`` rows in encoded-ID order;
   for each slice, only the ``A`` rows whose window meets the slice's
   ID range (``encoded_Min`` at most its largest ID, ``encoded_Max`` at
   least its smallest) are gathered from disk, and the slice and those
   rows are paired by one MinMax band pass
   (:func:`~repro.algorithms.minmax.band_edges`);
3. every slice's candidate pairs (few, by CSJ's low-epsilon
   selectivity) feed one CSF or Hopcroft–Karp selection.

Memory holds at most one slice of ``B`` and the ``A`` rows of its
window at a time (plus the band's working blocks), so a smaller
``chunk_size`` gathers less; each slice is a band of its own, so a
very small one costs a band pass per few users.

The result is pair-for-pair identical to the in-memory Ex-MinMax — the
tests assert it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..algorithms.minmax import band_edges
from ..core.errors import ConfigurationError, ValidationError
from ..core.matching import get_matcher, match_edges
from ..core.types import Community, CSJResult, as_counter_matrix
from ..core.validation import validate_epsilon

__all__ = ["OnDiskCommunity", "out_of_core_similarity"]


class _ClosedVectors:
    """Placeholder for released vectors: shape survives, data access raises."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape

    def _refuse(self, *_args: object, **_kwargs: object) -> object:
        raise ValueError(
            "on-disk community is closed; its vectors are no longer mapped"
        )

    __array__ = _refuse
    __getitem__ = _refuse
    __iter__ = _refuse

    def __len__(self) -> int:
        return int(self.shape[0])


@dataclass(frozen=True)
class OnDiskCommunity:
    """A community stored as an ``.npy`` file plus JSON metadata.

    ``vectors`` is a read-only memmap: element access touches only the
    pages actually read.  The memmap holds an open file handle until
    :meth:`close` releases it — a long-running process opening many
    communities must close them (or use the instance as a context
    manager), or it leaks one handle per community.
    """

    path: Path
    name: str
    category: str
    vectors: np.memmap

    @property
    def n_users(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n_dims(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return self.n_users

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the underlying mapping."""
        return bool(self.__dict__.get("_closed", False))

    def close(self) -> None:
        """Release the memmap's file handle (idempotent).

        Vector access after closing raises ``ValueError``; metadata
        (``name``, ``n_users`` via the cached shape, ...) needs no file
        and stays available.  The mapping is released by dropping this
        instance's reference — never by force-closing the ``mmap``
        object, which would turn any still-held view of the array into
        a use-after-unmap crash.  When nobody else holds the array (the
        normal case) the file handle is freed here, deterministically.
        """
        if self.closed:
            return
        shape = tuple(int(extent) for extent in self.vectors.shape)
        # frozen dataclass: mutate via object.__setattr__.
        object.__setattr__(self, "vectors", _ClosedVectors(shape))
        object.__setattr__(self, "_closed", True)

    def __enter__(self) -> "OnDiskCommunity":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        vectors: object,
        *,
        name: str = "",
        category: str = "",
    ) -> "OnDiskCommunity":
        """Write vectors to disk and open them as a memmap."""
        matrix = as_counter_matrix(vectors)
        path = Path(path).with_suffix(".npy")
        np.save(path, matrix)
        meta = {"name": name or path.stem, "category": category}
        path.with_suffix(".json").write_text(json.dumps(meta))
        return cls.open(path)

    @classmethod
    def from_community(cls, path: str | Path, community: Community) -> "OnDiskCommunity":
        """Persist an in-memory community for out-of-core joining."""
        return cls.create(
            path, community.vectors, name=community.name, category=community.category
        )

    @classmethod
    def open(cls, path: str | Path) -> "OnDiskCommunity":
        """Open a community previously written by :meth:`create`."""
        path = Path(path).with_suffix(".npy")
        if not path.exists():
            raise ValidationError(f"no on-disk community at {path}")
        memmap = np.load(path, mmap_mode="r")
        if memmap.ndim != 2:
            raise ValidationError(f"{path} does not hold a 2-D user matrix")
        meta_path = path.with_suffix(".json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return cls(
            path=path,
            name=str(meta.get("name", path.stem)),
            category=str(meta.get("category", "")),
            vectors=memmap,
        )

    # ------------------------------------------------------------------
    def row_sums(self, chunk_size: int) -> np.ndarray:
        """Streaming per-row counter sums (one chunk in RAM at a time)."""
        sums = np.empty(self.n_users, dtype=np.int64)
        for start in range(0, self.n_users, chunk_size):
            block = np.asarray(self.vectors[start : start + chunk_size])
            sums[start : start + chunk_size] = block.sum(axis=1)
        return sums

    def window_bounds(self, epsilon: int, chunk_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Streaming encoded Min/Max (clamped at zero per dimension; int64
        chunks, as ``0 - epsilon`` wraps in a narrow unsigned file)."""
        minimum = np.empty(self.n_users, dtype=np.int64)
        maximum = np.empty(self.n_users, dtype=np.int64)
        for start in range(0, self.n_users, chunk_size):
            block = np.asarray(self.vectors[start : start + chunk_size], dtype=np.int64)
            minimum[start : start + chunk_size] = np.maximum(
                block - epsilon, 0
            ).sum(axis=1)
            maximum[start : start + chunk_size] = (block + epsilon).sum(axis=1)
        return minimum, maximum


def out_of_core_similarity(
    disk_b: OnDiskCommunity | str | Path,
    disk_a: OnDiskCommunity | str | Path,
    *,
    epsilon: int,
    chunk_size: int = 4096,
    matcher: str = "csf",
) -> CSJResult:
    """Exact CSJ join of two on-disk communities with bounded memory.

    ``disk_b`` must be the smaller community (the paper's ``B`` role);
    pass the pair accordingly — on-disk inputs are not auto-oriented.

    Either side may be given as a path: the function opens it itself
    and closes it again on every exit path, so repeated calls never
    accumulate file handles.  Caller-provided ``OnDiskCommunity``
    instances are left open (the caller owns their lifetime).
    """
    epsilon = validate_epsilon(epsilon)
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    opened: list[OnDiskCommunity] = []
    try:
        if not isinstance(disk_b, OnDiskCommunity):
            disk_b = OnDiskCommunity.open(disk_b)
            opened.append(disk_b)
        if not isinstance(disk_a, OnDiskCommunity):
            disk_a = OnDiskCommunity.open(disk_a)
            opened.append(disk_a)
        return _out_of_core_similarity(
            disk_b, disk_a,
            epsilon=epsilon, chunk_size=chunk_size, matcher=matcher,
        )
    finally:
        for community in opened:
            community.close()


def _out_of_core_similarity(
    disk_b: OnDiskCommunity,
    disk_a: OnDiskCommunity,
    *,
    epsilon: int,
    chunk_size: int,
    matcher: str,
) -> CSJResult:
    if disk_b.n_dims != disk_a.n_dims:
        raise ValidationError(
            f"dimension mismatch: d={disk_b.n_dims} vs d={disk_a.n_dims}"
        )
    if disk_b.n_users > disk_a.n_users:
        raise ValidationError(
            "pass the smaller community first (on-disk joins are not "
            "auto-oriented)"
        )
    get_matcher(matcher)  # rejects an unknown name before the scan
    started = time.perf_counter()

    encoded_id = disk_b.row_sums(chunk_size)
    encoded_min, encoded_max = disk_a.window_bounds(epsilon, chunk_size)
    order_b = np.argsort(encoded_id, kind="stable")
    edges_b = [np.empty(0, dtype=np.int64)]
    edges_a = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(order_b), chunk_size):
        slice_b = order_b[start : start + chunk_size]
        low, high = encoded_id[slice_b[0]], encoded_id[slice_b[-1]]
        rows_a = np.flatnonzero((encoded_min <= high) & (encoded_max >= low))
        if rows_a.size == 0:
            continue
        rows_b = np.sort(slice_b)
        hits_b, hits_a = band_edges(
            Community(disk_b.name, disk_b.vectors[rows_b]),
            Community(disk_a.name, disk_a.vectors[rows_a]),
            epsilon,
        )
        edges_b.append(rows_b[hits_b])
        edges_a.append(rows_a[hits_a])

    pairs_b, pairs_a = match_edges(np.concatenate(edges_b), np.concatenate(edges_a), matcher)
    elapsed = time.perf_counter() - started
    return CSJResult(
        method="out-of-core-minmax",
        exact=matcher != "greedy",
        size_b=disk_b.n_users,
        size_a=disk_a.n_users,
        epsilon=int(epsilon),
        pairs_b=pairs_b,
        pairs_a=pairs_a,
        elapsed_seconds=elapsed,
        engine="numpy",
    )
