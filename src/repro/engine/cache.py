"""Content-addressed LRU cache of join results.

Sweeps and repeated top-k calls evaluate the same community pair under
the same configuration over and over; the join is deterministic, so the
second evaluation is pure waste.  :class:`JoinResultCache` memoises
results keyed by ``(fingerprint(B), fingerprint(A), epsilon, method,
options)`` — content fingerprints, not object identities, so hits
survive regeneration of identical data and cross process boundaries.

The cache stores results themselves, never encoded payloads: a join
result's matching lives in two read-only arrays
(:attr:`~repro.core.types.CSJResult.pairs_b` /
:attr:`~repro.core.types.CSJResult.pairs_a`) that entries and hits
share.  ``put`` keeps a detached shell of the result and each hit is
another (:meth:`~repro.core.types.CSJResult.detached`), with its own
event counters, stage timings and ``swapped`` flag and no memoised
``pairs`` view, so callers can never corrupt a cached entry and neither
call encodes or decodes.  Entries are bounded by an LRU policy and the
cache keeps hit/miss/eviction counters for observability.

The cache is **thread-safe**: the similarity service shares one cache
between executor threads serving concurrent requests, so every entry
and counter access runs under an internal lock (``OrderedDict`` LRU
reordering is a structural mutation even on the read path).  Counter
and gauge mirroring into the attached metrics registry happens under
the same lock, serialising updates to those metric keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

from ..core.errors import ConfigurationError
from ..core.types import CSJResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["JoinKey", "JoinResultCache", "canonical_options", "decoded_options"]

#: ``(fingerprint_b, fingerprint_a, epsilon, method, options)``.
JoinKey = tuple[str, str, int, str, tuple]


def canonical_options(options: Mapping[str, object]) -> tuple:
    """Normalise a method-options mapping into a hashable cache-key part.

    Each value is tagged with its type name — ``("bool", True)``,
    ``("int", 1)`` — because ``bool`` is an ``int`` subclass and equal-
    hashing numerics (``True == 1 == 1.0``) would otherwise alias to the
    same cache key, letting a join configured with ``{"flag": 1}`` be
    served the cached result of ``{"flag": True}``.  Non-primitive
    values fall back to their ``repr`` (tag ``"repr"``) so arbitrary
    configurations stay hashable and deterministic.
    """
    canonical = []
    for key in sorted(options):
        value = options[key]
        if isinstance(value, (bool, int, float, str, bytes, type(None))):
            tagged = (type(value).__name__, value)
        else:
            tagged = ("repr", repr(value))
        canonical.append((key, tagged))
    return tuple(canonical)


def decoded_options(options: tuple) -> dict[str, object]:
    """Invert :func:`canonical_options` back into a keyword mapping.

    The type tags exist only to keep cache keys collision-free; the
    values themselves are stored unchanged, so decoding just strips the
    tags.  (``"repr"``-tagged values stay as their repr string — they
    were never recoverable, exactly as before tagging.)
    """
    return {key: tagged[1] for key, tagged in options}


def join_key(
    fingerprint_b: str,
    fingerprint_a: str,
    epsilon: int,
    method: str,
    options: Mapping[str, object] | tuple = (),
) -> JoinKey:
    """Build the content-addressed key of one configured join."""
    if isinstance(options, Mapping):
        options = canonical_options(options)
    return (fingerprint_b, fingerprint_a, int(epsilon), method, tuple(options))


class JoinResultCache:
    """Bounded LRU cache mapping :data:`JoinKey` to detached results.

    ``put`` stores a shell of the result and ``get`` returns a fresh one
    over the same read-only pair arrays (see the module docstring), so
    neither a later edit of the stored result nor an edit of a hit
    reaches the entry.

    ``metrics`` (assignable after construction too) mirrors the hit /
    miss / eviction counters into a
    :class:`~repro.obs.registry.MetricsRegistry` as
    ``repro_engine_cache_{hits,misses,evictions}_total`` plus the
    ``repro_engine_cache_entries`` gauge, so cache behaviour shows up in the
    same run logs as everything else.  The cache's own integer counters
    remain the source of truth (the telemetry-accuracy tests assert the
    two agree).

    All operations are safe to call from multiple threads; one instance
    may be shared between engines and between the serving layer's
    executor threads.
    """

    def __init__(
        self,
        max_entries: int = 256,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[JoinKey, CSJResult] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.metrics = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: JoinKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: JoinKey) -> CSJResult | None:
        """Look up a join result, counting the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                if self.metrics is not None:
                    self.metrics.inc("repro_engine_cache_misses_total")
                return None
            self.hits += 1
            if self.metrics is not None:
                self.metrics.inc("repro_engine_cache_hits_total")
            self._entries.move_to_end(key)
        return entry.detached()

    def put(self, key: JoinKey, result: CSJResult) -> None:
        """Insert (or refresh) a result, evicting the LRU entry if full."""
        entry = result.detached()
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if self.metrics is not None:
                    self.metrics.inc("repro_engine_cache_evictions_total")
            if self.metrics is not None:
                self.metrics.set_gauge(
                    "repro_engine_cache_entries", len(self._entries)
                )

    def clear(self) -> None:
        """Drop all entries; counters are kept (they describe history).

        The occupancy gauge is *not* history — it reports the current
        entry count, so it must go to zero with the entries (it used to
        stay stale until the next ``put``).
        """
        with self._lock:
            self._entries.clear()
            if self.metrics is not None:
                self.metrics.set_gauge("repro_engine_cache_entries", 0)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, float | int]:
        """Counters snapshot for logs and benchmark reports."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"JoinResultCache(entries={len(self._entries)}"
                f"/{self.max_entries}, "
                f"hits={self.hits}, misses={self.misses})"
            )
