"""Versioned community registry of the similarity service.

The store layers frozen :class:`~repro.core.types.Community` snapshots
over mutable :class:`~repro.core.incremental.IncrementalCommunity`
state.  Every registered community is held as an ``IncrementalCommunity``
(so subscribe / unsubscribe / like traffic is always absorbable) and
every read path — joins, top-k — goes through :meth:`snapshot`, which
freezes the current state into an immutable ``Community`` tagged with
the mutable's monotonic version.

Coordination is per community: a mutation and a snapshot of the *same*
community serialise on that community's lock, while different
communities proceed independently.  Snapshots are cached per version,
so a read-heavy workload between mutations freezes each state exactly
once and then hands out the same immutable object — safe to share
across executor threads because ``Community`` matrices are read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable

from ..core.delta import DeltaJoinMaintainer
from ..core.errors import ValidationError
from ..core.incremental import IncrementalCommunity
from ..core.types import Community
from ..engine.envelope import Envelope, community_envelope
from ..engine.envelope import candidate_pairs as envelope_candidates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "UnknownCommunityError",
    "CommunityStore",
    "CatalogBackedStore",
    "StoreSnapshot",
    "MutationRecord",
    "DeltaJoinPool",
    "init_delta_metrics",
]

#: Per-community mutation-log capacity.  A maintainer that falls more
#: than this many mutations behind cannot replay and rebuilds instead —
#: the log is a catch-up window, not a durable history.
MUTATION_LOG_CAPACITY = 4096


class UnknownCommunityError(ValidationError):
    """A request named a community the store has never registered."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        known = sorted(known)
        listed = ", ".join(known[:8]) + (", ..." if len(known) > 8 else "")
        super().__init__(
            f"community {name!r} is not registered"
            + (f" (registered: {listed})" if known else " (store is empty)")
        )


class StoreSnapshot:
    """One frozen read of a community: ``(community, version)``.

    ``user_ids`` maps snapshot rows back to stable store user ids (row
    ``k`` of the matrix is user ``user_ids[k]``) — the delta layer needs
    it to translate like events into matrix rows.  ``generation``
    identifies the registration the snapshot came from: replacing a
    community restarts its version counter, so version comparisons are
    only meaningful within one generation.
    """

    __slots__ = ("community", "version", "user_ids", "generation")

    def __init__(
        self,
        community: Community,
        version: int,
        user_ids: tuple[int, ...] = (),
        generation: int = 0,
    ) -> None:
        self.community = community
        self.version = version
        self.user_ids = user_ids
        self.generation = generation


@dataclass(frozen=True)
class MutationRecord:
    """One logged mutation; ``version`` is the state *after* applying.

    ``structural`` marks membership changes (subscribe / unsubscribe)
    that re-shape the snapshot matrix — the delta layer cannot replay
    those locally and rebuilds instead.
    """

    version: int
    action: str
    user_id: int
    dimension: int = -1
    count: int = 0

    @property
    def structural(self) -> bool:
        return self.action != "record_like"


#: Distinguishes registrations of the same name across ``replace=True``
#: (``itertools.count.__next__`` is atomic under the GIL).
_generations = count(1)


class _Entry:
    """One registered community: mutable state + snapshot cache + lock."""

    __slots__ = (
        "mutable",
        "lock",
        "log",
        "generation",
        "_cached_version",
        "_cached_snapshot",
        "_cached_user_ids",
    )

    def __init__(self, mutable: IncrementalCommunity) -> None:
        self.mutable = mutable
        self.lock = threading.RLock()
        self.log: deque[MutationRecord] = deque(maxlen=MUTATION_LOG_CAPACITY)
        self.generation = next(_generations)
        self._cached_version = -1
        self._cached_snapshot: Community | None = None
        self._cached_user_ids: tuple[int, ...] = ()

    def snapshot(self) -> StoreSnapshot:
        with self.lock:
            version = self.mutable.version
            if self._cached_snapshot is None or self._cached_version != version:
                self._cached_snapshot = self.mutable.snapshot()
                self._cached_user_ids = tuple(self.mutable.user_ids())
                self._cached_version = version
            return StoreSnapshot(
                self._cached_snapshot,
                version,
                self._cached_user_ids,
                self.generation,
            )


class CommunityStore:
    """Named, versioned communities behind per-community locks.

    The registry map itself is guarded by one lock (registration is
    rare); all per-community work — mutations and snapshot freezing —
    takes only that community's lock.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}
        self._registry_lock = threading.Lock()

    # -- registration --------------------------------------------------
    def register(
        self,
        name: str,
        vectors: object,
        *,
        category: str = "",
        page_id: int = 0,
        replace: bool = False,
    ) -> StoreSnapshot:
        """Register (or with ``replace`` overwrite) a community.

        ``vectors`` is any array-like accepted by
        :func:`~repro.core.types.as_counter_matrix`; the initial state
        gets version 0 and every subsequent mutation bumps it.
        """
        if not isinstance(name, str) or not name:
            raise ValidationError("community name must be a non-empty string")
        mutable = IncrementalCommunity(
            name,
            _n_dims_of(vectors),
            category=category,
            page_id=int(page_id),
            vectors=vectors,
        )
        entry = _Entry(mutable)
        with self._registry_lock:
            if name in self._entries and not replace:
                raise ValidationError(
                    f"community {name!r} is already registered "
                    "(pass replace=true to overwrite)"
                )
            self._entries[name] = entry
        return entry.snapshot()

    def register_community(
        self, community: Community, *, replace: bool = False
    ) -> StoreSnapshot:
        """Register an existing frozen community (CLI preload path)."""
        return self.register(
            community.name,
            community.vectors,
            category=community.category,
            page_id=community.page_id,
            replace=replace,
        )

    # -- reads ---------------------------------------------------------
    def names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._registry_lock:
            return name in self._entries

    def _entry(self, name: str) -> _Entry:
        with self._registry_lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownCommunityError(name, self._entries)
            return entry

    def snapshot(self, name: str) -> StoreSnapshot:
        """The current frozen state of one community (cached per version)."""
        return self._entry(name).snapshot()

    def snapshots(self, names: Iterable[str]) -> list[StoreSnapshot]:
        return [self.snapshot(name) for name in names]

    def candidate_pairs(self, epsilon: int) -> list[tuple[str, str]]:
        """All unordered name pairs surviving the envelope screen.

        The vector-free half of a distributed ranking: the coordinator
        asks every shard for its local candidate pairs and unions them,
        so only the surviving couples ever carry join work.  Pairs are
        ``(a, b)`` with ``a < b``, sorted; communities of different
        dimensionality never pair (their similarity is undefined).
        """
        return envelope_candidates(self._envelopes(self.names()), epsilon)

    def _envelopes(self, names: Iterable[str]) -> dict[str, Envelope]:
        """The current snapshots' envelopes of ``names``."""
        return {
            name: community_envelope(self.snapshot(name).community) for name in names
        }

    def describe(self) -> dict[str, dict[str, object]]:
        """Per-community metadata for the ``stats`` endpoint."""
        with self._registry_lock:
            entries = dict(self._entries)
        out: dict[str, dict[str, object]] = {}
        for name in sorted(entries):
            mutable = entries[name].mutable
            with entries[name].lock:
                out[name] = {
                    "version": mutable.version,
                    "n_users": mutable.n_users,
                    "n_dims": mutable.n_dims,
                    "category": mutable.category,
                }
        return out

    # -- mutations -----------------------------------------------------
    def subscribe(self, name: str, profile: object | None = None) -> dict[str, object]:
        entry = self._entry(name)
        with entry.lock:
            user_id = entry.mutable.subscribe(profile)
            entry.log.append(
                MutationRecord(entry.mutable.version, "subscribe", user_id)
            )
            return self._mutation_info(entry, user_id=user_id)

    def unsubscribe(self, name: str, user_id: int) -> dict[str, object]:
        entry = self._entry(name)
        with entry.lock:
            entry.mutable.unsubscribe(user_id)
            entry.log.append(
                MutationRecord(entry.mutable.version, "unsubscribe", user_id)
            )
            return self._mutation_info(entry, user_id=user_id)

    def record_like(
        self, name: str, user_id: int, dimension: int, count: int = 1
    ) -> dict[str, object]:
        entry = self._entry(name)
        with entry.lock:
            entry.mutable.record_like(user_id, dimension, count)
            entry.log.append(
                MutationRecord(
                    entry.mutable.version,
                    "record_like",
                    user_id,
                    dimension=dimension,
                    count=count,
                )
            )
            return self._mutation_info(entry, user_id=user_id)

    # -- delta catch-up ------------------------------------------------
    def mutations_since(
        self, name: str, version: int, generation: int
    ) -> tuple[list[MutationRecord] | None, int]:
        """Mutations applied to ``name`` after store version ``version``.

        ``generation`` must be the :class:`StoreSnapshot` generation the
        caller's state was built from.  Returns
        ``(records, current_version)``.  ``records`` is ``None`` when
        the log cannot prove continuity — the caller fell out of the
        bounded log window, or the community was replaced (new
        generation, restarted version counter) — in which case the
        caller must rebuild from a fresh snapshot.  An empty list means
        the caller is already current.
        """
        entry = self._entry(name)
        with entry.lock:
            current = entry.mutable.version
            if entry.generation != generation or version > current:
                return None, current  # replaced community
            if version == current:
                return [], current
            records = [
                record for record in entry.log if record.version > version
            ]
            if len(records) != current - version:
                return None, current  # gap: log window no longer covers
            return records, current

    @staticmethod
    def _mutation_info(entry: _Entry, **extra: object) -> dict[str, object]:
        mutable = entry.mutable
        info: dict[str, object] = {
            "name": mutable.name,
            "version": mutable.version,
            "n_users": mutable.n_users,
        }
        info.update(extra)
        return info


class CatalogBackedStore(CommunityStore):
    """A community store that faults entries in from a persistent catalog.

    ``repro-csj serve --catalog <db>`` preloads *lazily*: at startup
    the store knows every catalog key (metadata only — no vectors), and
    a community's vectors load from the catalog the first time a
    request names it.  Cold start therefore touches only the rows that
    are actually requested; an idle server over a 100k-community
    catalog holds zero vector bytes.

    Once faulted in, a community behaves exactly like a registered one
    (mutable, versioned, delta-maintainable); the catalog is the *seed*
    state, not a write-through backend — mutations stay in the store.
    """

    def __init__(self, catalog: "PersistentCatalog") -> None:
        super().__init__()
        self._catalog = catalog

    # -- lazy materialisation ------------------------------------------
    def _entry(self, name: str) -> _Entry:
        with self._registry_lock:
            entry = self._entries.get(name)
        if entry is not None:
            return entry
        if name not in self._catalog:
            raise UnknownCommunityError(name, self.names())
        # The only vector load of the path, outside every store lock.
        community = self._catalog.get(name)
        mutable = IncrementalCommunity(
            name,
            community.n_dims,
            category=community.category,
            page_id=community.page_id,
            vectors=community.vectors,
        )
        fresh = _Entry(mutable)
        with self._registry_lock:
            # Another thread may have faulted the same key in; keep the
            # first registration so versions stay monotonic.
            entry = self._entries.setdefault(name, fresh)
        return entry

    # -- reads spanning catalog + materialised entries ------------------
    def names(self) -> list[str]:
        with self._registry_lock:
            registered = set(self._entries)
        return sorted(registered | set(self._catalog.keys()))

    def loaded_names(self) -> list[str]:
        """Only the communities whose vectors are materialised."""
        return super().names()

    def candidate_pairs(self, epsilon: int) -> list[tuple[str, str]]:
        """Candidate pairs over catalog rows *and* materialised entries.

        Keys never faulted in are screened from their catalog rows (no
        vector loads); keys that live in the store — faulted in,
        re-registered or freshly registered, any of which may have
        drifted from the catalog row — from their current snapshots.
        """
        envelopes = self._catalog.envelopes()
        envelopes.update(self._envelopes(self.loaded_names()))
        return envelope_candidates(envelopes, epsilon)

    def __len__(self) -> int:
        return len(self.names())

    def __contains__(self, name: str) -> bool:
        return super().__contains__(name) or name in self._catalog


if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import PersistentCatalog


#: Counter families of the delta layer, zero-initialised at server
#: startup so stats/scrapes expose them before the first update.
DELTA_COUNTERS = (
    "repro_delta_updates_total",
    "repro_delta_skips_total",
    "repro_delta_pairs_rechecked_total",
    "repro_delta_edges_added_total",
    "repro_delta_edges_removed_total",
    "repro_delta_augment_phases_total",
    "repro_delta_rebuilds_total",
    "repro_delta_refreshes_total",
    "repro_delta_evictions_total",
    "repro_delta_fallbacks_total",
)


def init_delta_metrics(metrics: "MetricsRegistry") -> None:
    """Create the ``repro_delta_*`` family at zero in ``metrics``."""
    for name in DELTA_COUNTERS:
        metrics.inc(name, 0)


class _CoupleState:
    """One maintained couple: maintainer + synced versions + row maps."""

    __slots__ = ("lock", "maintainer", "versions", "generations", "row_maps")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.maintainer: DeltaJoinMaintainer | None = None
        self.versions: dict[str, int] = {}
        self.generations: dict[str, int] = {}
        self.row_maps: dict[str, dict[int, int]] = {}


class DeltaJoinPool:
    """Version-aware :class:`DeltaJoinMaintainer` cache over a store.

    One maintainer per ``(couple, epsilon, size-ratio flag)`` key, LRU
    bounded.  :meth:`refresh` brings a couple's maintainer up to the
    store's current versions: like mutations replay through the
    maintainer's local repair path, while structural changes
    (subscribe / unsubscribe / community replacement / log gaps)
    discard the maintainer and rebuild it from fresh snapshots — row
    indices and the B/A orientation are only stable between membership
    changes.

    Thread-safety: the pool map takes its own lock; each couple's state
    takes a per-couple lock for the whole refresh, so concurrent
    ``update`` requests for the same couple serialise while different
    couples repair in parallel.  Metric emission goes to the
    caller-provided scratch registry (executor threads never touch the
    server's shared registry).
    """

    def __init__(
        self,
        store: CommunityStore,
        *,
        max_couples: int = 64,
    ) -> None:
        if max_couples < 1:
            raise ValidationError(
                f"max_couples must be >= 1, got {max_couples}"
            )
        self._store = store
        self._max_couples = int(max_couples)
        self._couples: OrderedDict[
            tuple[str, str, int, bool], _CoupleState
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.refreshes = 0
        self.rebuilds = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._couples)

    def _state_for(
        self,
        key: tuple[str, str, int, bool],
        metrics: "MetricsRegistry | None" = None,
    ) -> _CoupleState:
        evicted = 0
        with self._lock:
            state = self._couples.get(key)
            if state is None:
                state = _CoupleState()
                self._couples[key] = state
                while len(self._couples) > self._max_couples:
                    self._couples.popitem(last=False)
                    self.evictions += 1
                    evicted += 1
            self._couples.move_to_end(key)
        if metrics is not None:
            for _ in range(evicted):
                metrics.inc("repro_delta_evictions_total")
        return state

    def invalidate(self, name: str) -> None:
        """Drop every maintainer involving ``name`` (re-registration)."""
        with self._lock:
            stale = [key for key in self._couples if name in key[:2]]
            for key in stale:
                del self._couples[key]

    def refresh(
        self,
        first: str,
        second: str,
        epsilon: int,
        *,
        enforce_size_ratio: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> dict[str, object]:
        """Sync the couple's maintainer with the store; return a summary.

        ``mode`` in the summary is ``"delta"`` when the catch-up
        replayed like mutations through local repair (also when there
        was nothing to replay) and ``"rebuild"`` when the maintainer was
        (re)built from fresh snapshots.
        """
        if first == second:
            raise ValidationError(
                "update needs two distinct communities, got "
                f"{first!r} twice"
            )
        key = (
            min(first, second),
            max(first, second),
            int(epsilon),
            bool(enforce_size_ratio),
        )
        state = self._state_for(key, metrics)
        with state.lock:
            summary = self._refresh_locked(state, key, metrics)
        with self._lock:
            self.refreshes += 1
        if metrics is not None:
            metrics.inc("repro_delta_refreshes_total")
        return summary

    def _refresh_locked(
        self,
        state: _CoupleState,
        key: tuple[str, str, int, bool],
        metrics: "MetricsRegistry | None",
    ) -> dict[str, object]:
        name_one, name_two = key[0], key[1]
        maintainer = state.maintainer
        mode = "delta"
        pending: dict[str, list[MutationRecord]] = {}
        if maintainer is None:
            mode = "rebuild"
        else:
            for name in (name_one, name_two):
                records, current = self._store.mutations_since(
                    name, state.versions[name], state.generations[name]
                )
                if records is None or any(
                    record.structural for record in records
                ):
                    mode = "rebuild"
                    break
                pending[name] = records
        if mode == "rebuild":
            maintainer = self._rebuild(state, key, metrics)
        else:
            assert maintainer is not None
            maintainer.metrics = metrics
            try:
                for name in (name_one, name_two):
                    side = "first" if name == name_one else "second"
                    rows = state.row_maps[name]
                    for record in pending[name]:
                        maintainer.record_like(
                            side,
                            rows[record.user_id],
                            record.dimension,
                            record.count,
                        )
                        state.versions[name] = record.version
            finally:
                maintainer.metrics = None
        return {
            "mode": mode,
            "similarity": maintainer.similarity,
            "n_matched": maintainer.n_matched,
            "size_b": maintainer.size_b,
            "size_a": maintainer.size_a,
            "events": maintainer.events.as_dict(),
            "versions": dict(state.versions),
            "stats": maintainer.stats.as_dict(),
        }

    def _rebuild(
        self,
        state: _CoupleState,
        key: tuple[str, str, int, bool],
        metrics: "MetricsRegistry | None",
    ) -> DeltaJoinMaintainer:
        name_one, name_two, epsilon, enforce = key
        snap_one = self._store.snapshot(name_one)
        snap_two = self._store.snapshot(name_two)
        if state.maintainer is None:
            maintainer = DeltaJoinMaintainer(
                snap_one.community,
                snap_two.community,
                epsilon,
                enforce_size_ratio=enforce,
            )
            state.maintainer = maintainer
            if metrics is not None:
                metrics.inc("repro_delta_rebuilds_total")
        else:
            maintainer = state.maintainer
            maintainer.metrics = metrics
            try:
                maintainer.rebuild(snap_one.community, snap_two.community)
            finally:
                maintainer.metrics = None
        with self._lock:
            self.rebuilds += 1
        state.versions = {
            name_one: snap_one.version,
            name_two: snap_two.version,
        }
        state.generations = {
            name_one: snap_one.generation,
            name_two: snap_two.generation,
        }
        state.row_maps = {
            name_one: {
                user_id: row for row, user_id in enumerate(snap_one.user_ids)
            },
            name_two: {
                user_id: row for row, user_id in enumerate(snap_two.user_ids)
            },
        }
        return maintainer

    def stats(self) -> dict[str, object]:
        # All counter reads under the lock: a snapshot taken between two
        # mutations must be one consistent state, not a torn mix.
        with self._lock:
            return {
                "couples": len(self._couples),
                "max_couples": self._max_couples,
                "refreshes": self.refreshes,
                "rebuilds": self.rebuilds,
                "evictions": self.evictions,
            }


def _n_dims_of(vectors: object) -> int:
    """Dimensionality of an array-like without importing numpy here."""
    try:
        first = vectors[0]  # type: ignore[index]
    except (TypeError, IndexError, KeyError) as exc:
        raise ValidationError(
            "community vectors must be a non-empty (n, d) matrix"
        ) from exc
    try:
        return len(first)
    except TypeError as exc:
        raise ValidationError(
            "community vectors must be a 2-D (n, d) matrix"
        ) from exc
