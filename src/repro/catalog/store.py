"""SQLite-backed persistent community catalog with indexed screening.

A platform-scale CSJ deployment keeps thousands of communities on disk
and asks, over and over, one cheap question before any expensive join:
*which communities can have nonzero similarity with X at epsilon e?*
The in-memory engine answers it with the per-dimension min/max envelope
screen (:mod:`repro.engine.envelope`); this module pushes that screen
into a real index so it runs without touching any vectors.

Layout — two tables in one WAL-mode database:

* ``communities`` — one row per community: metadata, the dtype-aware
  content fingerprint, the per-dimension Min/Max envelope (two int64
  blobs of ``d`` values) and two *scalar* aggregates ``sum_min`` /
  ``sum_max`` (the envelope summed over dimensions) that make the
  screen indexable;
* ``vectors`` — the ``(n, d)`` counter matrix as a blob, in its own
  table so metadata/envelope reads never page vector data in.  Vectors
  load lazily, one community at a time, only when a join actually
  needs them.

The catalog keeps no join results: :mod:`repro.engine` memoises them
(``JoinResultCache`` in memory, ``CheckpointLog`` on disk), so durable
results over catalog data come from ``top_k_pairs(catalog,
checkpoint=...)`` and ``catalog_epsilon_sweep(..., checkpoint=...)``.
A join-cache table that an older version left in a database is
ignored: never read, written or dropped.

The single-probe window query runs in two stages, both vector-free:

1. **Indexed range scan.**  Envelopes ``A`` and ``B`` survive the
   screen only if *every* dimension ``t`` satisfies
   ``min_A[t] - max_B[t] <= eps`` and ``min_B[t] - max_A[t] <= eps``.
   Summing each inequality over the ``d`` dimensions gives a necessary
   scalar condition::

       sum_min_A <= sum_max_B + eps * d
       sum_min_B <= sum_max_A + eps * d

   which SQLite evaluates as a range scan over the
   ``(sum_min, sum_max)`` index — candidate rows are located in the
   index without a full table walk.
2. **Exact refinement.**  The scalar condition is necessary but not
   sufficient, so the scanned rows' envelope blobs (``d`` integers
   each, still no vectors) are refined with the exact per-dimension
   test of :func:`~repro.engine.envelope.envelopes_separated`.  The
   surviving set is therefore *identical* to the in-memory envelope
   screen — the tests assert it pair for pair.

All-pairs candidates skip the index (where sums coincide, the window
admits every pair): one read of the envelope rows feeds the shared
sort-and-sweep of :func:`~repro.engine.envelope.candidate_pairs`.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..core.errors import ValidationError
from ..core.types import Community
from ..core.validation import validate_epsilon
from ..datasets.io import load_communities
from ..engine.envelope import Envelope, community_envelope, envelopes_separated
from ..engine.envelope import candidate_pairs as envelope_candidates
from .fingerprint import content_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "CatalogRecord",
    "PersistentCatalog",
    "CATALOG_COUNTERS",
    "init_catalog_metrics",
]

#: int64 little-endian — the on-disk encoding of envelopes and vectors.
_INT64 = np.dtype("<i8")

#: Characters rejected in catalog keys: ``/`` and ``\`` keep every key
#: a valid file stem (``<key>.npz`` in the import layout), and ``|`` is
#: the shard plan's pair separator (``repro.shard.partition._PAIR_SEP``),
#: so a key holding it would split into the wrong pair.
_FORBIDDEN_KEY_CHARS = "/\\|"

#: Counter family of the persistent catalog, zero-initialised at every
#: metrics init site so scrapes expose the series before the first use.
CATALOG_COUNTERS = (
    "repro_catalog_registrations_total",
    "repro_catalog_removals_total",
    "repro_catalog_window_queries_total",
    "repro_catalog_rows_scanned_total",
    "repro_catalog_survivors_total",
    "repro_catalog_vector_loads_total",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS communities (
    key         TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    category    TEXT NOT NULL DEFAULT '',
    page_id     INTEGER NOT NULL DEFAULT 0,
    n_users     INTEGER NOT NULL,
    n_dims      INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    env_min     BLOB NOT NULL,
    env_max     BLOB NOT NULL,
    sum_min     INTEGER NOT NULL,
    sum_max     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_communities_window
    ON communities(sum_min, sum_max);
CREATE TABLE IF NOT EXISTS vectors (
    key   TEXT PRIMARY KEY,
    dtype TEXT NOT NULL,
    n     INTEGER NOT NULL,
    d     INTEGER NOT NULL,
    data  BLOB NOT NULL
);
"""

#: Stage-1 candidate query: the indexed range scan of the docstring.
#: ``?`` order: n_dims, probe sum_max + eps*d, probe sum_min - eps*d.
#: No ORDER BY — survivors are sorted in Python so the planner is free
#: to drive the scan from the (sum_min, sum_max) window index.
_WINDOW_SQL = (
    "SELECT key, env_min, env_max FROM communities "
    "WHERE n_dims = ? AND sum_min <= ? AND sum_max >= ?"
)


def init_catalog_metrics(metrics: "MetricsRegistry") -> None:
    """Create the ``repro_catalog_*`` family at zero in ``metrics``."""
    for name in CATALOG_COUNTERS:
        metrics.inc(name, 0)


@dataclass(frozen=True)
class CatalogRecord:
    """One community's metadata row — everything but the vectors."""

    key: str
    name: str
    category: str
    page_id: int
    n_users: int
    n_dims: int
    fingerprint: str


def _validate_key(key: str) -> str:
    if not isinstance(key, str) or not key:
        raise ValidationError("catalog key must be a non-empty string")
    if any(ch in key for ch in _FORBIDDEN_KEY_CHARS):
        raise ValidationError(f"invalid catalog key {key!r}")
    return key


def _encode_envelope(bounds: np.ndarray) -> bytes:
    return np.ascontiguousarray(bounds, dtype=_INT64).tobytes()


def _decode_envelope(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=_INT64).astype(np.int64, copy=False)


class PersistentCatalog:
    """SQLite-backed store of communities and their envelopes.

    Parameters
    ----------
    path:
        Database file (created on demand); ``":memory:"`` is accepted
        for throwaway catalogs.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; every
        internal counter is mirrored into the ``repro_catalog_*``
        family.
    timeout:
        Seconds a writer waits on a locked database before giving up
        (two handles on one file coordinate through WAL + this).

    One handle owns one connection, serialised by an internal lock, so
    a handle may be shared between threads; separate handles (including
    ones in other processes) coordinate through SQLite itself.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        metrics: "MetricsRegistry | None" = None,
        timeout: float = 30.0,
    ) -> None:
        self.path = Path(path) if str(path) != ":memory:" else path
        self.metrics = metrics
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(path),
            timeout=timeout,
            check_same_thread=False,
            isolation_level=None,  # explicit BEGIN/COMMIT below
        )
        self._counters = dict.fromkeys(CATALOG_COUNTERS, 0)
        with self._lock:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.executescript(_SCHEMA)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "PersistentCatalog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Bump a ``CATALOG_COUNTERS`` counter (mirrors ``MetricsRegistry.inc``).

        Callers hold ``self._lock``; ``MetricsRegistry`` is not
        thread-safe, so the mirror write happens under the same lock.
        """
        self._counters[name] += amount
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _write(self, statements: list[tuple[str, tuple]]) -> None:
        """Run statements as one immediate (write-locked) transaction."""
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                for sql, parameters in statements:
                    self._connection.execute(sql, parameters)
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")

    def _community_row(self, key: str, community: Community) -> tuple:
        envelope = community_envelope(community)
        return (
            key,
            community.name or key,
            community.category,
            int(community.page_id),
            community.n_users,
            community.n_dims,
            content_fingerprint(community.vectors),
            _encode_envelope(envelope.mins),
            _encode_envelope(envelope.maxs),
            int(envelope.mins.sum()),
            int(envelope.maxs.sum()),
        )

    @staticmethod
    def _vector_row(key: str, community: Community) -> tuple:
        matrix = np.ascontiguousarray(community.vectors, dtype=_INT64)
        return (
            key,
            _INT64.str,
            community.n_users,
            community.n_dims,
            matrix.tobytes(),
        )

    def _registration_statements(
        self, key: str, community: Community
    ) -> list[tuple[str, tuple]]:
        return [
            (
                "INSERT OR REPLACE INTO communities "
                "(key, name, category, page_id, n_users, n_dims, "
                " fingerprint, env_min, env_max, sum_min, sum_max) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._community_row(key, community),
            ),
            (
                "INSERT OR REPLACE INTO vectors (key, dtype, n, d, data) "
                "VALUES (?, ?, ?, ?, ?)",
                self._vector_row(key, community),
            ),
        ]

    # -- registration ----------------------------------------------------
    def register(self, key: str, community: Community) -> None:
        """Store (or replace) a community under ``key``."""
        _validate_key(key)
        self._write(self._registration_statements(key, community))
        with self._lock:
            self.inc("repro_catalog_registrations_total")

    def register_many(self, communities: Mapping[str, Community]) -> None:
        """Bulk-register in one transaction (import and bench path)."""
        statements: list[tuple[str, tuple]] = []
        for key, community in communities.items():
            _validate_key(key)
            statements.extend(self._registration_statements(key, community))
        self._write(statements)
        with self._lock:
            self.inc("repro_catalog_registrations_total", len(communities))

    def remove(self, key: str) -> None:
        """Delete a community and its vectors."""
        _validate_key(key)
        with self._lock:
            if key not in self:
                raise ValidationError(f"no community registered under {key!r}")
            self._write(
                [
                    ("DELETE FROM communities WHERE key = ?", (key,)),
                    ("DELETE FROM vectors WHERE key = ?", (key,)),
                ]
            )
            self.inc("repro_catalog_removals_total")

    # -- metadata reads (never touch vectors) ----------------------------
    def keys(self) -> list[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT key FROM communities ORDER BY key"
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM communities"
            ).fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM communities WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def metadata(self, key: str) -> CatalogRecord:
        """One community's metadata row; no vector bytes are read."""
        with self._lock:
            row = self._connection.execute(
                "SELECT key, name, category, page_id, n_users, n_dims, "
                "fingerprint FROM communities WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            raise ValidationError(f"no community registered under {key!r}")
        return CatalogRecord(
            key=row[0],
            name=row[1],
            category=row[2],
            page_id=int(row[3]),
            n_users=int(row[4]),
            n_dims=int(row[5]),
            fingerprint=row[6],
        )

    def envelope(self, key: str) -> Envelope:
        """The stored per-dimension Min/Max envelope of one community."""
        with self._lock:
            row = self._connection.execute(
                "SELECT env_min, env_max FROM communities WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            raise ValidationError(f"no community registered under {key!r}")
        return Envelope(
            mins=_decode_envelope(row[0]), maxs=_decode_envelope(row[1])
        )

    def envelopes(self, keys: Iterable[str] | None = None) -> dict[str, Envelope]:
        """Stored envelopes in key order (only ``keys``'s, when given)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT key, env_min, env_max FROM communities ORDER BY key"
            ).fetchall()
        wanted = None if keys is None else set(keys)
        return {
            key: Envelope(mins=_decode_envelope(low), maxs=_decode_envelope(high))
            for key, low, high in rows
            if wanted is None or key in wanted
        }

    # -- vector reads ----------------------------------------------------
    def get(self, key: str) -> Community:
        """Load one community's vectors (the only vector-touching read)."""
        record = self.metadata(key)
        with self._lock:
            row = self._connection.execute(
                "SELECT dtype, n, d, data FROM vectors WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None:
                raise ValidationError(f"no vectors stored under {key!r}")
            self.inc("repro_catalog_vector_loads_total")
        dtype, n, d, data = row
        matrix = np.frombuffer(data, dtype=np.dtype(dtype)).reshape(
            int(n), int(d)
        )
        return Community(
            name=record.name,
            vectors=matrix,
            category=record.category,
            page_id=record.page_id,
        )

    # -- the candidate-window query --------------------------------------
    def _refine(
        self,
        probe_mins: np.ndarray,
        probe_maxs: np.ndarray,
        rows: list[tuple],
        epsilon: int,
    ) -> list[str]:
        """Stage 2: exact per-dimension screen over scanned index rows."""
        if not rows:
            return []
        keys = [row[0] for row in rows]
        mins = np.vstack([_decode_envelope(row[1]) for row in rows])
        maxs = np.vstack([_decode_envelope(row[2]) for row in rows])
        separated = ((mins - probe_maxs[None, :]) > epsilon).any(axis=1) | (
            (probe_mins[None, :] - maxs) > epsilon
        ).any(axis=1)
        return [key for key, out in zip(keys, separated) if not out]

    def window_candidates(
        self,
        envelope: Envelope,
        epsilon: int,
        *,
        exclude: str | None = None,
    ) -> list[str]:
        """Keys that survive the envelope screen against ``envelope``.

        Runs entirely on the ``communities`` table — metadata and
        envelope columns, never vectors.  The result is exactly
        ``{k : not envelopes_separated(envelope, envelope_of(k), eps)}``.
        """
        epsilon = validate_epsilon(epsilon)
        d = envelope.n_dims
        slack = epsilon * d
        probe_sum_min = int(envelope.mins.sum())
        probe_sum_max = int(envelope.maxs.sum())
        with self._lock:
            rows = self._connection.execute(
                _WINDOW_SQL, (d, probe_sum_max + slack, probe_sum_min - slack)
            ).fetchall()
            self.inc("repro_catalog_window_queries_total")
            self.inc("repro_catalog_rows_scanned_total", len(rows))
            survivors = self._refine(
                envelope.mins, envelope.maxs, rows, epsilon
            )
            if exclude is not None:
                survivors = [key for key in survivors if key != exclude]
            self.inc("repro_catalog_survivors_total", len(survivors))
        return sorted(survivors)

    def candidate_keys(self, key: str, epsilon: int) -> list[str]:
        """Which communities can have nonzero similarity with ``key``?

        The probe's own envelope comes from its metadata row, so the
        whole query — probe included — loads no vectors.
        """
        return self.window_candidates(
            self.envelope(key), epsilon, exclude=key
        )

    def candidate_pairs(
        self, epsilon: int, *, keys: Sequence[str] | None = None
    ) -> list[tuple[str, str]]:
        """All unordered pairs ``(a, b)``, ``a < b``, surviving the screen.

        One vector-free read of the envelope rows (restricted to
        ``keys`` when given) feeds the sort-and-sweep of
        :func:`~repro.engine.envelope.candidate_pairs`;
        ``repro_catalog_rows_scanned_total`` counts the rows read.
        """
        envelopes = self.envelopes(keys)
        pairs = envelope_candidates(envelopes, epsilon)
        with self._lock:
            self.inc("repro_catalog_window_queries_total")
            self.inc("repro_catalog_rows_scanned_total", len(envelopes))
            self.inc("repro_catalog_survivors_total", len(pairs))
        return pairs

    def pair_screened(self, key_b: str, key_a: str, epsilon: int) -> bool:
        """True when the stored envelopes prove zero similarity."""
        return envelopes_separated(
            self.envelope(key_b), self.envelope(key_a), validate_epsilon(epsilon)
        )

    def window_query_plan(self) -> str:
        """``EXPLAIN QUERY PLAN`` of the stage-1 scan (index audit)."""
        with self._lock:
            rows = self._connection.execute(
                "EXPLAIN QUERY PLAN " + _WINDOW_SQL, (0, 0, 0)
            ).fetchall()
        return "\n".join(str(row[-1]) for row in rows)

    # -- import ------------------------------------------------------------
    def import_directory(self, root: str | Path) -> list[str]:
        """Register every ``<key>.npz`` community archive under ``root``.

        Reads the ``<key>.npz`` + ``<key>.meta.json`` pairs of the
        directory layout (one ``community`` array per archive, as
        :func:`~repro.datasets.io.save_communities` writes it) and
        registers them all in one transaction, so an unreadable or
        foreign archive registers nothing.
        """
        root = Path(root)
        if not root.is_dir():
            raise ValidationError(f"no directory to import at {root}")
        imported: dict[str, Community] = {}
        for path in sorted(root.glob("*.npz")):
            archive = load_communities(path)
            if list(archive) != ["community"]:
                raise ValidationError(
                    f"{path} is not a community archive: it holds "
                    f"{sorted(archive)}, not one 'community' array"
                )
            imported[path.stem] = archive["community"]
        if imported:
            self.register_many(imported)
        return sorted(imported)

    # -- accounting --------------------------------------------------------
    def io_stats(self) -> dict[str, int]:
        """Snapshot of the handle's IO/query counters (plain ints)."""
        with self._lock:
            return dict(self._counters)

    def storage_stats(self) -> dict[str, int]:
        """On-disk accounting: row counts and total vector bytes."""
        with self._lock:
            (communities,) = self._connection.execute(
                "SELECT COUNT(*) FROM communities"
            ).fetchone()
            (vector_bytes,) = self._connection.execute(
                "SELECT COALESCE(SUM(LENGTH(data)), 0) FROM vectors"
            ).fetchone()
        return {"communities": int(communities), "vector_bytes": int(vector_bytes)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PersistentCatalog(path={str(self.path)!r}, communities={len(self)})"
