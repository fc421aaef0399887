"""Crash-safe sweep checkpointing: a JSON-lines log of finished joins.

A long sweep that dies (power loss, OOM kill, Ctrl-C) used to restart
from zero.  :class:`CheckpointLog` makes completion durable: every
computed join appends one line — the content-addressed
:data:`~repro.engine.cache.JoinKey` plus the result payload — flushed
immediately, so the log survives a kill mid-run with at worst one
truncated trailing line (which :meth:`CheckpointLog.load` skips).

On resume the engine pre-warms its :class:`~repro.engine.cache.
JoinResultCache` from the log; finished pairs are then served as
``CACHED`` dispositions and recomputed exactly never.  Keys are content
fingerprints, not object identities, so a resumed run may regenerate
its datasets from scratch and still hit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO

from ..core.types import CSJResult
from .cache import JoinKey

__all__ = ["CheckpointLog"]

_KIND = "join-checkpoint"


def _encode_value(tagged: tuple) -> list:
    """JSON-encode one ``(type_tag, value)`` canonical-option value."""
    tag, value = tagged
    if tag == "bytes":
        return [tag, value.decode("latin1")]
    return [tag, value]


def _decode_value(encoded: list) -> tuple:
    tag, value = encoded
    if tag == "bytes":
        return (tag, value.encode("latin1"))
    return (tag, value)


def encode_join_key(key: JoinKey) -> list:
    """JSON-ready form of a :data:`JoinKey` (tuples become lists)."""
    fingerprint_b, fingerprint_a, epsilon, method, options = key
    return [
        fingerprint_b,
        fingerprint_a,
        epsilon,
        method,
        [[name, _encode_value(tagged)] for name, tagged in options],
    ]


def decode_join_key(encoded: list) -> JoinKey:
    """Inverse of :func:`encode_join_key`."""
    fingerprint_b, fingerprint_a, epsilon, method, options = encoded
    return (
        str(fingerprint_b),
        str(fingerprint_a),
        int(epsilon),
        str(method),
        tuple((name, _decode_value(tagged)) for name, tagged in options),
    )


def open_for_append(path: Path) -> IO[str]:
    """Open a JSON-lines log for appending, starting on a fresh line.

    A writer killed mid-line leaves a torn last line with no newline;
    a line appended straight after it would be glued onto the fragment
    and lost with it when the log is read back.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    torn = False
    if path.exists() and path.stat().st_size:
        with path.open("rb") as tail:
            tail.seek(-1, os.SEEK_END)
            torn = tail.read(1) != b"\n"
    handle = path.open("a", encoding="utf-8")
    if torn:
        handle.write("\n")
    return handle


class CheckpointLog:
    """Append-only JSON-lines log of completed ``(JoinKey, result)``.

    ``append`` opens the file lazily (append mode, so resuming onto an
    existing log extends it) and flushes every line; ``load`` tolerates
    a truncated final line, the signature of a crash mid-write.  The
    same path can therefore be passed to every run of a sweep: first
    run creates it, a killed run leaves a valid prefix, the resumed run
    loads that prefix and extends it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None

    def load(self) -> dict[JoinKey, dict]:
        """All completed joins recorded so far (last write wins per key)."""
        if not self.path.exists():
            return {}
        entries: dict[JoinKey, dict] = {}
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    # A torn trailing line from a crash mid-append; the
                    # join it described simply re-runs.
                    continue
                if payload.get("kind") != _KIND:
                    continue
                entries[decode_join_key(payload["key"])] = payload["result"]
        return entries

    def append(self, key: JoinKey, result: CSJResult) -> None:
        """Durably record one completed join (one flushed JSON line)."""
        if self._file is None:
            self._file = open_for_append(self.path)
        self._file.write(
            json.dumps(
                {
                    "kind": _KIND,
                    "key": encode_join_key(key),
                    "result": result.to_dict(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "CheckpointLog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointLog({str(self.path)!r})"
