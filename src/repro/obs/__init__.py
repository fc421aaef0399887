"""Observability: metrics, stage timers and per-join telemetry.

The join pipeline answers questions like "what fraction of pairs did
the envelope screen discard, what did matching cost versus encoding,
did the cache actually help" through three cooperating pieces:

* :class:`MetricsRegistry` — a process-local registry of counters,
  gauges and histograms.  Every hot-path hook takes ``metrics=None``
  and reduces to a single ``is not None`` test when observability is
  off, so the disabled overhead is near zero.
* :func:`stage_timer` / :class:`StageClock` — nestable wall-clock
  stage timers.  Nested stages record dotted paths (``join.pairing``)
  so per-stage cost decomposes against the enclosing total.
* :class:`JoinTelemetry` — one record per resolved pair job (events by
  type, disposition, cache/screen flags, per-stage seconds), exported
  as JSON lines and summarised by ``repro-csj stats``.

The serve layer's executor threads record each request into a scratch
registry and ship its snapshot back to the event loop, which merges it
(:meth:`MetricsRegistry.merge`) into the server's registry, so the
shared registry is only ever written from one thread.
"""

from .registry import (
    DISABLED,
    Histogram,
    MetricsRegistry,
    null_timer,
)
from .timers import StageClock, stage_timer
from .telemetry import (
    JoinTelemetry,
    TelemetrySummary,
    read_jsonl,
    summarize_records,
    write_jsonl,
)

__all__ = [
    "DISABLED",
    "Histogram",
    "MetricsRegistry",
    "null_timer",
    "StageClock",
    "stage_timer",
    "JoinTelemetry",
    "TelemetrySummary",
    "read_jsonl",
    "summarize_records",
    "write_jsonl",
]
