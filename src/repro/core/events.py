"""Pairing-event machinery (Section 4 of the paper).

During the pairing process of a ``b in B`` with an ``a in A`` the MinMax
algorithms (and, in reduced form, the baselines) yield five kinds of
events:

``MIN_PRUNE``
    The current ``b`` cannot be matched with any ``a'`` whose
    ``encoded_Min`` is at least the current ``a``'s — stop scanning and
    move to the next ``b``.
``MAX_PRUNE``
    The current ``a`` cannot be matched with any later ``b'`` (their
    encoded IDs only grow) — it can be skipped for good.
``NO_OVERLAP``
    Some part sum of ``b`` falls outside the corresponding range of
    ``a``; the full d-dimensional comparison is skipped.
``NO_MATCH``
    The full comparison ran and found a dimension with absolute
    difference above epsilon.
``MATCH``
    The full comparison succeeded.

:class:`EventTrace` optionally records each event with labels so the
walkthroughs of Figures 2 and 3 can be regenerated verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.registry import null_timer
from ..obs.timers import StageClock
from .types import EventCounts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["EventType", "TraceEvent", "EventTrace"]

#: Counter family every trace mirrors its events into (label: ``type``).
EVENTS_METRIC = "repro_core_events_total"


class EventType(enum.Enum):
    """The five pairing events of Section 4."""

    MIN_PRUNE = "MIN PRUNE"
    MAX_PRUNE = "MAX PRUNE"
    NO_OVERLAP = "NO OVERLAP"
    NO_MATCH = "NO MATCH"
    MATCH = "MATCH"


_COUNTER_FIELD = {
    EventType.MIN_PRUNE: "min_prune",
    EventType.MAX_PRUNE: "max_prune",
    EventType.NO_OVERLAP: "no_overlap",
    EventType.NO_MATCH: "no_match",
    EventType.MATCH: "match",
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded pairing event.

    ``b_label``/``a_label`` are display names such as ``"b2:48"`` and
    ``"a3:(42, 72)"`` matching the notation of Figures 2 and 3;
    ``detail`` carries extra context, e.g. ``"maxV = 73"`` or
    ``"CSF(<b1, a1>, <b1, a3>)"``.
    """

    kind: EventType
    b_label: str = ""
    a_label: str = ""
    detail: str = ""

    def format(self) -> str:
        parts = []
        if self.b_label and self.a_label:
            connector = "<" if self.kind is EventType.MIN_PRUNE else (
                ">" if self.kind is EventType.MAX_PRUNE else "IN"
            )
            parts.append(f"* {self.b_label} {connector} {self.a_label}")
        elif self.b_label or self.a_label:
            parts.append(f"* {self.b_label or self.a_label}")
        parts.append(f"=> {self.kind.value}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


@dataclass
class EventTrace:
    """Accumulates event counters and (optionally) a readable trace.

    The counters are always maintained; full :class:`TraceEvent` records
    are kept only when ``record=True`` so that large joins pay no memory
    cost for tracing.

    When a :class:`~repro.obs.registry.MetricsRegistry` is attached the
    trace also mirrors every event into the ``repro_core_events_total`` counter
    family (labelled by type) and offers nestable :meth:`stage` timers
    whose wall times land both in the registry and in
    :attr:`stage_seconds` for the per-join telemetry record.  With no
    registry both paths cost a single ``is None`` test.
    """

    record: bool = False
    counts: EventCounts = field(default_factory=EventCounts)
    events: list[TraceEvent] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: "MetricsRegistry | None" = None
    clock: StageClock | None = field(default=None, repr=False)

    def emit(
        self,
        kind: EventType,
        b_label: str = "",
        a_label: str = "",
        detail: str = "",
    ) -> None:
        """Count an event and, if recording, store its trace entry."""
        attr = _COUNTER_FIELD[kind]
        setattr(self.counts, attr, getattr(self.counts, attr) + 1)
        if self.metrics is not None:
            self.metrics.inc(EVENTS_METRIC, 1, type=attr)
        if self.record:
            self.events.append(TraceEvent(kind, b_label, a_label, detail))

    def emit_bulk(self, kind: EventType, times: int) -> None:
        """Count ``times`` occurrences at once (used by numpy engines)."""
        if times <= 0:
            return
        attr = _COUNTER_FIELD[kind]
        setattr(self.counts, attr, getattr(self.counts, attr) + int(times))
        if self.metrics is not None:
            self.metrics.inc(EVENTS_METRIC, int(times), type=attr)

    def stage(self, name: str):
        """Nestable stage timer (no-op unless a registry is attached)."""
        if self.metrics is None:
            return null_timer()
        if self.clock is None:
            self.clock = StageClock(self.metrics)
        return self.clock.stage(name)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall times recorded through :meth:`stage` so far."""
        return self.clock.stage_seconds if self.clock is not None else {}

    def note(self, text: str) -> None:
        """Record free-form context, e.g. a CSF invocation (Figure 3)."""
        if self.record:
            self.notes.append(text)

    def format(self) -> str:
        """Render the recorded trace in the style of Figures 2/3."""
        lines = [event.format() for event in self.events]
        if self.notes:
            lines.append("")
            lines.extend(self.notes)
        return "\n".join(lines)
