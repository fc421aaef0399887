"""Process-local metrics registry: counters, gauges, histograms.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Instrumented call sites take
   ``metrics: MetricsRegistry | None`` and guard with a single
   ``is not None`` test; no registry object ever exists on the disabled
   path.  ``DISABLED`` (``None``) names that convention.
2. **Mergeable.**  Registries serialise to plain-dict snapshots;
   :meth:`MetricsRegistry.merge` folds a snapshot into another registry
   (counters and histograms add, gauges last-write).  This is how the
   serve layer's per-request scratch registries, filled on executor
   threads, reach the server's registry on the event loop, and how
   ``repro-csj stats --prometheus`` rebuilds a run log's metrics.
3. **Readable at the edges.**  :meth:`MetricsRegistry.snapshot` is
   JSON-ready for the run logs; :meth:`MetricsRegistry.to_prometheus`
   emits the text exposition format for scraping or eyeballing.

Metrics are keyed by ``(name, sorted labels)``.  The registry is not
thread-safe: the engine runs on its caller's thread, and each serve
request owns its scratch registry until the loop merges it.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Iterator, Mapping

__all__ = ["DISABLED", "Histogram", "MetricsRegistry", "null_timer"]

#: The disabled-observability sentinel: pass ``metrics=DISABLED`` (or
#: simply omit the argument) and every hook reduces to one ``is None``
#: test.
DISABLED = None

#: ``(name, ((label, value), ...))`` — the internal metric key.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram buckets, tuned for stage wall-times in seconds:
#: 10us .. ~100s in half-decade steps (+inf is implicit).
DEFAULT_BUCKETS = (
    1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3,
    1e-2, 3.16e-2, 1e-1, 3.16e-1, 1.0, 3.16, 10.0, 31.6, 100.0,
)


def _key(name: str, labels: Mapping[str, object]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    __slots__ = ("buckets", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def merge(self, payload: Mapping[str, object]) -> None:
        """Fold a snapshot payload of a same-bucket histogram into this one."""
        counts = list(payload["bucket_counts"])  # type: ignore[arg-type]
        if len(counts) != len(self.bucket_counts):
            raise ValueError("cannot merge histograms with different buckets")
        for index, extra in enumerate(counts):
            self.bucket_counts[index] += int(extra)
        self.count += int(payload["count"])  # type: ignore[arg-type]
        self.total += float(payload["sum"])  # type: ignore[arg-type]
        self.minimum = min(self.minimum, float(payload["min"]))  # type: ignore[arg-type]
        self.maximum = max(self.maximum, float(payload["max"]))  # type: ignore[arg-type]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
        }


class _NullTimer(AbstractContextManager):
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __exit__(self, *_exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


def null_timer() -> _NullTimer:
    """The shared no-op timer (what ``stage_timer`` returns when off)."""
    return _NULL_TIMER


class MetricsRegistry:
    """Registry of named counters, gauges and histograms.

    All update methods accept keyword labels, so one logical metric can
    fan out over e.g. event types: ``inc("repro_core_events_total", 3,
    type="MATCH")``.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- updates -------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` to a counter (created at 0 on first use)."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to an instantaneous value."""
        self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into a histogram."""
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = Histogram()
            self._histograms[key] = histogram
        histogram.observe(value)

    # -- reads ---------------------------------------------------------
    def counter(self, name: str, **labels: object) -> float:
        return self._counters.get(_key(name, labels), 0)

    def gauge(self, name: str, **labels: object) -> float | None:
        return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Histogram | None:
        return self._histograms.get(_key(name, labels))

    def counters_by_label(self, name: str, label: str) -> dict[str, float]:
        """All values of a counter family, keyed by one label's value."""
        out: dict[str, float] = {}
        for (metric, labels), value in self._counters.items():
            if metric != name:
                continue
            for key, label_value in labels:
                if key == label:
                    out[label_value] = out.get(label_value, 0) + value
        return out

    def __iter__(self) -> Iterator[MetricKey]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-ready snapshot of everything recorded so far."""

        def encode(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{rendered}}}"

        return {
            "counters": {encode(k): v for k, v in sorted(self._counters.items())},
            "gauges": {encode(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                encode(k): h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry | Mapping[str, object]") -> None:
        """Fold another registry (or its snapshot) into this one.

        Counters and histograms add; gauges take the other side's value
        (last write wins).  This is the worker-to-parent aggregation
        path, so merging must be insensitive to arrival order for the
        additive kinds.
        """
        if isinstance(other, MetricsRegistry):
            for key, value in other._counters.items():
                self._counters[key] = self._counters.get(key, 0) + value
            self._gauges.update(other._gauges)
            for key, histogram in other._histograms.items():
                mine = self._histograms.get(key)
                if mine is None:
                    mine = Histogram(histogram.buckets)
                    self._histograms[key] = mine
                mine.merge(histogram.as_dict())
            return
        for encoded, value in other.get("counters", {}).items():  # type: ignore[union-attr]
            key = _decode(encoded)
            self._counters[key] = self._counters.get(key, 0) + value
        for encoded, value in other.get("gauges", {}).items():  # type: ignore[union-attr]
            self._gauges[_decode(encoded)] = value
        for encoded, payload in other.get("histograms", {}).items():  # type: ignore[union-attr]
            key = _decode(encoded)
            mine = self._histograms.get(key)
            if mine is None:
                mine = Histogram(tuple(payload["buckets"]))
                self._histograms[key] = mine
            mine.merge(payload)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- rendering -----------------------------------------------------
    def to_prometheus(self) -> str:
        """Text exposition format (one line per sample, sorted)."""

        def render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{name}{render_labels(labels)} {_num(value)}")
        for (name, labels), value in sorted(self._gauges.items()):
            type_line(name, "gauge")
            lines.append(f"{name}{render_labels(labels)} {_num(value)}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = 0
            for edge, count in zip(histogram.buckets, histogram.bucket_counts):
                cumulative += count
                le = 'le="' + _num(edge) + '"'
                lines.append(
                    f"{name}_bucket{render_labels(labels, le)} {cumulative}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{name}_bucket{render_labels(labels, inf)} {histogram.count}"
            )
            lines.append(f"{name}_sum{render_labels(labels)} {_num(histogram.total)}")
            lines.append(f"{name}_count{render_labels(labels)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def _num(value: float) -> str:
    """Render a number the way Prometheus expects (no trailing .0 noise)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _decode(encoded: str) -> MetricKey:
    """Inverse of the snapshot encoding: ``name{k=v,...}`` to a key."""
    if "{" not in encoded:
        return (encoded, ())
    name, _, rest = encoded.partition("{")
    body = rest.rstrip("}")
    labels = tuple(
        tuple(pair.split("=", 1)) for pair in body.split(",") if pair
    )
    return (name, labels)  # type: ignore[return-value]
