"""Tests for the observability subsystem (repro.obs).

Covers the registry primitives (counters/gauges/histograms, snapshot
and merge), the nestable stage timers, the JSON-lines telemetry format,
and the *accuracy* of the mirrored counters: the registry must agree
with the independent ground truth kept by the join cache and by the
``CSJResult`` event counts, including across an LRU eviction boundary.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.events import EVENTS_METRIC
from repro.engine import BatchEngine, Disposition, JoinResultCache, PairJob
from repro.obs import (
    DISABLED,
    Histogram,
    JoinTelemetry,
    MetricsRegistry,
    StageClock,
    null_timer,
    read_jsonl,
    stage_timer,
    summarize_records,
    write_jsonl,
)
from repro.testing import banded_community_fleet

from tests.test_engine import all_pair_jobs


def sample_records() -> list[JoinTelemetry]:
    return [
        JoinTelemetry(
            first=0,
            second=1,
            method="ex-minmax",
            epsilon=1,
            disposition="computed",
            similarity=0.5,
            n_matched=6,
            size_b=12,
            size_a=14,
            swapped=False,
            screened=False,
            cache_hit=False,
            events={"match": 6, "no_match": 10},
            pairs_examined=16,
            comparisons=16,
            stage_seconds={"join": 0.01, "join.pairing": 0.008},
            elapsed_seconds=0.009,
            engine="numpy",
        ),
        JoinTelemetry(
            first=0,
            second=2,
            method="ex-minmax",
            epsilon=1,
            disposition="screened",
            similarity=0.0,
            n_matched=0,
            size_b=12,
            size_a=12,
            swapped=False,
            screened=True,
            cache_hit=False,
        ),
    ]


class TestRegistry:
    def test_counters_with_labels(self):
        registry = MetricsRegistry()
        registry.inc("events", 2, type="match")
        registry.inc("events", type="match")
        registry.inc("events", 5, type="no_match")
        registry.inc("plain")
        assert registry.counter("events", type="match") == 3
        assert registry.counter("events", type="no_match") == 5
        assert registry.counter("plain") == 1
        assert registry.counter("missing") == 0
        assert registry.counters_by_label("events", "type") == {
            "match": 3,
            "no_match": 5,
        }

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("entries", 3)
        registry.set_gauge("entries", 7)
        assert registry.gauge("entries") == 7.0
        assert registry.gauge("missing") is None

    def test_histogram_bookkeeping(self):
        histogram = Histogram()
        for value in (0.002, 0.02, 0.02, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(5.042)
        assert histogram.minimum == 0.002
        assert histogram.maximum == 5.0
        assert histogram.mean == pytest.approx(5.042 / 4)
        assert sum(histogram.bucket_counts) == histogram.count

    def test_histogram_overflow_lands_in_inf_bucket(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(99.0)
        assert histogram.bucket_counts == [0, 0, 1]

    def test_merge_registry_is_additive(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("jobs", 2, kind="a")
        right.inc("jobs", 3, kind="a")
        right.inc("jobs", 1, kind="b")
        left.observe("seconds", 0.1)
        right.observe("seconds", 0.3)
        right.set_gauge("entries", 9)
        left.merge(right)
        assert left.counter("jobs", kind="a") == 5
        assert left.counter("jobs", kind="b") == 1
        assert left.histogram("seconds").count == 2
        assert left.histogram("seconds").total == pytest.approx(0.4)
        assert left.gauge("entries") == 9.0

    def test_merge_snapshot_roundtrip(self):
        source = MetricsRegistry()
        source.inc("events", 4, type="match")
        source.inc("bare", 2)
        source.set_gauge("entries", 5, cache="main")
        source.observe("seconds", 0.25, stage="join")
        rebuilt = MetricsRegistry()
        rebuilt.merge(source.snapshot())
        assert rebuilt.snapshot() == source.snapshot()
        # JSON round-trip (the worker snapshots travel through pickle,
        # the run logs through JSON).
        rebuilt_json = MetricsRegistry()
        rebuilt_json.merge(json.loads(json.dumps(source.snapshot())))
        assert rebuilt_json.snapshot() == source.snapshot()

    def test_merge_order_independent_for_additive_kinds(self):
        parts = []
        for index in range(3):
            registry = MetricsRegistry()
            registry.inc("jobs", index + 1)
            # Powers of two sum exactly in any order.
            registry.observe("seconds", 0.25 * 2**index)
            parts.append(registry.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward.snapshot() == backward.snapshot()

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("jobs")
        registry.set_gauge("entries", 1)
        registry.observe("seconds", 0.1)
        registry.clear()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("repro_core_events_total", 3, type="match")
        registry.set_gauge("cache_entries", 2)
        registry.observe("repro_obs_stage_seconds", 0.02, stage="join")
        text = registry.to_prometheus()
        assert "# TYPE repro_core_events_total counter" in text
        assert 'repro_core_events_total{type="match"} 3' in text
        assert "# TYPE cache_entries gauge" in text
        assert "cache_entries 2" in text
        assert "# TYPE repro_obs_stage_seconds histogram" in text
        assert 'repro_obs_stage_seconds_bucket{stage="join",le="+Inf"} 1' in text
        assert 'repro_obs_stage_seconds_count{stage="join"} 1' in text
        # Cumulative buckets are monotone and end at the count.
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_obs_stage_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == 1

    def test_disabled_sentinel_and_null_timer(self):
        assert DISABLED is None
        assert stage_timer(DISABLED, "anything") is null_timer()
        with null_timer():
            pass  # no-op, reusable


class TestStageTimers:
    def test_nested_paths_are_dotted(self):
        registry = MetricsRegistry()
        clock = StageClock(registry)
        with clock.stage("join"):
            with clock.stage("pairing"):
                with clock.stage("encode"):
                    pass
            with clock.stage("matching"):
                pass
        assert set(clock.stage_seconds) == {
            "join",
            "join.pairing",
            "join.pairing.encode",
            "join.matching",
        }

    def test_children_sum_at_most_parent(self):
        registry = MetricsRegistry()
        clock = StageClock(registry)
        with clock.stage("join"):
            for _ in range(3):
                with clock.stage("pairing"):
                    sum(range(500))
            with clock.stage("validate"):
                pass
        seconds = clock.stage_seconds
        children = seconds["join.pairing"] + seconds["join.validate"]
        assert children <= seconds["join"] + 1e-9

    def test_disabled_clock_records_nothing(self):
        clock = StageClock(None)
        assert clock.stage("join") is null_timer()
        assert clock.enabled is False
        assert clock.stage_seconds == {}

    def test_stage_timer_observes_into_registry(self):
        registry = MetricsRegistry()
        with stage_timer(registry, "batch.execute"):
            pass
        histogram = registry.histogram("repro_obs_stage_seconds", stage="batch.execute")
        assert histogram is not None and histogram.count == 1


class TestTelemetryIO:
    def test_jsonl_roundtrip_with_header_and_snapshot(self, tmp_path):
        records = sample_records()
        registry = MetricsRegistry()
        registry.inc("repro_engine_jobs_total", 2, disposition="computed")
        path = tmp_path / "run.jsonl"
        summary = write_jsonl(
            path,
            records,
            header={"command": "topk", "k": 3},
            snapshot=registry.snapshot(),
        )
        header, parsed, trailer = read_jsonl(path)
        assert header["command"] == "topk" and header["k"] == 3
        assert parsed == records
        assert trailer["n_joins"] == summary.n_joins == 2
        assert trailer["metrics"] == registry.snapshot()
        assert summary.dispositions == {"computed": 1, "screened": 1}
        assert summary.events == {"match": 6, "no_match": 10}
        assert summary.matched_pairs == 6

    def test_jsonl_accepts_streams_and_ignores_unknown_kinds(self):
        stream = io.StringIO()
        write_jsonl(stream, sample_records())
        stream.write(json.dumps({"kind": "future-extension", "x": 1}) + "\n")
        stream.seek(0)
        header, parsed, trailer = read_jsonl(stream)
        assert header is None
        assert len(parsed) == 2
        assert trailer["kind"] == "summary"

    def test_summary_render_mentions_the_essentials(self):
        summary = summarize_records(sample_records())
        text = summary.render()
        assert "joins: 2" in text
        assert "computed=1" in text and "screened=1" in text
        assert "match" in text and "join.pairing" in text


class TestTelemetryAccuracy:
    """The mirrored counters must match independent ground truth."""

    def test_cache_counters_match_across_eviction_boundary(self):
        registry = MetricsRegistry()
        cache = JoinResultCache(max_entries=2, metrics=registry)
        fleet = banded_community_fleet(1, 4)
        jobs = all_pair_jobs(fleet)  # 6 distinct joins > capacity 2
        with BatchEngine(fleet, cache=cache, screen=False) as engine:
            engine.run(jobs)
            engine.run(jobs)  # partial hits: most entries were evicted
        assert cache.evictions > 0, "workload must cross the LRU boundary"
        assert registry.counter("repro_engine_cache_hits_total") == cache.hits
        assert registry.counter("repro_engine_cache_misses_total") == cache.misses
        assert registry.counter("repro_engine_cache_evictions_total") == cache.evictions
        assert registry.gauge("repro_engine_cache_entries") == len(cache)

    def test_event_counters_match_computed_results_serial(self):
        registry = MetricsRegistry()
        fleet = banded_community_fleet(2, 2)
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet, metrics=registry) as engine:
            outcomes = engine.run(jobs)
        expected: dict[str, int] = {}
        for outcome in outcomes:
            if outcome.disposition is Disposition.COMPUTED:
                for name, count in outcome.result.events.as_dict().items():
                    expected[name] = expected.get(name, 0) + count
        mirrored = registry.counters_by_label(EVENTS_METRIC, "type")
        assert mirrored == {k: v for k, v in expected.items() if v}

    def test_stage_nesting_sums_below_join_wall_time(self):
        registry = MetricsRegistry()
        fleet = banded_community_fleet(1, 2, users=40)
        with BatchEngine(fleet, metrics=registry) as engine:
            outcome = engine.run([PairJob.build(0, 1, "ex-minmax", 2)])[0]
        seconds = outcome.result.stage_seconds
        assert seconds, "computed join must carry stage timings"
        # Per level: the direct children of any stage ran inside their
        # parent's interval, so their times sum to at most the parent's.
        for parent, parent_seconds in seconds.items():
            children = sum(
                child_seconds
                for child, child_seconds in seconds.items()
                if child.startswith(parent + ".") and "." not in child[len(parent) + 1 :]
            )
            assert children <= parent_seconds + 1e-9
        # The pairing stage wraps the same interval ``elapsed_seconds``
        # measures a superset of.
        assert seconds["join.pairing"] <= outcome.result.elapsed_seconds + 1e-9

    def test_disposition_counters_match_engine_stats(self):
        registry = MetricsRegistry()
        cache = JoinResultCache(max_entries=64)
        fleet = banded_community_fleet()
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet, cache=cache, metrics=registry) as engine:
            engine.run(jobs)
            engine.run(jobs)
        stats = engine.stats()
        by_disposition = registry.counters_by_label(
            "repro_engine_jobs_total", "disposition"
        )
        assert by_disposition.get("computed", 0) == stats["computed"]
        assert by_disposition.get("screened", 0) == stats["screened"]
        assert by_disposition.get("cached", 0) == stats["cached"]
        assert registry.counter("repro_engine_envelope_tests_total") > 0
        assert (
            registry.counter("repro_engine_envelope_separations_total") == stats["screened"]
        )

    def test_disabled_engine_emits_nothing(self):
        fleet = banded_community_fleet(1, 2)
        with BatchEngine(fleet) as engine:
            outcome = engine.run([PairJob.build(0, 1, "ex-minmax", 2)])[0]
        assert engine.telemetry == []
        assert outcome.result.stage_seconds == {}
