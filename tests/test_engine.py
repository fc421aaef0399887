"""Tests for the batch execution engine (repro.engine)."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.catalog import PersistentCatalog
from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    SizeRatioError,
    UnknownAlgorithmError,
    ValidationError,
)
from repro.core.types import Community, MatchedPair
from repro.engine import (
    BatchEngine,
    Disposition,
    JoinResultCache,
    PairJob,
    PairOutcome,
    canonical_options,
    decoded_options,
    community_envelope,
    community_fingerprint,
    envelopes_separated,
    join_key,
    matrix_fingerprint,
)
from repro.engine.envelope import stack_envelopes, surviving_pairs
from repro.obs import MetricsRegistry, summarize_records
from repro.testing import banded_community_fleet as banded_fleet
from repro.testing import brute_force_candidate_pairs


def all_pair_jobs(
    fleet: list[Community], method: str = "ex-minmax", epsilon: int = 2
) -> list[PairJob]:
    n = len(fleet)
    return [
        PairJob.build(i, j, method, epsilon)
        for i in range(n)
        for j in range(i + 1, n)
    ]


def comparable(outcomes) -> list[tuple]:
    """Result payloads without the timing fields."""
    rows = []
    for outcome in outcomes:
        result = outcome.result
        rows.append(
            (
                result.method,
                result.size_b,
                result.size_a,
                round(result.similarity, 12),
                tuple(result.pair_tuples()),
                result.swapped,
            )
        )
    return rows


class TestBatchDeterminism:
    def test_mixed_methods_in_one_batch(self):
        fleet = banded_fleet(2, 3)
        jobs = [
            PairJob.build(0, 1, "ap-minmax", 2),
            PairJob.build(0, 1, "ex-minmax", 2),
            PairJob.build(1, 2, "ex-baseline", 2),
        ]
        with BatchEngine(fleet, screen=False) as engine:
            outcomes = engine.run(jobs)
        # One batch of mixed methods answers each job as a direct join would.
        direct = [
            get_algorithm(job.method, job.epsilon).join(
                fleet[job.first], fleet[job.second]
            )
            for job in jobs
        ]
        assert comparable(outcomes) == comparable(
            PairOutcome(job, Disposition.COMPUTED, result)
            for job, result in zip(jobs, direct)
        )
        assert [o.result.method for o in outcomes] == [
            "ap-minmax",
            "ex-minmax",
            "ex-baseline",
        ]


class TestGroupedExecution:
    """One ``run`` joins each (method, epsilon, options) group of its
    computed jobs in one ``join_many`` call, and every job keeps its own
    outcome, checkpoint line and telemetry record."""

    def test_mixed_dispositions_of_two_methods(self, tmp_path, monkeypatch):
        fleet = banded_fleet(2, 3, users=10)
        log = tmp_path / "joins.jsonl"
        registry = MetricsRegistry()
        calls: list[tuple[str, int]] = []
        for name in ("ap-minmax", "ex-minmax"):
            cls = type(get_algorithm(name, 2))
            join_many = cls.join_many

            def counted(algorithm, pairs, _join_many=join_many, **kwargs):
                pairs = list(pairs)
                calls.append((algorithm.name, len(pairs)))
                return _join_many(algorithm, pairs, **kwargs)

            monkeypatch.setattr(cls, "join_many", counted)
        warm = [PairJob.build(0, 1, "ap-minmax", 2), PairJob.build(3, 4, "ex-minmax", 2)]
        jobs = [
            PairJob.build(0, 1, "ap-minmax", 2),  # cached
            PairJob.build(0, 2, "ex-minmax", 2),
            PairJob.build(0, 3, "ap-minmax", 2),  # screened: different bands
            PairJob.build(2, 1, "ap-minmax", 2),
            PairJob.build(3, 4, "ex-minmax", 2),  # cached
            PairJob.build(5, 4, "ap-minmax", 2),
            PairJob.build(1, 5, "ex-minmax", 2),  # screened
            PairJob.build(4, 5, "ex-minmax", 2),
            PairJob.build(3, 5, "ap-minmax", 2),
        ]
        with BatchEngine(fleet, cache=16, metrics=registry, checkpoint=log) as engine:
            engine.run(warm)
            calls.clear()
            outcomes = engine.run(jobs)
            records = engine.telemetry[len(warm) :]
        assert [outcome.job for outcome in outcomes] == jobs
        expected = [
            "cached", "computed", "screened", "computed", "cached",
            "computed", "screened", "computed", "computed",
        ]
        assert [outcome.disposition.value for outcome in outcomes] == expected
        # One call per method, holding that method's computed jobs.
        assert sorted(calls) == [("ap-minmax", 3), ("ex-minmax", 2)]
        for outcome in outcomes:
            job = outcome.job
            alone = get_algorithm(job.method, job.epsilon).join(
                fleet[job.first], fleet[job.second]
            )
            assert outcome.result.pair_tuples() == alone.pair_tuples()
            assert outcome.result.swapped == alone.swapped
            if outcome.disposition is not Disposition.SCREENED:
                assert outcome.result.events == alone.events
        # One checkpoint line per computed job of both runs.
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        computed = warm + [
            job for job, kind in zip(jobs, expected) if kind == "computed"
        ]
        assert len(lines) == len(computed)
        resumed = BatchEngine(fleet, checkpoint=log)
        assert resumed.resumed_count == len(computed)
        resumed.close()
        # One telemetry record per job, in input order.
        assert [
            (record.first, record.second, record.method, record.disposition)
            for record in records
        ] == [(job.first, job.second, job.method, kind) for job, kind in zip(jobs, expected)]
        for record, outcome in zip(records, outcomes):
            assert record.n_matched == outcome.result.n_matched
            if record.disposition == "computed":
                assert record.stage_seconds["join.pairing"] <= record.elapsed_seconds
                assert "join.pairing.enumerate" in record.stage_seconds


class TestEnvelopeScreen:
    def test_screened_pairs_have_zero_similarity_by_direct_join(self):
        fleet = banded_fleet()
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet, screen=True) as engine:
            outcomes = engine.run(jobs)
        screened = [o for o in outcomes if o.disposition is Disposition.SCREENED]
        assert screened, "band structure should trigger the pre-screen"
        with BatchEngine(fleet, screen=False) as verifier:
            direct = verifier.run([o.job for o in screened])
        for screened_outcome, direct_outcome in zip(screened, direct):
            assert direct_outcome.result.similarity == 0.0
            assert direct_outcome.result.n_matched == 0
            assert screened_outcome.result.similarity == 0.0
            assert screened_outcome.result.pairs == []

    def test_screen_on_and_off_rank_identically(self):
        fleet = banded_fleet()
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet, screen=True) as yes:
            with BatchEngine(fleet, screen=False) as no:
                similarities_yes = [o.result.similarity for o in yes.run(jobs)]
                similarities_no = [o.result.similarity for o in no.run(jobs)]
        assert similarities_yes == similarities_no

    def test_screen_respects_epsilon(self):
        close = Community("close", np.array([[0, 0], [1, 1]]))
        far = Community("far", np.array([[10, 10], [11, 11]]))
        env_close, env_far = community_envelope(close), community_envelope(far)
        assert envelopes_separated(env_close, env_far, epsilon=5)
        assert not envelopes_separated(env_close, env_far, epsilon=9)
        assert not envelopes_separated(env_close, env_close, epsilon=0)

    @pytest.mark.parametrize("dims_a", [1, 2, 4])
    def test_mixed_dimensions_raise(self, dims_a):
        # d 1 against d 3 would broadcast silently; d 2 would not broadcast.
        first = community_envelope(Community("three", np.zeros((2, 3), dtype=np.int64)))
        second = community_envelope(
            Community("other", np.zeros((2, dims_a), dtype=np.int64))
        )
        with pytest.raises(DimensionMismatchError):
            envelopes_separated(first, second, epsilon=1)

    def test_screened_disposition_counted(self):
        fleet = banded_fleet(2, 2)
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet, screen=True) as engine:
            outcomes = engine.run(jobs)
            screened = sum(
                1 for o in outcomes if o.disposition is Disposition.SCREENED
            )
            assert engine.stats()["screened"] == screened == 4  # cross-band pairs


class TestVectorisedScreen:
    def test_surviving_pairs_matches_scalar(self):
        fleet = banded_fleet(3, 2, band_gap=30, high=25)
        envelopes = [community_envelope(c) for c in fleet]
        mins, maxs = stack_envelopes(envelopes)
        for epsilon in (0, 1, 5, 40):
            first, second = surviving_pairs(mins, maxs, epsilon)
            assert list(zip(first.tolist(), second.tolist())) == [
                (i, j)
                for i in range(len(fleet))
                for j in range(i + 1, len(fleet))
                if not envelopes_separated(envelopes[i], envelopes[j], epsilon)
            ]

    def test_long_job_lists_screen_identically(self):
        """A long job list screens every pair; counters match the verdicts."""
        fleet = banded_fleet(4, 3)  # 12 communities, 66 pairs >= threshold
        jobs = all_pair_jobs(fleet)
        serial_metrics = MetricsRegistry()
        with BatchEngine(fleet[:2], metrics=serial_metrics) as engine:
            engine.run(all_pair_jobs(fleet[:2]))  # short list
        vector_metrics = MetricsRegistry()
        with BatchEngine(fleet, metrics=vector_metrics) as engine:
            outcomes = engine.run(jobs)
        assert vector_metrics.counter("repro_engine_envelope_tests_total") == len(
            jobs
        )
        screened = vector_metrics.counter(
            "repro_engine_envelope_separations_total"
        )
        assert screened == sum(
            1 for o in outcomes if o.disposition is Disposition.SCREENED
        )
        # Scalar recomputation agrees with every batch verdict.
        for outcome in outcomes:
            scalar = envelopes_separated(
                community_envelope(fleet[outcome.job.first]),
                community_envelope(fleet[outcome.job.second]),
                outcome.job.epsilon,
            )
            assert scalar == (outcome.disposition is Disposition.SCREENED)

    def test_envelope_memoised_per_community(self):
        fleet = banded_fleet(1, 2)
        first = community_envelope(fleet[0])
        second = community_envelope(fleet[0])
        assert first is second
        import dataclasses as dc

        clone = dc.replace(fleet[0], name="clone")
        assert "_envelope_cache" not in clone.__dict__
        assert community_envelope(clone) is not first
        np.testing.assert_array_equal(community_envelope(clone).mins, first.mins)


class TestJoinResultCache:
    def test_hit_miss_accounting(self):
        fleet = banded_fleet(1, 4)
        jobs = all_pair_jobs(fleet)
        cache = JoinResultCache(max_entries=64)
        with BatchEngine(fleet, cache=cache, screen=False) as engine:
            cold = engine.run(jobs)
            assert cache.misses == len(jobs)
            assert cache.hits == 0
            warm = engine.run(jobs)
            assert cache.hits == len(jobs)
            assert cache.misses == len(jobs)
        assert comparable(cold) == comparable(warm)
        assert all(o.disposition is Disposition.CACHED for o in warm)
        assert 0.0 < cache.hit_rate < 1.0

    def test_cache_shared_across_engines_and_content_addressed(self):
        rng = np.random.default_rng(11)
        vectors = rng.integers(0, 6, size=(16, 4))
        cache = JoinResultCache()
        first_fleet = [Community("x", vectors), Community("y", vectors + 1)]
        # Same matrices under different names: content addressing hits.
        second_fleet = [Community("p", vectors.copy()), Community("q", vectors + 1)]
        job = PairJob.build(0, 1, "ex-minmax", 1)
        with BatchEngine(first_fleet, cache=cache) as engine:
            engine.run([job])
        with BatchEngine(second_fleet, cache=cache) as engine:
            outcome = engine.run([job])[0]
        assert outcome.disposition is Disposition.CACHED
        assert cache.hits == 1

    def test_cached_swap_flag_tracks_job_order(self):
        rng = np.random.default_rng(12)
        small = Community("small", rng.integers(0, 6, size=(12, 4)))
        large = Community("large", rng.integers(0, 6, size=(16, 4)))
        cache = JoinResultCache()
        with BatchEngine([small, large], cache=cache, screen=False) as engine:
            forward = engine.run([PairJob.build(0, 1, "ex-minmax", 1)])[0]
            reverse = engine.run([PairJob.build(1, 0, "ex-minmax", 1)])[0]
        assert reverse.disposition is Disposition.CACHED
        assert forward.result.swapped is False
        assert reverse.result.swapped is True
        assert forward.result.pair_tuples() == reverse.result.pair_tuples()

    def test_lru_eviction(self):
        cache = JoinResultCache(max_entries=2)
        fleet = banded_fleet(1, 4)
        jobs = all_pair_jobs(fleet)[:3]
        with BatchEngine(fleet, cache=cache, screen=False) as engine:
            engine.run(jobs)
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_distinct_configurations_do_not_collide(self):
        fleet = banded_fleet(1, 2)
        cache = JoinResultCache()
        with BatchEngine(fleet, cache=cache) as engine:
            engine.run([PairJob.build(0, 1, "ex-minmax", 1)])
            engine.run([PairJob.build(0, 1, "ex-minmax", 2)])
            engine.run([PairJob.build(0, 1, "ap-minmax", 1)])
            engine.run([PairJob.build(0, 1, "ex-minmax", 1, {"engine": "python"})])
        assert cache.hits == 0
        assert cache.misses == 4
        assert len(cache) == 4

    def test_clear_resets_entries_gauge(self):
        # Regression: clear() dropped the entries but left the occupancy
        # gauge at its pre-clear value until the next put().
        metrics = MetricsRegistry()
        cache = JoinResultCache(metrics=metrics)
        fleet = banded_fleet(1, 2)
        with BatchEngine(fleet, cache=cache, screen=False) as engine:
            engine.run([PairJob.build(0, 1, "ex-minmax", 1)])
        assert metrics.snapshot()["gauges"]["repro_engine_cache_entries"] == 1.0
        cache.clear()
        assert len(cache) == 0
        assert metrics.snapshot()["gauges"]["repro_engine_cache_entries"] == 0.0

    def test_hits_are_isolated(self):
        """Mutating one hit never reaches the cached entry or a later hit."""
        b, a = banded_fleet(1, 2)
        algorithm = get_algorithm("ex-minmax", 1)
        algorithm.metrics = MetricsRegistry()
        cache = JoinResultCache()
        key = join_key("fingerprint-b", "fingerprint-a", 1, "ex-minmax")
        cache.put(key, algorithm.join(b, a))
        hit = cache.get(key)
        original = hit.to_dict()
        assert hit.pairs and hit.events.match and hit.stage_seconds
        hit.pairs.pop()
        hit.pairs.append(MatchedPair(-1, -1))
        hit.events.match += 7
        hit.events.no_match += 3
        hit.stage_seconds["join"] = -1.0
        hit.stage_seconds["extra"] = 2.0
        hit.swapped = not hit.swapped
        assert cache.get(key).to_dict() == original

    def test_puts_are_isolated(self):
        """Editing a result after ``put`` never reaches the cached entry."""
        b, a = banded_fleet(1, 2)
        algorithm = get_algorithm("ex-minmax", 1)
        algorithm.metrics = MetricsRegistry()
        cache = JoinResultCache()
        key = join_key("fingerprint-b", "fingerprint-a", 1, "ex-minmax")
        result = algorithm.join(b, a)
        original = result.to_dict()
        assert result.pairs and result.events.match and result.stage_seconds
        cache.put(key, result)
        result.pairs.pop()
        result.events.match += 7
        result.stage_seconds["join"] = -1.0
        result.swapped = not result.swapped
        hit = cache.get(key)
        assert hit.to_dict() == original
        assert hit.pairs_b is result.pairs_b and not hit.pairs_b.flags.writeable
        assert len(hit.pairs) == hit.n_matched

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            JoinResultCache(max_entries=0)

    def test_int_cache_parameter_builds_cache(self):
        fleet = banded_fleet(1, 2)
        with BatchEngine(fleet, cache=8) as engine:
            engine.run([PairJob.build(0, 1, "ex-minmax", 1)])
            assert engine.cache is not None
            assert engine.cache.max_entries == 8


class TestFingerprints:
    def test_stable_across_processes(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 9, size=(20, 6)).astype(np.int64)
        local = matrix_fingerprint(matrix)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(matrix_fingerprint, matrix).result()
        assert local == remote

    def test_name_independent(self):
        rng = np.random.default_rng(6)
        vectors = rng.integers(0, 9, size=(10, 3))
        assert community_fingerprint(
            Community("first-name", vectors)
        ) == community_fingerprint(Community("other-name", vectors.copy()))

    def test_content_sensitive(self):
        rng = np.random.default_rng(7)
        vectors = rng.integers(0, 9, size=(10, 3))
        changed = vectors.copy()
        changed[0, 0] += 1
        assert community_fingerprint(
            Community("c", vectors)
        ) != community_fingerprint(Community("c", changed))

    def test_join_key_canonicalises_option_order(self):
        key_a = join_key("fb", "fa", 1, "ex-minmax", {"engine": "numpy", "matcher": "csf"})
        key_b = join_key("fb", "fa", 1, "ex-minmax", {"matcher": "csf", "engine": "numpy"})
        assert key_a == key_b
        assert canonical_options({"b": 2, "a": 1}) == (
            ("a", ("int", 1)),
            ("b", ("int", 2)),
        )

    def test_canonical_options_distinguish_equal_hashing_values(self):
        # bool is an int subclass and True == 1 == 1.0, so untagged
        # tuples aliased these configurations to one cache key — a join
        # run with {"flag": 1} could be served {"flag": True}'s result.
        variants = [True, 1, 1.0, "1"]
        keys = {canonical_options({"flag": value}) for value in variants}
        assert len(keys) == len(variants)

    def test_decoded_options_roundtrip(self):
        options = {"engine": "numpy", "t": 0.5, "n_parts": 4, "flag": True}
        assert decoded_options(canonical_options(options)) == options


class TestEngineErrors:
    def test_unknown_method(self):
        with BatchEngine(banded_fleet(1, 2)) as engine:
            with pytest.raises(UnknownAlgorithmError):
                engine.run([PairJob.build(0, 1, "no-such-method", 1)])

    def test_size_ratio_violation_raises_like_direct_join(self):
        rng = np.random.default_rng(8)
        tiny = Community("tiny", rng.integers(0, 5, size=(5, 3)))
        giant = Community("giant", rng.integers(0, 5, size=(50, 3)))
        with BatchEngine([tiny, giant]) as engine:
            with pytest.raises(SizeRatioError):
                engine.run([PairJob.build(0, 1, "ex-minmax", 1)])

    def test_ratio_enforcement_can_be_disabled(self):
        rng = np.random.default_rng(9)
        tiny = Community("tiny", rng.integers(0, 5, size=(5, 3)))
        giant = Community("giant", rng.integers(0, 5, size=(50, 3)))
        with BatchEngine([tiny, giant], enforce_size_ratio=False) as engine:
            outcome = engine.run([PairJob.build(0, 1, "ex-minmax", 1)])[0]
        assert outcome.result.size_b == 5


def ranking_key(scores) -> bytes:
    """Canonical byte serialisation of a top-k ranking."""
    return json.dumps(
        [
            {
                "name_b": score.name_b,
                "name_a": score.name_a,
                "similarity": repr(score.similarity),
                "matching": score.result.pair_tuples(),
            }
            for score in scores
        ],
        sort_keys=True,
    ).encode()


def nonzero(events: dict[str, int]) -> dict[str, int]:
    return {name: count for name, count in events.items() if count}


class TestTelemetryDifferential:
    """The engine and the reference loop agree — results AND telemetry
    aggregates."""

    def test_rankings_byte_identical_across_all_paths(self):
        fleet = banded_fleet(2, 3)
        records: list = []
        reference = top_k_pairs_reference(fleet, epsilon=2, k=4)
        scores = top_k_pairs(
            fleet,
            epsilon=2,
            k=4,
            metrics=MetricsRegistry(),
            telemetry=records,
        )
        assert ranking_key(scores) == ranking_key(reference)
        assert records
        # Plain, cache-cold and cache-warm runs: names, similarity reprs
        # and matchings all equal the reference's.
        cache = JoinResultCache(max_entries=64)
        for kwargs in ({}, {"cache": cache}, {"cache": cache}):
            ranked = top_k_pairs(fleet, epsilon=2, k=4, **kwargs)
            assert ranking_key(ranked) == ranking_key(reference)
        assert cache.hits > 0
        # Per returned pair, the engine's event counts equal the
        # reference loop's (the joins are deterministic end to end).
        for engine_score, reference_score in zip(scores, reference):
            assert (
                engine_score.result.events.as_dict()
                == reference_score.result.events.as_dict()
            )

    def test_telemetry_event_totals_match_join_results(self):
        fleet = banded_fleet(2, 2)
        jobs = all_pair_jobs(fleet)
        metrics = MetricsRegistry()
        with BatchEngine(fleet, metrics=metrics) as engine:
            outcomes = engine.run(jobs)
            records = list(engine.telemetry)
        assert len(records) == len(jobs)
        expected: dict[str, int] = {}
        for outcome in outcomes:
            for name, count in outcome.result.events.as_dict().items():
                expected[name] = expected.get(name, 0) + count
        assert nonzero(summarize_records(records).events) == nonzero(expected)
        # Record-level fields mirror the outcome they were built from.
        for record, outcome in zip(records, outcomes):
            assert record.disposition == outcome.disposition.value
            assert record.similarity == outcome.result.similarity
            assert record.n_matched == outcome.result.n_matched
            assert record.events == outcome.result.events.as_dict()


class TestEnvelopeScreenFuzz:
    """Property: a SCREENED verdict is a *proof* of an empty candidate
    graph — confirmed against the brute-force oracle."""

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        offset=st.integers(min_value=0, max_value=12),
        epsilon=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_screened_implies_empty_candidate_graph(self, seed, offset, epsilon):
        rng = np.random.default_rng(seed)
        vectors_b = rng.integers(0, 8, size=(6, 3)).astype(np.int64)
        vectors_a = (rng.integers(0, 8, size=(7, 3)) + offset).astype(np.int64)
        fleet = [Community("B", vectors_b), Community("A", vectors_a)]
        with BatchEngine(fleet, screen=True) as engine:
            outcome = engine.run([PairJob.build(0, 1, "ex-minmax", epsilon)])[0]
        if outcome.disposition is Disposition.SCREENED:
            assert (
                brute_force_candidate_pairs(vectors_b, vectors_a, epsilon) == set()
            )
            assert outcome.result.similarity == 0.0
            assert outcome.result.pairs == []
        elif not brute_force_candidate_pairs(vectors_b, vectors_a, epsilon):
            # Unscreened but genuinely empty: the join must agree.
            assert outcome.result.n_matched == 0


class TestTopKOnEngine:
    def test_matches_reference_serial(self):
        fleet = banded_fleet()
        reference = top_k_pairs_reference(fleet, epsilon=2, k=4)
        engine_scores = top_k_pairs(fleet, epsilon=2, k=4)
        assert [
            (s.name_b, s.name_a, round(s.similarity, 12)) for s in reference
        ] == [(s.name_b, s.name_a, round(s.similarity, 12)) for s in engine_scores]

    def test_matches_reference_parallel_and_cached(self):
        fleet = banded_fleet(2, 3)
        reference = top_k_pairs_reference(fleet, epsilon=2, k=3)
        cache = JoinResultCache()
        cold = top_k_pairs(fleet, epsilon=2, k=3, cache=cache)
        assert cache.hits == 0
        warm = top_k_pairs(fleet, epsilon=2, k=3, cache=cache)
        expected = [(s.name_b, s.name_a, round(s.similarity, 12)) for s in reference]
        assert [(s.name_b, s.name_a, round(s.similarity, 12)) for s in cold] == expected
        assert [(s.name_b, s.name_a, round(s.similarity, 12)) for s in warm] == expected
        assert cache.hits > 0


def screen_counts(fleet: list[Community], epsilon: int) -> tuple[int, int]:
    """(joinable, live): size-ratio-joinable pairs, and those of them the
    envelopes cannot prove similarity-0."""
    joinable = live = 0
    for i in range(len(fleet)):
        for j in range(i + 1, len(fleet)):
            small, large = sorted((fleet[i].n_users, fleet[j].n_users))
            if 2 * small < large:
                continue
            joinable += 1
            live += not envelopes_separated(
                community_envelope(fleet[i]), community_envelope(fleet[j]), epsilon
            )
    return joinable, live


def shuffled(fleet: list[Community], seed: int) -> list[Community]:
    order = np.random.default_rng(seed).permutation(len(fleet))
    result = [fleet[index] for index in order]
    names = [community.name for community in result]
    assert names != sorted(names), "the list must not be in name order"
    return result


class TestTopKZeroTail:
    """Only envelope survivors become engine jobs; the rest of the
    ranking comes from a lazy similarity-0 tail."""

    @pytest.mark.parametrize("screened", [True, False])
    def test_tail_follows_list_order_names(self, screened):
        # 6 bands x 2 members: 6 live pairs, fewer than the 12-entry
        # refinement pool of k=10, so 6 pool entries come from the tail.
        fleet = shuffled(banded_fleet(6, 2), seed=4)
        joinable, live = screen_counts(fleet, 2)
        assert (joinable, live) == (66, 6)
        # The reference joins every pair unscreened: its zeros are computed.
        rank = top_k_pairs if screened else top_k_pairs_reference
        scores = rank(fleet, epsilon=2, k=10)
        in_name_order = sorted(fleet, key=lambda community: community.name)
        expected = top_k_pairs_reference(in_name_order, epsilon=2, k=10)
        assert [(s.name_b, s.name_a, s.similarity) for s in scores] == [
            (s.name_b, s.name_a, s.similarity) for s in expected
        ]
        zeros = [score for score in scores if score.similarity == 0.0]
        assert len(zeros) == 4
        if screened:
            assert {score.result.engine for score in zeros} == {"envelope-screen"}
        else:
            assert "envelope-screen" not in {score.result.engine for score in scores}

    def test_jobs_are_live_pairs_plus_refined_live_pairs(self):
        fleet = banded_fleet(3, 4)  # 18 live pairs of 66, pool of 12
        _, live = screen_counts(fleet, 2)
        metrics, records = MetricsRegistry(), []
        top_k_pairs(fleet, epsilon=2, k=10, metrics=metrics, telemetry=records)
        by_disposition = metrics.counters_by_label(
            "repro_engine_jobs_total", "disposition"
        )
        assert sum(by_disposition.values()) == live + 12 == 30
        assert len(records) == 30
        assert by_disposition == {"computed": 30}

    def test_screen_counters_count_joinable_and_separated(self):
        rng = np.random.default_rng(6)
        # The giant community is joinable with nobody: never tested.
        giant = Community("giant", rng.integers(0, 20, size=(60, 5)))
        fleet = banded_fleet(3, 3) + [giant]
        joinable, live = screen_counts(fleet, 2)
        assert (joinable, live) == (36, 9)
        metrics = MetricsRegistry()
        top_k_pairs(fleet, epsilon=2, k=3, metrics=metrics)
        assert metrics.counter("repro_engine_envelope_tests_total") == joinable
        assert (
            metrics.counter("repro_engine_envelope_separations_total")
            == joinable - live
        )


class TestTopKInputErrors:
    def test_bad_arguments_rejected_by_every_source(self, tmp_path):
        """No join runs on an all-separated fleet, so nothing downstream
        would catch a bad epsilon or method name."""
        fleet = banded_fleet(2, 2)
        all_separated = banded_fleet(4, 1)  # one member per band
        assert screen_counts(all_separated, 0)[1] == 0
        catalog = PersistentCatalog(tmp_path / "fleet.db")
        catalog.register_many(
            {community.name: community for community in all_separated}
        )
        try:
            for source in (fleet, all_separated, catalog):
                with pytest.raises(ValidationError, match="epsilon"):
                    top_k_pairs(source, epsilon=-1, k=2)
                for method in ("screen_method", "refine_method"):
                    with pytest.raises(UnknownAlgorithmError):
                        top_k_pairs(source, epsilon=1, k=2, **{method: "no-such"})
        finally:
            catalog.close()

    def test_bad_options_rejected_by_every_source(self, tmp_path):
        """The screen and refine methods are built before any data can
        spare them a join, so a bad option raises on an all-separated
        fleet too."""
        all_separated = banded_fleet(4, 1)
        assert screen_counts(all_separated, 1)[1] == 0
        catalog = PersistentCatalog(tmp_path / "fleet.db")
        catalog.register_many(
            {community.name: community for community in all_separated}
        )
        try:
            for source in (banded_fleet(2, 2), all_separated, catalog):
                with pytest.raises(ConfigurationError, match="n_parts"):
                    top_k_pairs(source, epsilon=1, k=2, n_parts=0)
        finally:
            catalog.close()

    @pytest.mark.parametrize("size", [4, 8])
    def test_mixed_dimensions_raise_whatever_the_length(self, size):
        fleet = banded_fleet(1, size - 1, dims=5)
        odd = Community("odd", np.random.default_rng(2).integers(0, 20, size=(24, 6)))
        for communities in (fleet + [odd], [odd] + fleet):
            with pytest.raises(DimensionMismatchError):
                top_k_pairs(communities, epsilon=2, k=3)

    def test_engine_screens_long_lists_of_two_dimensionalities(self):
        """Same-dimension pairs screen correctly in a long job list over
        communities of two dimensionalities; a mismatched pair raises
        the typed error."""
        fleet = banded_fleet(3, 3, dims=5) + banded_fleet(
            3, 3, dims=4, name_format="low{band}-{member}"
        )
        jobs = [
            job
            for job in all_pair_jobs(fleet)
            if fleet[job.first].n_dims == fleet[job.second].n_dims
        ]
        assert len(jobs) >= 16
        with BatchEngine(fleet) as engine:
            outcomes = engine.run(jobs)
        for outcome in outcomes:
            separated = envelopes_separated(
                community_envelope(fleet[outcome.job.first]),
                community_envelope(fleet[outcome.job.second]),
                2,
            )
            assert (outcome.disposition is Disposition.SCREENED) == separated
        with BatchEngine(fleet) as engine:
            with pytest.raises(DimensionMismatchError):
                engine.run(all_pair_jobs(fleet))
