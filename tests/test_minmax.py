"""Tests for Ap-MinMax and Ex-MinMax (repro.algorithms.minmax)."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.algorithms import ENGINES, minmax
from repro.algorithms.baseline import ApBaseline, ExBaseline
from repro.algorithms.minmax import ApMinMax, ExMinMax
from repro.core.encoding import MinMaxEncoder
from repro.core.errors import ConfigurationError, SizeRatioError
from repro.core.events import EventType
from repro.core.matching import build_adjacency
from repro.core.types import Community, EventCounts
from tests.conftest import (
    HUGE_EPSILONS,
    assert_valid_matching,
    banded_community_fleet,
    brute_force_candidate_pairs,
    maximum_matching_size,
    random_couple,
)


class TestApMinMax:
    @pytest.mark.parametrize("seed", range(8))
    def test_engines_agree(self, seed):
        vectors_b, vectors_a = random_couple(seed)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        python = ApMinMax(1, engine="python").join(b, a)
        numpy_ = ApMinMax(1, engine="numpy").join(b, a)
        assert python.pair_tuples() == numpy_.pair_tuples()

    @pytest.mark.parametrize("n_parts", [1, 2, 3, 4])
    def test_matching_valid_for_any_parts(self, small_couple, n_parts):
        b, a = small_couple
        result = ApMinMax(1, n_parts=n_parts).join(b, a)
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_match_count_class_as_ap_baseline(self, seed):
        # Both are first-fit greedy; scan orders differ (sorted vs raw),
        # so counts may differ slightly but stay within the candidate
        # graph's maximum.
        vectors_b, vectors_a = random_couple(seed + 10)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        minmax = ApMinMax(1).join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(vectors_b, vectors_a, 1)
        )
        assert minmax.n_matched <= oracle

    def test_python_engine_emits_all_event_kinds(self):
        # Construct data guaranteed to produce every event type.
        vectors_b = np.array([[0, 0], [3, 3], [6, 6], [40, 0]])
        vectors_a = np.array([[0, 0], [3, 4], [20, 20], [0, 40]])
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        algorithm = ApMinMax(1, n_parts=2, engine="python", record_trace=True)
        result = algorithm.join(b, a)
        counts = result.events
        assert counts.match >= 1
        assert counts.min_prune >= 1
        assert counts.no_overlap >= 1

    def test_trace_recording(self, small_couple):
        b, a = small_couple
        algorithm = ApMinMax(1, engine="python", record_trace=True)
        algorithm.join(b, a)
        trace = algorithm.last_trace
        assert trace is not None
        assert len(trace.events) == trace.counts.total
        assert trace.format()

    def test_numpy_engine_has_no_trace_events(self, small_couple):
        b, a = small_couple
        algorithm = ApMinMax(1, engine="numpy", record_trace=True)
        algorithm.join(b, a)
        assert algorithm.last_trace.events == []


class TestExMinMax:
    @pytest.mark.parametrize("seed", range(8))
    def test_engines_agree(self, seed):
        vectors_b, vectors_a = random_couple(seed + 30)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        python = ExMinMax(1, engine="python").join(b, a)
        numpy_ = ExMinMax(1, engine="numpy").join(b, a)
        assert set(python.pair_tuples()) == set(numpy_.pair_tuples())

    @pytest.mark.parametrize("seed", range(10))
    def test_segmented_csf_equals_global_csf(self, seed):
        # Ex-MinMax flushes CSF per maxV segment; segments are unions of
        # connected components, so the result must equal Ex-Baseline's
        # single global CSF call.
        vectors_b, vectors_a = random_couple(seed + 60)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        minmax = ExMinMax(1, engine="python").join(b, a)
        baseline = ExBaseline(1, engine="python").join(b, a)
        assert set(minmax.pair_tuples()) == set(baseline.pair_tuples())

    @pytest.mark.parametrize("seed", range(6))
    def test_hopcroft_karp_reaches_maximum(self, seed):
        vectors_b, vectors_a = random_couple(seed + 90)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = ExMinMax(1, matcher="hopcroft_karp").join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(vectors_b, vectors_a, 1)
        )
        assert result.n_matched == oracle

    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    @pytest.mark.parametrize("epsilon", [0, 1, 2])
    def test_parts_and_epsilon_grid(self, epsilon, n_parts):
        vectors_b, vectors_a = random_couple(7, d=8)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = ExMinMax(epsilon, n_parts=n_parts, matcher="hopcroft_karp").join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(vectors_b, vectors_a, epsilon)
        )
        assert result.n_matched == oracle
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, epsilon)

    def test_dominates_approximate(self, small_couple):
        b, a = small_couple
        exact = ExMinMax(1, matcher="hopcroft_karp").join(b, a)
        approx = ApMinMax(1).join(b, a)
        assert exact.n_matched >= approx.n_matched

    def test_csf_trace_notes_record_segments(self):
        vectors_b = np.array([[0, 0], [1, 1], [50, 50], [51, 51]])
        vectors_a = np.array([[0, 1], [1, 0], [50, 51], [51, 50]])
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        algorithm = ExMinMax(1, n_parts=2, engine="python", record_trace=True)
        algorithm.join(b, a)
        notes = algorithm.last_trace.notes
        # Two well-separated groups -> at least two CSF flushes.
        assert len(notes) >= 2
        assert all(note.startswith("CSF(") for note in notes)

    def test_match_events_carry_maxv_detail(self):
        vectors_b = np.array([[2, 2]])
        vectors_a = np.array([[2, 3]])
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        algorithm = ExMinMax(1, n_parts=2, engine="python", record_trace=True)
        algorithm.join(b, a)
        match_events = [
            event
            for event in algorithm.last_trace.events
            if event.kind is EventType.MATCH
        ]
        assert match_events
        assert match_events[0].detail.startswith("maxV = ")

    def test_exact_flag_and_name(self):
        assert ExMinMax(1).exact is True
        assert ExMinMax(1).name == "ex-minmax"
        assert ApMinMax(1).name == "ap-minmax"

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    @pytest.mark.parametrize("n_parts", [0, -2])
    def test_bad_n_parts_rejected_at_construction(self, cls, n_parts):
        with pytest.raises(ConfigurationError, match="n_parts"):
            cls(1, n_parts=n_parts)


class TestMinMaxPruningEffectiveness:
    def test_minmax_compares_less_than_baseline(self):
        # The encoding must cut the number of full d-dimensional
        # comparisons versus the exhaustive nested loop.
        rng = np.random.default_rng(4)
        vectors_b = rng.integers(0, 60, size=(60, 9))
        vectors_a = rng.integers(0, 60, size=(70, 9))
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        minmax = ApMinMax(1, engine="python").join(b, a)
        baseline = ApBaseline(1, engine="python").join(b, a)
        assert minmax.events.comparisons < baseline.events.comparisons

    def test_no_overlap_filter_actually_fires(self):
        rng = np.random.default_rng(14)
        vectors_b = rng.integers(0, 40, size=(40, 8))
        vectors_a = rng.integers(0, 40, size=(40, 8))
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = ApMinMax(1, engine="python").join(b, a)
        assert result.events.no_overlap > 0


def per_user_scan(
    algorithm: ApMinMax | ExMinMax, vectors_b: np.ndarray, vectors_a: np.ndarray
) -> tuple[list[tuple[int, int]], EventCounts]:
    """The numpy engines' scan one ``b`` at a time: the reference the band
    blocks must reproduce, pair order and event counts included."""
    encoder = algorithm._encoder(vectors_b.shape[1])
    targets = encoder.encode_targets(vectors_b)
    candidates = encoder.encode_candidates(vectors_a)
    first_fit = isinstance(algorithm, ApMinMax)
    used = np.zeros(candidates.n_users, dtype=bool)
    pairs: list[tuple[int, int]] = []
    match = no_match = 0
    for i in range(targets.n_users):
        encoded_id = targets.encoded_id[i]
        hi = int(np.searchsorted(candidates.encoded_min, encoded_id, side="right"))
        window = candidates.encoded_max[:hi] >= encoded_id
        overlap = (
            (targets.parts[i] >= candidates.range_min[:hi])
            & (targets.parts[i] <= candidates.range_max[:hi])
        ).all(axis=1)
        positions = np.flatnonzero(window & overlap)
        if first_fit:
            positions = positions[~used[positions]]
        b_real = int(targets.real_ids[i])
        rows = candidates.real_ids[positions]
        full = (np.abs(vectors_a[rows] - vectors_b[b_real]) <= algorithm.epsilon).all(
            axis=1
        )
        hits = np.flatnonzero(full)
        if not first_fit:
            pairs.extend((b_real, int(a_real)) for a_real in rows[hits])
            match += hits.size
            no_match += full.size - hits.size
        elif hits.size:
            used[positions[hits[0]]] = True
            pairs.append((b_real, int(rows[hits[0]])))
            match += 1
            no_match += int(hits[0])
        else:
            no_match += full.size
    if not first_fit and pairs:
        pairs = algorithm._matcher(*build_adjacency(pairs))
    return pairs, EventCounts(no_match=no_match, match=match)


def _equal_sum_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    rows = np.zeros((n, d), dtype=np.int64)
    for row in rows:
        np.add.at(row, rng.integers(0, d, size=6), 1)
    return rows


def _parity_couples() -> list[tuple[str, np.ndarray, np.ndarray]]:
    couples = [
        (f"seed{seed}-d{d}", *random_couple(seed, n_b=14 + seed, n_a=20, d=d))
        for d in (1, 2, 6, 27)
        for seed in range(2)
    ]
    rng = np.random.default_rng(3)
    couples.append(("equal-sums", _equal_sum_rows(rng, 20, 5), _equal_sum_rows(rng, 32, 5)))
    couples.append(
        ("all-zero", np.zeros((16, 6), dtype=np.int64), np.zeros((25, 6), dtype=np.int64))
    )
    heavy = np.floor(rng.pareto(1.2, size=(260, 27)) * 2).astype(np.int64)
    couples.append(("heavy-tailed", heavy[:110], heavy[110:]))
    return couples


PARITY_COUPLES = _parity_couples()


class TestNumpyBandParity:
    """The numpy engines' block-wise band pass equals the per-``b`` scan."""

    @pytest.mark.parametrize("block_pairs", [None, 1, 7])
    @pytest.mark.parametrize(
        "name, vectors_b, vectors_a",
        PARITY_COUPLES,
        ids=[name for name, _, _ in PARITY_COUPLES],
    )
    def test_same_pairs_and_events_as_per_user_scan(
        self, monkeypatch, block_pairs, name, vectors_b, vectors_a
    ):
        if block_pairs is not None:
            monkeypatch.setattr(minmax, "_BAND_BLOCK_PAIRS", block_pairs)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        for epsilon in (0, 1, 2):
            candidates = brute_force_candidate_pairs(vectors_b, vectors_a, epsilon)
            for n_parts in (1, 2, 3, 4):
                for cls in (ApMinMax, ExMinMax):
                    algorithm = cls(epsilon, n_parts=n_parts)
                    result = algorithm.join(b, a)
                    assert not result.swapped
                    pairs, events = per_user_scan(algorithm, vectors_b, vectors_a)
                    assert result.pair_tuples() == pairs
                    assert result.events == events
                    if cls is ExMinMax:
                        assert result.events.match == len(candidates)


def _mixed_fleet(seed: int) -> list[Community]:
    """Ten communities of 4-30 users: six with d = 6, four with d = 3."""
    rng = np.random.default_rng(seed)
    fleet = []
    for index in range(10):
        vectors_b, vectors_a = random_couple(
            seed * 100 + index,
            n_b=int(rng.integers(4, 16)),
            n_a=int(rng.integers(16, 31)),
            d=6 if index < 6 else 3,
        )
        fleet.append(Community(f"c{index}", (vectors_b, vectors_a)[index % 2]))
    return fleet


def _pairs_in_both_orders(fleet: list[Community]) -> list[tuple[Community, Community]]:
    """Every same-``d`` pair of ``fleet`` in both orders, self-pairs
    included, so each community appears in many pairs."""
    return [
        (first, second)
        for first in fleet
        for second in fleet
        if first.n_dims == second.n_dims
    ]


def assert_batch_equals_separate_joins(cls, epsilon, pairs, **join_options):
    batched = cls(epsilon).join_many(pairs, **join_options)
    assert len(batched) == len(pairs)
    for (first, second), result in zip(pairs, batched):
        alone = cls(epsilon).join(first, second, **join_options)
        assert result.pair_tuples() == alone.pair_tuples()
        assert result.events == alone.events
        assert result.swapped == alone.swapped
        assert result.similarity == alone.similarity
        assert (result.size_b, result.size_a) == (alone.size_b, alone.size_a)
        assert result.epsilon == alone.epsilon == epsilon


class TestBatchParity:
    """Every pair of a ``join_many`` batch gets its separate join's result."""

    @pytest.mark.parametrize("block_pairs", [None, 1, 7])
    @pytest.mark.parametrize("epsilon", (0, 1, 2) + HUGE_EPSILONS)
    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_mixed_sizes_and_dimensions(self, monkeypatch, cls, epsilon, block_pairs):
        if block_pairs is not None:
            monkeypatch.setattr(minmax, "_BAND_BLOCK_PAIRS", block_pairs)
        for seed in (1, 2):
            pairs = _pairs_in_both_orders(_mixed_fleet(seed))
            assert {first.n_dims for first, _ in pairs} == {3, 6}
            assert_batch_equals_separate_joins(
                cls, epsilon, pairs, enforce_size_ratio=False
            )

    @pytest.mark.parametrize("band_users", [1, 64])
    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_batch_split_into_several_bands(self, monkeypatch, cls, band_users):
        monkeypatch.setattr(minmax, "_BAND_USERS", band_users)
        pairs = _pairs_in_both_orders(_mixed_fleet(4))
        assert_batch_equals_separate_joins(cls, 1, pairs, enforce_size_ratio=False)

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_size_ratio_pairs_of_a_banded_fleet(self, cls):
        fleet = banded_community_fleet(n_bands=3, per_band=4, users=12, dims=5, seed=8)
        pairs = [
            (first, second)
            for index, first in enumerate(fleet)
            for second in fleet[index + 1 :]
        ]
        pairs += [(second, first) for first, second in pairs[::3]]
        assert_batch_equals_separate_joins(cls, 2, pairs)

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_batch_with_no_band_survivor(self, cls):
        low = Community("low", np.zeros((8, 4), dtype=np.int64))
        high = Community("high", np.full((12, 4), 50, dtype=np.int64))
        pairs = [(low, high), (high, low), (low, high)]
        assert_batch_equals_separate_joins(cls, 1, pairs)
        assert all(result.n_matched == 0 for result in cls(1).join_many(pairs))

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_one_community_in_every_pair(self, cls):
        vectors_b, vectors_a = random_couple(5, n_b=20, n_a=30)
        hub = Community("hub", vectors_a)
        others = [
            Community(f"part{rows}", vectors_b[:rows]) for rows in (15, 18, 20)
        ] + [Community("self", vectors_a)]
        pairs = [(hub, other) for other in others] + [(other, hub) for other in others]
        assert_batch_equals_separate_joins(cls, 1, pairs)

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_value_ranges_wider_than_int64_together(self, cls):
        # Each pair spans about 2**61 of encoded values, so the five
        # pairs cannot all be shifted into one int64 range: the band
        # splits them into runs.
        rng = np.random.default_rng(4)
        pairs = []
        for index in range(5):
            rows = rng.integers(0, 2, size=(10, 2)) * 2**60 + rng.integers(0, 3, size=(10, 2))
            pairs.append((Community(f"b{index}", rows[:8]), Community(f"a{index}", rows)))
        assert_batch_equals_separate_joins(cls, 1, pairs)

    def test_batch_of_one_and_empty_batch(self, small_couple):
        b, a = small_couple
        for cls in (ApMinMax, ExMinMax):
            assert_batch_equals_separate_joins(cls, 1, [(a, b)])
            assert cls(1).join_many([]) == []

    @pytest.mark.parametrize("cls", [ApMinMax, ExMinMax])
    def test_python_engine_is_a_loop_over_join(self, cls):
        pairs = _pairs_in_both_orders(_mixed_fleet(3))[:12]
        batched = cls(1, engine="python").join_many(pairs, enforce_size_ratio=False)
        for (first, second), result in zip(pairs, batched):
            alone = cls(1, engine="python").join(first, second, enforce_size_ratio=False)
            assert result.pair_tuples() == alone.pair_tuples()
            assert result.events == alone.events
            assert result.engine == "python"

    def test_size_ratio_violation_raises_like_join(self):
        fleet = _mixed_fleet(1)
        small, large = fleet[0], Community("large", np.zeros((40, 6), dtype=np.int64))
        with pytest.raises(SizeRatioError):
            ExMinMax(1).join_many([(fleet[2], fleet[2]), (small, large)])

    def test_shares_of_one_batch_sum_to_its_time(self):
        from repro.obs import MetricsRegistry

        pairs = _pairs_in_both_orders(_mixed_fleet(2))
        algorithm = ApMinMax(1)
        algorithm.metrics = MetricsRegistry()
        results = algorithm.join_many(pairs, enforce_size_ratio=False)
        total = sum(result.size_b + result.size_a for result in results)
        pairing = sum(result.stage_seconds["join.pairing"] for result in results)
        for result in results:
            share = (result.size_b + result.size_a) / total
            assert result.stage_seconds["join.pairing"] == pytest.approx(pairing * share)
            for stage in ("encode", "enumerate", "matching"):
                assert f"join.pairing.{stage}" in result.stage_seconds
            assert result.stage_seconds["join.pairing"] <= result.elapsed_seconds
        assert algorithm.metrics.counter(
            "repro_algo_joins_total", method="ap-minmax", engine="numpy"
        ) == len(pairs)


class TestEncodingMemo:
    """Each community's ``Encd_B``/``Encd_A`` is encoded once per key and
    shared by every MinMax join that needs it."""

    @pytest.fixture
    def encode_calls(self, monkeypatch):
        calls = {"targets": 0, "candidates": 0}
        encode_targets = MinMaxEncoder.encode_targets
        encode_candidates = MinMaxEncoder.encode_candidates

        def counted_targets(encoder, vectors):
            calls["targets"] += 1
            return encode_targets(encoder, vectors)

        def counted_candidates(encoder, vectors):
            calls["candidates"] += 1
            return encode_candidates(encoder, vectors)

        monkeypatch.setattr(MinMaxEncoder, "encode_targets", counted_targets)
        monkeypatch.setattr(MinMaxEncoder, "encode_candidates", counted_candidates)
        return calls

    @pytest.mark.parametrize("engine", ENGINES)
    def test_repeat_join_encodes_nothing(self, small_couple, encode_calls, engine):
        b, a = small_couple
        first = ExMinMax(1, engine=engine).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}
        second = ExMinMax(1, engine=engine).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}
        assert second.pair_tuples() == first.pair_tuples()
        assert second.events == first.events

    def test_ap_and_ex_share_buffers(self, small_couple, encode_calls):
        b, a = small_couple
        ApMinMax(1).join(b, a)
        ExMinMax(1).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}
        ap, ex = ApMinMax(1)._encoder(b.n_dims), ExMinMax(1)._encoder(b.n_dims)
        assert ap.targets_of(b) is ex.targets_of(b)
        assert ap.candidates_of(a) is ex.candidates_of(a)

    def test_alternating_keys_equal_fresh_communities(self, small_couple):
        # Every setting evicts the previous one's buffers (one slot per
        # role), and the self-join puts one community in both roles.
        b, a = small_couple
        settings = [(epsilon, n_parts) for epsilon in (0, 2, 1) for n_parts in (1, 4, 2)]
        for epsilon, n_parts in settings + settings[::-1]:
            for cls in (ApMinMax, ExMinMax):
                algorithm = cls(epsilon, n_parts=n_parts)
                for first, second in ((b, a), (b, b), (a, a)):
                    shared = algorithm.join(first, second)
                    fresh = algorithm.join(
                        Community("B", first.vectors), Community("A", second.vectors)
                    )
                    assert shared.pair_tuples() == fresh.pair_tuples()
                    assert shared.events == fresh.events

    def test_copies_get_fresh_buffers(self, small_couple):
        b, _ = small_couple
        encoder = MinMaxEncoder(1, 3)
        encoder.targets_of(b)
        encoder.candidates_of(b)
        for copy in (
            dataclasses.replace(b, vectors=b.vectors[::-1] + 1),
            b.subset([4, 0, 7, 3]),
        ):
            targets = encoder.targets_of(copy)
            candidates = encoder.candidates_of(copy)
            fresh_targets = encoder.encode_targets(copy.vectors)
            fresh_candidates = encoder.encode_candidates(copy.vectors)
            for field in dataclasses.fields(targets):
                assert np.array_equal(
                    getattr(targets, field.name), getattr(fresh_targets, field.name)
                )
            for field in dataclasses.fields(candidates):
                assert np.array_equal(
                    getattr(candidates, field.name),
                    getattr(fresh_candidates, field.name),
                )

    def test_memoised_arrays_are_read_only(self, small_couple):
        b, a = small_couple
        encoder = MinMaxEncoder(1, 4)
        for buffer in (encoder.targets_of(b), encoder.candidates_of(a)):
            for field in dataclasses.fields(buffer):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(buffer, field.name)[0] = 0

    def test_concurrent_joins_at_two_epsilons(self, small_couple):
        b, a = small_couple
        epsilons = (1, 2)
        expected = {
            (cls, epsilon): cls(epsilon).join(
                Community("B", b.vectors), Community("A", a.vectors)
            )
            for cls in (ApMinMax, ExMinMax)
            for epsilon in epsilons
        }
        rounds, n_threads = 20, 8
        outcomes: list[tuple[type, int, list, EventCounts]] = []
        errors: list[Exception] = []

        def worker(index: int) -> None:
            cls = (ApMinMax, ExMinMax)[index % 2]
            try:
                for round_ in range(rounds):
                    epsilon = epsilons[(index + round_) % 2]
                    result = cls(epsilon).join(b, a)
                    outcomes.append((cls, epsilon, result.pair_tuples(), result.events))
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(outcomes) == rounds * n_threads
        for cls, epsilon, pairs, events in outcomes:
            assert pairs == expected[cls, epsilon].pair_tuples()
            assert events == expected[cls, epsilon].events
