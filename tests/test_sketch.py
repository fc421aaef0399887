"""Tests for the sketch pre-filter tier (repro.sketch)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.types import Community
from repro.engine import (
    BatchEngine,
    Disposition,
    PairJob,
    community_envelope,
    envelopes_separated,
)
from repro.engine.batch import SKETCH_ENGINE
from repro.engine.envelope import separation_matrix, stack_envelopes
from repro.obs import MetricsRegistry
from repro.sketch import (
    RecallEstimator,
    SketchConfig,
    SketchIndex,
    SketchPrefilter,
    build_signature,
    init_sketch_metrics,
)
from repro.sketch.signature import band_offset, mix64
from repro.testing import banded_community_fleet as banded_fleet
from repro.testing import brute_force_candidate_pairs

pytestmark = pytest.mark.sketch


def all_pair_jobs(fleet, method="ex-minmax", epsilon=2):
    n = len(fleet)
    return [
        PairJob.build(i, j, method, epsilon)
        for i in range(n)
        for j in range(i + 1, n)
    ]


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------
class TestSignature:
    def test_mix64_is_deterministic_and_spread(self):
        values = {mix64(v) for v in range(256)}
        assert len(values) == 256
        assert mix64(12345) == mix64(12345)

    def test_band_offsets_stay_in_grid(self):
        for band in range(16):
            assert 0 <= band_offset(7, band, 5) < 5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SketchConfig(epsilon=-1)
        with pytest.raises(ConfigurationError):
            SketchConfig(epsilon=1, mode="nope")
        with pytest.raises(ConfigurationError):
            SketchConfig(epsilon=1, n_bands=0)
        with pytest.raises(ConfigurationError):
            SketchConfig.for_target_recall(1, target_recall=0.0)

    def test_for_target_recall_selects_modes(self):
        exact = SketchConfig.for_target_recall(2, target_recall=1.0)
        assert exact.mode == "coverage" and exact.is_exact
        lossy = SketchConfig.for_target_recall(2, target_recall=0.9, n_dims=5)
        assert lossy.mode == "values" and not lossy.is_exact
        assert lossy.n_bands >= 1

    def test_signatures_are_seed_deterministic(self):
        fleet = banded_fleet(2, 2)
        config = SketchConfig.for_target_recall(1, target_recall=0.9, n_dims=5)
        first = build_signature(fleet[0], config)
        second = build_signature(fleet[0], config)
        assert first.cells == second.cells
        other_seed = SketchConfig.for_target_recall(
            1, target_recall=0.9, n_dims=5, seed=99
        )
        assert build_signature(fleet[0], other_seed).cells != first.cells

    def test_values_mode_truncates_to_band_rows(self):
        rng = np.random.default_rng(0)
        community = Community("wide", rng.integers(0, 10_000, size=(500, 3)))
        config = SketchConfig(epsilon=1, mode="values", n_bands=2, band_rows=8)
        signature = build_signature(community, config)
        assert all(
            len(cell) <= 8 for row in signature.cells for cell in row
        )


# ----------------------------------------------------------------------
# index
# ----------------------------------------------------------------------
class TestSketchIndex:
    def test_candidate_pairs_match_pairwise_admits(self):
        fleet = banded_fleet(3, 3)
        for target in (1.0, 0.9):
            config = SketchConfig.for_target_recall(
                2, target_recall=target, n_dims=fleet[0].n_dims
            )
            index = SketchIndex(fleet, config)
            enumerated = index.candidate_pairs()
            pairwise = {
                (i, j)
                for i in range(len(fleet))
                for j in range(i + 1, len(fleet))
                if index.collides(i, j)
            }
            assert enumerated == pairwise

    def test_admits_counts_metrics(self):
        fleet = banded_fleet(2, 2)
        metrics = MetricsRegistry()
        config = SketchConfig.for_target_recall(1, target_recall=1.0)
        index = SketchIndex(fleet, config, metrics=metrics)
        assert metrics.counter("repro_sketch_signatures_built_total") == len(fleet)
        index.admits(0, 1)
        index.admits(0, 3)
        checked = metrics.counter("repro_sketch_pairs_checked_total")
        skipped = metrics.counter("repro_sketch_pairs_skipped_total")
        collided = metrics.counter("repro_sketch_bucket_collisions_total")
        assert checked == 2
        assert skipped + collided == checked

    def test_coverage_is_superset_of_envelope_admits(self):
        fleet = banded_fleet(3, 4, users=16, dims=4, band_gap=40, high=30)
        epsilon = 3
        config = SketchConfig.for_target_recall(epsilon, target_recall=1.0)
        index = SketchIndex(fleet, config)
        envelopes = [community_envelope(c) for c in fleet]
        for i in range(len(fleet)):
            for j in range(i + 1, len(fleet)):
                if not envelopes_separated(envelopes[i], envelopes[j], epsilon):
                    assert index.collides(i, j)


# hypothesis: a recall-1.0 sketch never drops a pair the envelope
# screen admits, on arbitrary small community collections.
@st.composite
def community_collections(draw):
    n_dims = draw(st.integers(min_value=1, max_value=4))
    n_communities = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    spread = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(seed)
    communities = []
    for index in range(n_communities):
        n_users = int(rng.integers(1, 8))
        base = int(rng.integers(0, spread))
        vectors = rng.integers(base, base + spread, size=(n_users, n_dims))
        communities.append(Community(f"hyp-{index}", vectors))
    epsilon = draw(st.integers(min_value=0, max_value=8))
    return communities, epsilon


@settings(max_examples=60, deadline=None)
@given(community_collections())
def test_exact_sketch_never_drops_envelope_admits(collection):
    communities, epsilon = collection
    config = SketchConfig.for_target_recall(epsilon, target_recall=1.0)
    index = SketchIndex(communities, config)
    envelopes = [community_envelope(c) for c in communities]
    for i in range(len(communities)):
        for j in range(i + 1, len(communities)):
            if not envelopes_separated(envelopes[i], envelopes[j], epsilon):
                assert index.collides(i, j), (
                    f"coverage sketch dropped envelope-admitted pair "
                    f"({i}, {j}) at epsilon {epsilon}"
                )


# ----------------------------------------------------------------------
# recall accounting
# ----------------------------------------------------------------------
class TestRecallEstimator:
    def test_measured_recall_matches_brute_force(self):
        """Seeded regression: sampled recall tracks the exhaustive one."""
        fleet = banded_fleet(3, 4, users=14, dims=4, seed=11)
        epsilon = 2
        config = SketchConfig.for_target_recall(
            epsilon, target_recall=0.9, n_dims=4, seed=11
        )
        index = SketchIndex(fleet, config)
        # Exhaustive ground truth over every pair.
        true_pairs = []
        for i in range(len(fleet)):
            for j in range(i + 1, len(fleet)):
                if brute_force_candidate_pairs(
                    fleet[i].vectors, fleet[j].vectors, epsilon
                ):
                    true_pairs.append((i, j))
        assert true_pairs, "workload must have true candidates"
        exhaustive = sum(
            1 for i, j in true_pairs if index.collides(i, j)
        ) / len(true_pairs)
        estimator = RecallEstimator(fleet, seed=11, sample_pairs=40)
        report = estimator.measure(index)
        assert report.sampled_pairs > 0
        assert report.recall == pytest.approx(exhaustive, abs=0.15)
        # Determinism: same seed, same report.
        again = RecallEstimator(fleet, seed=11, sample_pairs=40).measure(index)
        assert again == report

    def test_exact_tier_reports_recall_one_without_sampling(self):
        fleet = banded_fleet(2, 2)
        prefilter = SketchPrefilter(target_recall=1.0)
        prefilter.bind(fleet)
        assert prefilter.recall(2) == 1.0
        assert prefilter.report(2).sampled_pairs == 0


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEnginePrefilter:
    @staticmethod
    def _payloads(outcomes):
        rows = []
        for outcome in outcomes:
            payload = outcome.result.to_dict()
            payload.pop("elapsed_seconds")  # wall-clock noise
            rows.append(payload)
        return rows

    def test_disabled_prefilter_is_byte_identical(self):
        fleet = banded_fleet(3, 3)
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet) as engine:
            baseline = self._payloads(engine.run(jobs))
        with BatchEngine(fleet, prefilter=None) as engine:
            assert self._payloads(engine.run(jobs)) == baseline

    def test_exact_prefilter_preserves_similarities(self):
        fleet = banded_fleet(3, 3)
        jobs = all_pair_jobs(fleet)
        with BatchEngine(fleet) as engine:
            baseline = engine.run(jobs)
        prefilter = SketchPrefilter(target_recall=1.0)
        with BatchEngine(fleet, prefilter=prefilter) as engine:
            outcomes = engine.run(jobs)
            stats = engine.stats()
        assert [o.result.similarity for o in outcomes] == [
            o.result.similarity for o in baseline
        ]
        assert [o.result.n_matched for o in outcomes] == [
            o.result.n_matched for o in baseline
        ]
        assert stats["prefiltered"] == sum(
            1 for o in outcomes if o.disposition is Disposition.PREFILTERED
        )
        assert stats["sketch"]["exact"] is True

    def test_prefiltered_outcomes_are_marked(self):
        fleet = banded_fleet(2, 2, band_gap=1000)
        jobs = all_pair_jobs(fleet, epsilon=1)
        prefilter = SketchPrefilter(target_recall=1.0)
        with BatchEngine(fleet, prefilter=prefilter) as engine:
            outcomes = engine.run(jobs)
        dropped = [
            o for o in outcomes if o.disposition is Disposition.PREFILTERED
        ]
        assert dropped, "inter-band pairs must be prefiltered"
        for outcome in dropped:
            assert outcome.result.engine == SKETCH_ENGINE
            assert outcome.result.similarity == 0.0
            assert outcome.result.n_matched == 0

    def test_lossy_prefilter_folds_measured_recall_into_p(self):
        fleet = banded_fleet(3, 3)
        jobs = all_pair_jobs(fleet)
        prefilter = SketchPrefilter(target_recall=0.85, sample_pairs=12)
        with BatchEngine(fleet, prefilter=prefilter) as engine:
            outcomes = engine.run(jobs)
        recall = prefilter.recall(2)
        assert 0.0 < recall <= 1.0
        for outcome in outcomes:
            if outcome.disposition is Disposition.COMPUTED:
                assert outcome.result.p == pytest.approx(recall)
                if recall < 1.0:
                    assert outcome.result.exact is False

    def test_lossy_prefilter_never_corrupts_shared_cache(self):
        from repro.engine import JoinResultCache

        fleet = banded_fleet(2, 3)
        jobs = all_pair_jobs(fleet)
        cache = JoinResultCache(max_entries=64)
        prefilter = SketchPrefilter(target_recall=0.85)
        with BatchEngine(fleet, prefilter=prefilter, cache=cache) as engine:
            engine.run(jobs)
        # A later exact engine sharing the cache must see pure results.
        with BatchEngine(fleet, cache=cache) as engine:
            for outcome in engine.run(jobs):
                assert outcome.result.p == 1.0

    def test_metrics_family_emitted(self):
        fleet = banded_fleet(2, 2)
        metrics = MetricsRegistry()
        prefilter = SketchPrefilter(target_recall=1.0)
        with BatchEngine(fleet, prefilter=prefilter, metrics=metrics) as engine:
            engine.run(all_pair_jobs(fleet))
        assert metrics.counter("repro_sketch_signatures_built_total") == len(fleet)
        assert metrics.counter("repro_sketch_indexes_built_total") == 1
        assert metrics.counter("repro_sketch_pairs_checked_total") == 6

    def test_init_sketch_metrics_zero_values(self):
        metrics = MetricsRegistry()
        init_sketch_metrics(metrics)
        rendered = metrics.to_prometheus()
        assert "repro_sketch_pairs_skipped_total 0" in rendered
        assert 'repro_sketch_estimated_recall{epsilon="none"} 1' in rendered

    def test_prefilter_rebinds_to_new_collections(self):
        first = banded_fleet(2, 2, seed=1)
        second = banded_fleet(2, 2, seed=2)
        prefilter = SketchPrefilter(target_recall=1.0)
        with BatchEngine(first, prefilter=prefilter) as engine:
            engine.run(all_pair_jobs(first))
        assert prefilter.stats()["tiers"]
        with BatchEngine(second, prefilter=prefilter) as engine:
            engine.run(all_pair_jobs(second))
        # The tier was rebuilt for the new collection, not reused.
        assert len(prefilter.stats()["tiers"]) == 1

    def test_unbound_prefilter_raises(self):
        prefilter = SketchPrefilter()
        with pytest.raises(ConfigurationError):
            prefilter.admits(1, 0, 1)


# ----------------------------------------------------------------------
# vectorised envelope screening (satellite)
# ----------------------------------------------------------------------
class TestVectorisedScreen:
    def test_separation_matrix_matches_scalar(self):
        fleet = banded_fleet(3, 2, band_gap=30, high=25)
        envelopes = [community_envelope(c) for c in fleet]
        mins, maxs = stack_envelopes(envelopes)
        for epsilon in (0, 1, 5, 40):
            matrix = separation_matrix(mins, maxs, epsilon)
            for i in range(len(fleet)):
                for j in range(len(fleet)):
                    if i == j:
                        continue
                    assert bool(matrix[i, j]) == envelopes_separated(
                        envelopes[i], envelopes[j], epsilon
                    )

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
