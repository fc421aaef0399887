"""Tests for the extensions (vector epsilon, weighted similarity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import csj_similarity
from repro.core.errors import ConfigurationError, ValidationError
from repro.core.types import Community
from repro.extensions import (
    VectorEpsilonJoin,
    vector_epsilon_similarity,
    weighted_similarity,
)
from tests.conftest import assert_valid_matching, random_couple


@pytest.fixture
def couple():
    vectors_b, vectors_a = random_couple(77)
    return Community("B", vectors_b), Community("A", vectors_a)


class TestVectorEpsilonJoin:
    def test_uniform_vector_equals_scalar_csj(self, couple):
        community_b, community_a = couple
        d = community_b.n_dims
        vector_result = vector_epsilon_similarity(
            community_b, community_a, [1] * d, matcher="hopcroft_karp"
        )
        scalar_result = csj_similarity(
            community_b, community_a, epsilon=1,
            method="ex-minmax", matcher="hopcroft_karp",
        )
        assert vector_result.pair_tuples() == scalar_result.pair_tuples()

    @pytest.mark.parametrize("seed", range(5))
    def test_encoded_equals_baseline_strategy(self, seed):
        vectors_b, vectors_a = random_couple(seed + 900)
        community_b = Community("B", vectors_b)
        community_a = Community("A", vectors_a)
        epsilons = [0, 1, 2, 1, 0, 3][: community_b.n_dims]
        encoded = VectorEpsilonJoin(epsilons, strategy="encoded").join(
            community_b, community_a
        )
        baseline = VectorEpsilonJoin(epsilons, strategy="baseline").join(
            community_b, community_a
        )
        assert set(encoded.pair_tuples()) == set(baseline.pair_tuples())

    def test_matching_respects_per_dimension_thresholds(self, couple):
        community_b, community_a = couple
        epsilons = np.array([3, 0, 2, 1, 0, 2])[: community_b.n_dims]
        result = VectorEpsilonJoin(epsilons).join(community_b, community_a)
        for b_index, a_index in result.pair_tuples():
            diff = np.abs(
                community_b.vectors[b_index] - community_a.vectors[a_index]
            )
            assert (diff <= epsilons).all()

    def test_loosening_one_dimension_only_grows_matching(self, couple):
        community_b, community_a = couple
        d = community_b.n_dims
        tight = VectorEpsilonJoin([1] * d, matcher="hopcroft_karp").join(*couple)
        loose_eps = [1] * d
        loose_eps[0] = 5
        loose = VectorEpsilonJoin(loose_eps, matcher="hopcroft_karp").join(*couple)
        assert loose.n_matched >= tight.n_matched

    def test_zero_vector_requires_equality(self):
        vectors = np.arange(12).reshape(4, 3)
        community_b = Community("B", vectors)
        community_a = Community("A", vectors)
        result = VectorEpsilonJoin([0, 0, 0]).join(community_b, community_a)
        assert result.similarity == 1.0

    def test_greedy_matcher_not_exact(self, couple):
        result = VectorEpsilonJoin([1] * 6, matcher="greedy").join(*couple)
        assert result.exact is False

    def test_dimension_mismatch_rejected(self, couple):
        with pytest.raises(ConfigurationError, match="d="):
            VectorEpsilonJoin([1, 1]).join(*couple)

    def test_invalid_epsilons(self):
        with pytest.raises(ConfigurationError):
            VectorEpsilonJoin([])
        with pytest.raises(ConfigurationError):
            VectorEpsilonJoin([1, -1])
        with pytest.raises(ConfigurationError):
            VectorEpsilonJoin([1.5, 2.0])
        with pytest.raises(ConfigurationError):
            VectorEpsilonJoin([[1, 2]])

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            VectorEpsilonJoin([1, 1], strategy="quantum")

    def test_result_is_one_to_one(self, couple):
        community_b, community_a = couple
        result = VectorEpsilonJoin([2] * community_b.n_dims).join(
            community_b, community_a
        )
        result.check_one_to_one()


class TestWeightedSimilarity:
    def test_uniform_weights_recover_eq1(self, couple):
        outcome = weighted_similarity(*couple, epsilon=1, weights="uniform")
        assert outcome.weighted == pytest.approx(outcome.unweighted)
        assert outcome.scheme == "uniform"

    def test_activity_weights_shift_the_score(self, couple):
        outcome = weighted_similarity(*couple, epsilon=1, weights="activity")
        assert 0.0 <= outcome.weighted <= 1.0
        assert outcome.base.exact

    def test_custom_weights(self):
        vectors = np.array([[0, 0], [10, 10], [50, 50]])
        community_b = Community("B", vectors)
        # A matches only the first two B users.
        community_a = Community("A", np.array([[0, 0], [10, 10], [90, 90]]))
        outcome = weighted_similarity(
            community_b, community_a, epsilon=0, weights=[1.0, 3.0, 6.0]
        )
        # Matched weight = 1 + 3 of total 10.
        assert outcome.weighted == pytest.approx(0.4)
        assert outcome.unweighted == pytest.approx(2 / 3)
        assert outcome.scheme == "custom"

    def test_weights_apply_to_oriented_b(self):
        rng = np.random.default_rng(5)
        small = Community("small", rng.integers(0, 9, size=(6, 3)))
        big = Community("big", rng.integers(0, 9, size=(10, 3)))
        # Passing the pair reversed must weight the *small* side.
        outcome = weighted_similarity(
            big, small, epsilon=2, weights=[1.0] * 6
        )
        assert outcome.base.swapped

    def test_invalid_scheme(self, couple):
        with pytest.raises(ConfigurationError, match="unknown weight scheme"):
            weighted_similarity(*couple, epsilon=1, weights="karma")

    def test_invalid_vector_shapes(self, couple):
        with pytest.raises(ConfigurationError, match="shape"):
            weighted_similarity(*couple, epsilon=1, weights=[1.0, 2.0])

    def test_all_zero_weights_rejected(self, couple):
        community_b, _ = couple
        with pytest.raises(ConfigurationError, match="all be zero"):
            weighted_similarity(
                *couple, epsilon=1, weights=[0.0] * community_b.n_users
            )


class TestOptimalWeightedMatching:
    @pytest.mark.parametrize("epsilon", [-1, 1.5, True])
    def test_invalid_epsilon_rejected(self, couple, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            weighted_similarity(*couple, epsilon=epsilon, optimize=True)

    def test_optimal_never_below_greedy_weight(self, couple):
        greedy = weighted_similarity(*couple, epsilon=1, weights="activity")
        optimal = weighted_similarity(
            *couple, epsilon=1, weights="activity", optimize=True
        )
        assert optimal.weighted >= greedy.weighted - 1e-12
        optimal.base.check_one_to_one()

    def test_optimal_prefers_heavy_users(self):
        # b0 (heavy) and b1 (light) both match only a0: the optimal
        # weighted matching must cover the heavy user.
        community_b = Community("B", np.array([[10, 10], [10, 11]]))
        community_a = Community("A", np.array([[10, 10], [50, 50]]))
        outcome = weighted_similarity(
            community_b,
            community_a,
            epsilon=0,
            weights=[100.0, 1.0],
            optimize=True,
        )
        matched_b = {pair.b_index for pair in outcome.base.pairs}
        assert matched_b == {0}
        assert outcome.weighted == pytest.approx(100.0 / 101.0)

    def test_optimal_pairs_satisfy_condition(self, couple):
        community_b, community_a = couple
        outcome = weighted_similarity(
            community_b, community_a, epsilon=1, weights="uniform", optimize=True
        )
        for pair in outcome.base.pairs:
            diff = np.abs(
                community_b.vectors[pair.b_index]
                - community_a.vectors[pair.a_index]
            ).max()
            assert diff <= 1

    def test_optimal_uniform_weight_equals_maximum_count(self, couple):
        from repro import csj_similarity

        outcome = weighted_similarity(
            *couple, epsilon=1, weights="uniform", optimize=True
        )
        exact = csj_similarity(
            *couple, epsilon=1, method="ex-minmax", matcher="hopcroft_karp"
        )
        # Uniform weights make weight maximisation equal cardinality
        # maximisation.
        assert outcome.base.n_matched == exact.n_matched
