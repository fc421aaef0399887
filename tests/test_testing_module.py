"""Tests for the public testing utilities (repro.testing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import csj_similarity
from repro.core.errors import ValidationError
from repro.core.types import Community, CSJResult
from repro.testing import (
    assert_valid_matching,
    brute_force_candidate_pairs,
    maximum_matching_size,
    random_counter_couple,
    validate_result,
)


class TestBruteForce:
    def test_known_pairs(self):
        vectors_b = np.array([[0, 0], [5, 5]])
        vectors_a = np.array([[1, 1], [5, 4], [9, 9]])
        pairs = brute_force_candidate_pairs(vectors_b, vectors_a, epsilon=1)
        assert pairs == {(0, 0), (1, 1)}

    def test_epsilon_zero(self):
        vectors = np.array([[2, 3]])
        assert brute_force_candidate_pairs(vectors, vectors, 0) == {(0, 0)}


class TestMaximumMatchingSize:
    def test_empty(self):
        assert maximum_matching_size(set()) == 0

    def test_star_graph(self):
        assert maximum_matching_size({(0, 0), (1, 0), (2, 0)}) == 1

    def test_perfect(self):
        assert maximum_matching_size({(i, i) for i in range(5)}) == 5


class TestAssertValidMatching:
    def test_accepts_valid(self):
        vectors = np.array([[1, 1], [2, 2]])
        assert_valid_matching([(0, 0), (1, 1)], vectors, vectors, epsilon=0)

    def test_rejects_duplicate(self):
        vectors = np.array([[1, 1], [1, 1]])
        with pytest.raises(AssertionError, match="matched twice"):
            assert_valid_matching([(0, 0), (0, 1)], vectors, vectors, 1)

    def test_rejects_epsilon_violation(self):
        vectors_b = np.array([[0, 0]])
        vectors_a = np.array([[5, 5]])
        with pytest.raises(AssertionError, match="violates epsilon"):
            assert_valid_matching([(0, 0)], vectors_b, vectors_a, 1)


class TestValidateResult:
    def make_pair(self):
        vectors_b, vectors_a = random_counter_couple(2)
        return Community("B", vectors_b), Community("A", vectors_a)

    def test_real_result_passes(self):
        community_b, community_a = self.make_pair()
        result = csj_similarity(community_b, community_a, epsilon=1)
        validate_result(result, community_b, community_a)

    def test_detects_size_mismatch(self):
        community_b, community_a = self.make_pair()
        result = csj_similarity(community_b, community_a, epsilon=1)
        with pytest.raises(ValidationError, match="sizes"):
            validate_result(result, community_a, community_b)

    def test_detects_tampered_pairs(self):
        community_b, community_a = self.make_pair()
        tampered = CSJResult(
            method="fake",
            exact=True,
            size_b=community_b.n_users,
            size_a=community_a.n_users,
            epsilon=0,
            pairs_b=[0],
            pairs_a=[community_a.n_users + 5],
        )
        with pytest.raises(ValidationError, match="out of range"):
            validate_result(tampered, community_b, community_a)

    def test_detects_an_edited_pairs_view(self):
        community_b, community_a = self.make_pair()
        result = csj_similarity(community_b, community_a, epsilon=1)
        result.pairs.append(result.pairs[0])
        with pytest.raises(ValidationError, match="no longer agree"):
            validate_result(result, community_b, community_a)

    def test_detects_a_violating_pair(self):
        community_b, community_a = self.make_pair()
        far = int(np.abs(community_b.vectors[0] - community_a.vectors).max(axis=1).argmax())
        tampered = CSJResult(
            method="fake",
            exact=True,
            size_b=community_b.n_users,
            size_a=community_a.n_users,
            epsilon=0,
            pairs_b=[0],
            pairs_a=[far],
        )
        with pytest.raises(ValidationError, match=f"pair \\(0, {far}\\) violates epsilon 0"):
            validate_result(tampered, community_b, community_a)


class TestRandomCounterCouple:
    def test_shapes(self):
        vectors_b, vectors_a = random_counter_couple(1, n_b=10, n_a=12, n_dims=4)
        assert vectors_b.shape == (10, 4)
        assert vectors_a.shape == (12, 4)

    def test_reproducible(self):
        first = random_counter_couple(9)
        second = random_counter_couple(9)
        assert np.array_equal(first[0], second[0])

    def test_produces_matching_ambiguity(self):
        vectors_b, vectors_a = random_counter_couple(5)
        pairs = brute_force_candidate_pairs(vectors_b, vectors_a, epsilon=1)
        # The near-duplicate structure must generate real candidates.
        assert len(pairs) >= 3
