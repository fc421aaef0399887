"""Edge-case battery across the whole method suite.

Degenerate shapes (single users, one dimension), tie-heavy adversarial
inputs (identical encoded sums), duplicated users ("a pair can have the
same user", Section 3), boundary epsilons and large counter magnitudes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ALL_METHODS, csj_similarity
from repro.algorithms import ENGINES
from repro.algorithms.registry import ALGORITHMS, get_algorithm
from repro.core.types import Community
from tests.conftest import (
    HUGE_EPSILONS,
    assert_valid_matching,
    maximum_matching_size,
    small_counter_couple,
)


class TestDegenerateShapes:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_user_each(self, method):
        b = Community("B", [[3, 4, 5]])
        a = Community("A", [[4, 3, 5]])
        result = csj_similarity(b, a, epsilon=1, method=method)
        assert result.similarity == 1.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_user_no_match(self, method):
        b = Community("B", [[0, 0, 0]])
        a = Community("A", [[10, 0, 0]])
        result = csj_similarity(b, a, epsilon=1, method=method)
        assert result.similarity == 0.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_one_dimension(self, method):
        rng = np.random.default_rng(1)
        b = Community("B", rng.integers(0, 10, size=(10, 1)))
        a = Community("A", rng.integers(0, 10, size=(12, 1)))
        result = csj_similarity(b, a, epsilon=1, method=method)
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, 1)

    @pytest.mark.parametrize("method", ("ex-baseline", "ex-minmax"))
    def test_one_dimension_exact_reaches_oracle(self, method):
        rng = np.random.default_rng(2)
        vectors_b = rng.integers(0, 6, size=(12, 1))
        vectors_a = rng.integers(0, 6, size=(14, 1))
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = csj_similarity(
            b, a, epsilon=1, method=method, matcher="hopcroft_karp"
        )
        pairs = {
            (i, j)
            for i in range(12)
            for j in range(14)
            if abs(int(vectors_b[i, 0]) - int(vectors_a[j, 0])) <= 1
        }
        assert result.n_matched == maximum_matching_size(pairs)


class TestTieHeavyInputs:
    """All-equal encoded sums defeat the window pruning entirely; the
    algorithms must stay correct (only slower)."""

    def equal_sum_couple(self, seed: int) -> tuple[Community, Community]:
        rng = np.random.default_rng(seed)
        # Rows are permutations of each other: identical sums, varied
        # per-dimension values.
        base = np.array([0, 1, 2, 3, 4, 5])
        vectors_b = np.stack([rng.permutation(base) for _ in range(15)])
        vectors_a = np.stack([rng.permutation(base) for _ in range(18)])
        return Community("B", vectors_b), Community("A", vectors_a)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_valid_on_equal_sums(self, method):
        b, a = self.equal_sum_couple(3)
        result = csj_similarity(b, a, epsilon=1, method=method)
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, 1)

    def test_exact_methods_agree_on_equal_sums(self):
        b, a = self.equal_sum_couple(4)
        baseline = csj_similarity(b, a, epsilon=1, method="ex-baseline")
        minmax = csj_similarity(b, a, epsilon=1, method="ex-minmax")
        assert set(baseline.pair_tuples()) == set(minmax.pair_tuples())

    def test_engines_agree_on_equal_sums(self):
        b, a = self.equal_sum_couple(5)
        for method in ("ap-minmax", "ex-minmax"):
            python = csj_similarity(b, a, epsilon=1, method=method, engine="python")
            numpy_ = csj_similarity(b, a, epsilon=1, method=method, engine="numpy")
            assert set(python.pair_tuples()) == set(numpy_.pair_tuples())


class TestDuplicatedUsers:
    """Section 3: "a pair can have the same user" — duplicates are
    legitimate and each copy can be matched independently."""

    def test_all_duplicates_fully_match(self):
        row = [5, 7, 9]
        b = Community("B", [row] * 6)
        a = Community("A", [row] * 8)
        for method in ALL_METHODS:
            result = csj_similarity(b, a, epsilon=0, method=method)
            assert result.similarity == 1.0, method

    def test_duplicates_limited_by_partner_count(self):
        b = Community("B", [[5, 5]] * 4)
        a = Community("A", [[5, 5], [5, 5], [100, 100], [100, 100]])
        result = csj_similarity(b, a, epsilon=0, method="ex-minmax")
        assert result.n_matched == 2


class TestMagnitudes:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_large_counters(self, method):
        rng = np.random.default_rng(8)
        base = rng.integers(10**8, 10**9, size=(10, 4))
        noisy = base + rng.integers(-1, 2, size=base.shape)
        b = Community("B", base)
        a = Community("A", noisy)
        result = csj_similarity(b, a, epsilon=1, method=method)
        assert result.similarity == 1.0

    def test_huge_epsilon_synthetic_scale(self):
        rng = np.random.default_rng(9)
        vectors = rng.integers(0, 500_000, size=(30, 27))
        b = Community("B", vectors)
        a = Community("A", np.maximum(vectors + rng.integers(-7500, 7501, size=vectors.shape), 0))
        result = csj_similarity(b, a, epsilon=15000, method="ex-minmax")
        assert result.similarity == 1.0

    @pytest.mark.parametrize("epsilon", HUGE_EPSILONS)
    def test_epsilon_beyond_int64_matches_everyone(self, epsilon):
        # Any epsilon above the largest counter admits every pair, so all
        # eight methods on both engines match all of B, and the result
        # reports the caller's epsilon.
        b, a = small_counter_couple()
        for name in ALGORITHMS:
            for engine in ENGINES:
                result = get_algorithm(name, epsilon, engine=engine).join(b, a)
                assert result.n_matched == b.n_users, (name, engine)
                assert result.epsilon == epsilon

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_all_zero_vectors(self, method):
        b = Community("B", np.zeros((5, 4), dtype=np.int64))
        a = Community("A", np.zeros((6, 4), dtype=np.int64))
        result = csj_similarity(b, a, epsilon=0, method=method)
        assert result.similarity == 1.0


class TestSelfJoin:
    @pytest.mark.parametrize("method", ("ex-baseline", "ex-minmax", "ex-superego"))
    def test_community_vs_itself(self, method, vk_mini_couple):
        community, _ = vk_mini_couple
        twin = Community("twin", community.vectors)
        result = csj_similarity(community, twin, epsilon=0, method=method)
        assert result.similarity == 1.0
