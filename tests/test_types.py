"""Unit tests for the core data model (repro.core.types)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.core.types import (
    Community,
    CSJResult,
    Envelope,
    EventCounts,
    MatchedPair,
    community_envelope,
    pairs_from_tuples,
)


class TestCommunity:
    def test_basic_construction(self):
        community = Community("Nike", np.arange(12).reshape(4, 3))
        assert community.n_users == 4
        assert community.n_dims == 3
        assert len(community) == 4

    def test_vectors_are_int64(self):
        community = Community("x", np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert community.vectors.dtype == np.int64

    def test_float_integers_accepted(self):
        community = Community("x", np.array([[1.0, 2.0]]))
        assert community.vectors.dtype == np.int64
        assert community.vectors[0, 1] == 2

    def test_non_integer_floats_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            Community("x", np.array([[1.5, 2.0]]))

    def test_negative_counters_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            Community("x", np.array([[1, -2]]))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            Community("x", np.array([1, 2, 3]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            Community("x", np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValidationError, match="non-empty"):
            Community("x", np.zeros((3, 0), dtype=np.int64))

    def test_vectors_are_read_only(self):
        community = Community("x", np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            community.vectors[0, 0] = 5

    def test_vectors_do_not_alias_a_callers_array(self):
        from repro.algorithms import ExMinMax

        base = np.full((6, 3), 9, dtype=np.int64)
        b = Community("B", base[:3])
        a = Community("A", np.zeros((4, 3), dtype=np.int64))
        assert ExMinMax(0).join(b, a).n_matched == 0
        base[:3] = 0
        # The community (and its memoised encodings) still holds the 9s
        # it was built from; only a new community sees the write.
        assert (b.vectors == 9).all()
        assert ExMinMax(0).join(b, a).n_matched == 0
        assert ExMinMax(0).join(Community("B", base[:3]), a).n_matched == 3

    def test_callers_array_stays_writeable(self):
        own = np.ones((3, 2), dtype=np.int64)
        community = Community("C", own)
        assert own.flags.writeable
        own[0, 0] = 7
        assert community.vectors[0, 0] == 1

    def test_vectors_share_no_memory_with_the_input(self):
        built = Community("x", [[1, 2], [3, 4]])
        assert built.vectors.flags.owndata
        rebuilt = Community("y", built.vectors)
        assert not np.shares_memory(rebuilt.vectors, built.vectors)
        assert not rebuilt.vectors.flags.writeable

    def test_subset(self):
        community = Community("x", np.arange(12).reshape(4, 3), category="Sport")
        subset = community.subset([0, 2])
        assert subset.n_users == 2
        assert subset.category == "Sport"
        assert np.array_equal(subset.vectors[1], community.vectors[2])

    def test_subset_custom_name(self):
        community = Community("x", np.ones((3, 2), dtype=np.int64))
        assert community.subset([1], name="slice").name == "slice"

    def test_list_input_accepted(self):
        community = Community("x", [[1, 2], [3, 4]])
        assert community.n_users == 2


class TestEventCounts:
    def test_defaults_are_zero(self):
        counts = EventCounts()
        assert counts.total == 0
        assert counts.comparisons == 0

    def test_addition(self):
        left = EventCounts(min_prune=1, match=2)
        right = EventCounts(no_match=3, match=1)
        combined = left + right
        assert combined.min_prune == 1
        assert combined.no_match == 3
        assert combined.match == 3
        assert combined.total == 7

    def test_comparisons_counts_full_checks_only(self):
        counts = EventCounts(min_prune=5, no_overlap=4, no_match=3, match=2)
        assert counts.comparisons == 5

    def test_as_dict_round_trip(self):
        counts = EventCounts(min_prune=1, max_prune=2, no_overlap=3, no_match=4, match=5)
        assert counts.as_dict() == {
            "min_prune": 1,
            "max_prune": 2,
            "no_overlap": 3,
            "no_match": 4,
            "match": 5,
        }


class TestCSJResult:
    def make_result(self, pairs, size_b=10, p=1.0):
        pairs_b, pairs_a = pairs_from_tuples(pairs)
        return CSJResult(
            method="ex-minmax",
            exact=True,
            size_b=size_b,
            size_a=12,
            epsilon=1,
            pairs_b=pairs_b,
            pairs_a=pairs_a,
            p=p,
        )

    def test_similarity_is_eq1(self):
        result = self.make_result([(0, 0), (1, 3)], size_b=10)
        assert result.similarity == pytest.approx(0.2)
        assert result.similarity_percent == pytest.approx(20.0)

    def test_p_factor_scales_similarity(self):
        result = self.make_result([(0, 0)], size_b=10, p=0.5)
        assert result.similarity == pytest.approx(0.05)

    def test_zero_size_b_is_zero_similarity(self):
        result = self.make_result([], size_b=0)
        assert result.similarity == 0.0

    def test_check_one_to_one_passes(self):
        self.make_result([(0, 0), (1, 1)]).check_one_to_one()

    def test_check_one_to_one_rejects_duplicate_b(self):
        with pytest.raises(ValidationError, match="one-to-one"):
            self.make_result([(0, 0), (0, 1)]).check_one_to_one()

    def test_check_one_to_one_rejects_duplicate_a(self):
        with pytest.raises(ValidationError, match="one-to-one"):
            self.make_result([(0, 1), (2, 1)]).check_one_to_one()

    def test_summary_mentions_method_and_similarity(self):
        summary = self.make_result([(0, 0)]).summary()
        assert "ex-minmax" in summary
        assert "10.00%" in summary

    def test_pair_tuples(self):
        result = self.make_result([(3, 4)])
        assert result.pair_tuples() == [(3, 4)]


class TestMatchedPair:
    def test_as_tuple(self):
        assert MatchedPair(2, 5).as_tuple() == (2, 5)

    def test_frozen(self):
        pair = MatchedPair(1, 2)
        with pytest.raises(AttributeError):
            pair.b_index = 9


class TestEnvelopeEquality:
    def make(self) -> Envelope:
        return community_envelope(Community("x", np.array([[1, 5], [3, 2]])))

    def test_pickled_round_trip_is_equal(self):
        envelope = self.make()
        assert envelope.largest == 5
        assert (envelope == pickle.loads(pickle.dumps(envelope))) is True

    def test_changed_maxs_is_unequal(self):
        envelope = self.make()
        changed = Envelope(envelope.mins, envelope.maxs + np.array([0, 1]))
        assert (envelope == changed) is False
        assert envelope != changed


class TestPairsFromTuples:
    def test_tuples_become_read_only_arrays_in_order(self):
        pairs_b, pairs_a = pairs_from_tuples([(3, 1), (0, 2)])
        assert pairs_b.tolist() == [3, 0] and pairs_a.tolist() == [1, 2]
        assert pairs_b.dtype == np.int64 and not pairs_a.flags.writeable
