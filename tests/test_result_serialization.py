"""Tests for CSJResult (de)serialisation (to_dict / from_dict)."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import csj_similarity
from repro.core.errors import ValidationError
from repro.core.types import Community, CSJResult
from tests.conftest import random_couple


@pytest.fixture
def result() -> CSJResult:
    vectors_b, vectors_a = random_couple(123)
    return csj_similarity(
        Community("B", vectors_b), Community("A", vectors_a), epsilon=1,
        method="ex-minmax", engine="python",
    )


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, result):
        restored = CSJResult.from_dict(result.to_dict())
        assert restored.method == result.method
        assert restored.exact == result.exact
        assert restored.pair_tuples() == result.pair_tuples()
        assert restored.similarity == pytest.approx(result.similarity)
        assert restored.events.as_dict() == result.events.as_dict()
        assert restored.engine == result.engine

    def test_json_round_trip(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        restored = CSJResult.from_dict(payload)
        assert restored.n_matched == result.n_matched

    def test_to_dict_is_json_serialisable(self, result):
        json.dumps(result.to_dict())  # must not raise

    def test_minimal_payload(self):
        restored = CSJResult.from_dict(
            {
                "method": "ex-minmax",
                "exact": True,
                "size_b": 4,
                "size_a": 5,
                "epsilon": 1,
            }
        )
        assert restored.n_matched == 0
        assert restored.similarity == 0.0

    def test_similarity_consistency_enforced(self, result):
        payload = result.to_dict()
        payload["similarity"] = 0.987654
        with pytest.raises(ValidationError, match="disagrees"):
            CSJResult.from_dict(payload)

    def test_stored_similarity_matches(self, result):
        payload = result.to_dict()
        assert payload["similarity"] == pytest.approx(result.similarity)


class TestValueEquality:
    def test_json_round_trip_equals_the_result(self, result):
        assert CSJResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

    def test_one_changed_pair_is_unequal(self, result):
        restored = CSJResult.from_dict(result.to_dict())
        pairs_a = result.pairs_a.copy()
        pairs_a[0] += 1
        changed = dataclasses.replace(restored, pairs_a=pairs_a)
        assert (changed == result) is False
        assert changed != result

    def test_other_fields_still_compare(self, result):
        restored = CSJResult.from_dict(result.to_dict())
        restored.events.match += 1
        assert restored != result

    def test_lengths_and_types_never_raise(self, result):
        shorter = dataclasses.replace(
            result, pairs_b=result.pairs_b[:-1], pairs_a=result.pairs_a[:-1]
        )
        assert shorter != result
        assert result != result.to_dict()


class TestPairArrays:
    def test_arrays_are_read_only_int64(self):
        result = CSJResult("m", True, 3, 4, 1, pairs_b=[0, 2], pairs_a=[3, 1])
        for ids in (result.pairs_b, result.pairs_a):
            assert ids.dtype == np.int64 and not ids.flags.writeable
        assert result.pair_tuples() == [(0, 3), (2, 1)]
        assert result.n_matched == 2

    def test_a_writeable_array_is_copied_not_frozen(self):
        ids = np.array([0, 1])
        result = CSJResult("m", True, 3, 4, 1, pairs_b=ids, pairs_a=ids[::-1])
        assert ids.flags.writeable
        ids[0] = 2
        assert result.pair_tuples() == [(0, 1), (1, 0)]

    def test_empty_by_default(self):
        result = CSJResult("m", True, 3, 4, 1)
        assert result.n_matched == 0 and result.pairs == [] and result.pair_tuples() == []

    def test_lengths_must_agree(self):
        with pytest.raises(ValidationError, match="differ in length"):
            CSJResult("m", True, 3, 4, 1, pairs_b=[0, 1], pairs_a=[0])

    def test_pairs_view_is_memoised(self, result):
        assert result.pairs is result.pairs
        assert [pair.as_tuple() for pair in result.pairs] == result.pair_tuples()

    def test_an_edited_view_fails_the_check(self, result):
        result.check_one_to_one()
        result.pairs.append(result.pairs[0])
        with pytest.raises(ValidationError, match="no longer agree"):
            result.check_one_to_one()

    def test_detached_shares_arrays_not_state(self, result):
        result.stage_seconds["join"] = 1.0
        shell = result.detached()
        assert shell == result
        assert shell.pairs_b is result.pairs_b and shell.pairs_a is result.pairs_a
        shell.events.match += 1
        shell.stage_seconds["join"] = 2.0
        shell.swapped = not shell.swapped
        shell.pairs.pop()
        assert result.events.match == shell.events.match - 1
        assert result.stage_seconds == {"join": 1.0}
        assert result.swapped != shell.swapped
        assert len(result.pairs) == result.n_matched

    def test_unpickled_arrays_stay_read_only(self, result):
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert not restored.pairs_b.flags.writeable
        assert not restored.pairs_a.flags.writeable

    def test_malformed_payload_pairs_rejected(self, result):
        payload = result.to_dict()
        payload["pairs"] = [[0, 1, 2]]
        with pytest.raises(ValidationError, match="tuples"):
            CSJResult.from_dict(payload)
