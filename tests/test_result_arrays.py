"""The numpy engines hand their matchings over as read-only int64 arrays,
and every method's JSON is the one the tuple-list results encoded."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import ALL_METHODS, HYBRID_METHODS, get_algorithm
from repro.core.types import Community
from repro.testing import random_counter_couple

METHODS = ALL_METHODS + HYBRID_METHODS

#: ``json.dumps(result.to_dict())`` of each method's numpy engine on
#: :func:`couple`, joined as ``(large, small)`` with the elapsed time
#: zeroed, as the results that held ``MatchedPair`` lists encoded it.
PINNED = {
    "ap-baseline": (
        '{"method": "ap-baseline", "exact": false'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[0, 1], [1, 4], [4, 7], [6, 9], [9, 13]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 79, "match": 5}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.5, "stage_seconds": {}}'
    ),
    "ap-minmax": (
        '{"method": "ap-minmax", "exact": false'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[0, 7], [1, 4], [6, 9], [9, 13]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 0, "match": 4}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.4, "stage_seconds": {}}'
    ),
    "ap-superego": (
        '{"method": "ap-superego", "exact": false'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[0, 1], [1, 4]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 0, "match": 8}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.2, "stage_seconds": {}}'
    ),
    "ex-baseline": (
        '{"method": "ex-baseline", "exact": true'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[4, 7], [1, 4], [6, 9], [9, 13], [0, 1]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 130, "match": 10}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.5, "stage_seconds": {}}'
    ),
    "ex-minmax": (
        '{"method": "ex-minmax", "exact": true'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[4, 7], [1, 4], [6, 9], [9, 13], [0, 1]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 0, "match": 10}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.5, "stage_seconds": {}}'
    ),
    "ex-superego": (
        '{"method": "ex-superego", "exact": true'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[0, 1], [1, 4]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 0, "no_match": 113, "match": 27}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.2, "stage_seconds": {}}'
    ),
    "ap-hybrid": (
        '{"method": "ap-hybrid", "exact": false'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[0, 1], [1, 4], [4, 7], [6, 9], [9, 13]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 89, "no_match": 0, "match": 10}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.5, "stage_seconds": {}}'
    ),
    "ex-hybrid": (
        '{"method": "ex-hybrid", "exact": true'
        ', "size_b": 10, "size_a": 14, "epsilon": 1'
        ', "pairs": [[4, 7], [1, 4], [6, 9], [9, 13], [0, 1]]'
        ', "events": {"min_prune": 0, "max_prune": 0'
        ', "no_overlap": 89, "no_match": 0, "match": 10}'
        ', "elapsed_seconds": 0.0, "p": 1.0'
        ', "engine": "numpy", "swapped": true'
        ', "similarity": 0.5, "stage_seconds": {}}'
    ),
}


def couple() -> tuple[Community, Community]:
    """A small fixed couple, larger side first, so every join swaps."""
    vectors_b, vectors_a = random_counter_couple(11, n_b=10, n_a=14, n_dims=4, high=5)
    return Community("A", vectors_a), Community("B", vectors_b)


def encoded(result) -> str:
    result.elapsed_seconds = 0.0
    return json.dumps(result.to_dict())


def assert_read_only_ids(result) -> None:
    for ids in (result.pairs_b, result.pairs_a):
        assert ids.dtype == np.int64 and ids.ndim == 1
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[:1] = 0


def test_every_method_is_pinned():
    assert sorted(PINNED) == sorted(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_numpy_engine_returns_read_only_arrays(method):
    result = get_algorithm(method, 1).join(*couple())
    assert result.n_matched
    assert_read_only_ids(result)


@pytest.mark.parametrize("method", METHODS)
def test_json_is_pinned(method):
    assert encoded(get_algorithm(method, 1).join(*couple())) == PINNED[method]


@pytest.mark.parametrize("method", ["ap-minmax", "ex-minmax"])
def test_batched_results_are_read_only_and_pinned(method):
    large, small = couple()
    shrunk = Community("S", small.vectors[::2])
    batch = [(large, small), (small, large), (large, shrunk), (large, small)]
    algorithm = get_algorithm(method, 1)
    results = algorithm.join_many(batch, enforce_size_ratio=False)
    for result, (first, second) in zip(results, batch):
        assert_read_only_ids(result)
        single = algorithm.join(first, second, enforce_size_ratio=False)
        assert encoded(result) == encoded(single)
    assert encoded(results[0]) == encoded(results[3]) == PINNED[method]
