"""Property-based tests for the extensions and maintenance substrates."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import csj_similarity
from repro.algorithms.minmax import band_edges
from repro.core.incremental import IncrementalCommunity
from repro.core.matching import candidate_edges
from repro.core.types import Community
from repro.extensions import VectorEpsilonJoin

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small_matrices = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.integers(min_value=2, max_value=5).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
)


def as_couple(rows_b, rows_a):
    d = min(len(rows_b[0]), len(rows_a[0]))
    vectors_b = np.array([row[:d] for row in rows_b], dtype=np.int64)
    vectors_a = np.array([row[:d] for row in rows_a], dtype=np.int64)
    if len(vectors_b) > len(vectors_a):
        vectors_b, vectors_a = vectors_a, vectors_b
    vectors_a = vectors_a[: 2 * len(vectors_b)]
    return Community("B", vectors_b), Community("A", vectors_a)


# ----------------------------------------------------------------------
# vector-epsilon extension
# ----------------------------------------------------------------------


@given(rows_b=small_matrices, rows_a=small_matrices, epsilon=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_uniform_vector_epsilon_equals_scalar(rows_b, rows_a, epsilon):
    b, a = as_couple(rows_b, rows_a)
    vector = VectorEpsilonJoin(
        [epsilon] * b.n_dims, matcher="hopcroft_karp"
    ).join(b, a)
    scalar = csj_similarity(
        b, a, epsilon=epsilon, method="ex-minmax", matcher="hopcroft_karp"
    )
    assert vector.pair_tuples() == scalar.pair_tuples()


@given(
    rows_b=small_matrices,
    rows_a=small_matrices,
    base=st.integers(0, 2),
    bumps=st.lists(st.integers(0, 3), min_size=5, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_vector_epsilon_pointwise_monotone(rows_b, rows_a, base, bumps):
    b, a = as_couple(rows_b, rows_a)
    d = b.n_dims
    tight = [base] * d
    loose = [base + bumps[i % len(bumps)] for i in range(d)]
    tight_result = VectorEpsilonJoin(tight, matcher="hopcroft_karp").join(b, a)
    loose_result = VectorEpsilonJoin(loose, matcher="hopcroft_karp").join(b, a)
    assert loose_result.n_matched >= tight_result.n_matched


@given(rows_b=small_matrices, rows_a=small_matrices)
@settings(max_examples=30, deadline=None)
def test_vector_epsilon_strategies_agree(rows_b, rows_a):
    b, a = as_couple(rows_b, rows_a)
    epsilons = [(i % 3) for i in range(b.n_dims)]
    encoded = VectorEpsilonJoin(epsilons, strategy="encoded").join(b, a)
    baseline = VectorEpsilonJoin(epsilons, strategy="baseline").join(b, a)
    assert set(encoded.pair_tuples()) == set(baseline.pair_tuples())


@st.composite
def band_cases(draw):
    """Two small communities of one ``d`` (1 to 5), an epsilon (an int,
    or one per dimension, up to above the largest counter) and a part
    count (up to above ``d``)."""
    d = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d)
    rows_b = draw(st.lists(row, min_size=1, max_size=9))
    rows_a = draw(st.lists(row, min_size=1, max_size=12))
    thresholds = st.integers(min_value=0, max_value=8)
    epsilon = draw(thresholds | st.lists(thresholds, min_size=d, max_size=d).map(tuple))
    return rows_b, rows_a, epsilon, draw(st.integers(min_value=1, max_value=7))


@given(case=band_cases())
@example(case=([[3]], [[3], [0], [4]], (0,), 4))
@example(case=([[0, 5, 2], [6, 6, 6]], [[0, 9, 2], [6, 0, 6], [1, 5, 3]], (0, 50, 1), 2))
@settings(max_examples=80, deadline=None)
def test_band_edges_equal_candidate_edges(case):
    rows_b, rows_a, epsilon, n_parts = case
    b, a = Community("B", np.array(rows_b)), Community("A", np.array(rows_a))
    rows = band_edges(b, a, epsilon, n_parts)
    expected = candidate_edges(b.vectors, a.vectors, epsilon)
    assert [array.dtype for array in rows] == [np.int64, np.int64]
    assert [array.tolist() for array in rows] == [array.tolist() for array in expected]


# ----------------------------------------------------------------------
# incremental maintenance
# ----------------------------------------------------------------------


@given(
    rows=small_matrices,
    likes=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 4), st.integers(1, 5)),
        max_size=25,
    ),
)
@settings(max_examples=40, deadline=None)
def test_incremental_counters_only_grow(rows, likes):
    matrix = np.array(rows, dtype=np.int64)
    community = IncrementalCommunity("X", matrix.shape[1], vectors=matrix)
    before = community.snapshot().vectors
    for user, dim, count in likes:
        if user in community and dim < community.n_dims:
            community.record_like(user, dim, count=count)
    after = community.snapshot().vectors
    assert (after >= before).all()
    assert after.sum() >= before.sum()


@given(rows=small_matrices)
@settings(max_examples=30, deadline=None)
def test_incremental_snapshot_round_trip(rows):
    matrix = np.array(rows, dtype=np.int64)
    community = IncrementalCommunity("X", matrix.shape[1], vectors=matrix)
    snapshot = community.snapshot()
    assert np.array_equal(snapshot.vectors, matrix)
    # The snapshot is frozen: further mutation cannot leak into it.
    community.record_like(0, 0, count=3)
    assert np.array_equal(snapshot.vectors, matrix)


@given(rows=small_matrices, drop=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_incremental_unsubscribe_shrinks_snapshot(rows, drop):
    matrix = np.array(rows, dtype=np.int64)
    community = IncrementalCommunity("X", matrix.shape[1], vectors=matrix)
    if drop in community and community.n_users > 1:
        community.unsubscribe(drop)
        snapshot = community.snapshot()
        assert snapshot.n_users == len(matrix) - 1
