"""Property-based tests (hypothesis) on the core invariants.

These cover the load-bearing guarantees of the system:

* the MinMax encoding is a *necessary* condition — no candidate pair is
  ever pruned falsely;
* CSF and Hopcroft–Karp always return valid one-to-one matchings inside
  the candidate graph, with HK reaching the networkx maximum;
* the array CSF (``match_edges``) picks exactly what the dict CSF picks,
  in the same order, whatever the edge order, duplicates or ids;
* every method's matching satisfies the CSJ per-dimension condition for
  arbitrary inputs, epsilons and part counts;
* the two engines of each method agree on arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import csj_similarity
from repro.core.encoding import MinMaxEncoder, split_dimensions
from repro.core.matching import (
    build_adjacency,
    cover_smallest_first,
    hopcroft_karp,
    match_edges,
    pairs_are_one_to_one,
    pairs_respect_graph,
)
from repro.core.types import Community
from tests.conftest import (
    assert_valid_matching,
    brute_force_candidate_pairs,
    maximum_matching_size,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

counter_matrices = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.integers(min_value=2, max_value=6).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
)

edge_sets = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)
    ),
    max_size=40,
)


#: Edge lists with repeats, in any order.
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)
    ),
    max_size=60,
)

#: Sparse, non-contiguous ids, negative ones and ids near the int64
#: limits among them.
sparse_ids = st.sampled_from([-(2**62), -7, 0, 3, 1_000, 10**9 + 7, 2**40, 2**62])


def make_couple(rows_b: list[list[int]], rows_a: list[list[int]]):
    d = min(len(rows_b[0]), len(rows_a[0]))
    vectors_b = np.array([row[:d] for row in rows_b], dtype=np.int64)
    vectors_a = np.array([row[:d] for row in rows_a], dtype=np.int64)
    if len(vectors_b) > len(vectors_a):
        vectors_b, vectors_a = vectors_a, vectors_b
    # Respect the CSJ size-ratio rule: |A| <= 2 * |B|.
    vectors_a = vectors_a[: 2 * len(vectors_b)]
    return Community("B", vectors_b), Community("A", vectors_a)


# ----------------------------------------------------------------------
# encoding invariants
# ----------------------------------------------------------------------


@given(
    rows=counter_matrices,
    epsilon=st.integers(min_value=0, max_value=3),
    n_parts=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_encoding_never_prunes_a_true_match(rows, epsilon, n_parts):
    vectors = np.array(rows, dtype=np.int64)
    encoder = MinMaxEncoder(epsilon, n_parts)
    targets = encoder.encode_targets(vectors)
    candidates = encoder.encode_candidates(vectors)
    pos_b = {int(real): i for i, real in enumerate(targets.real_ids)}
    pos_a = {int(real): j for j, real in enumerate(candidates.real_ids)}
    n = len(vectors)
    for b_row in range(n):
        for a_row in range(n):
            if np.abs(vectors[b_row] - vectors[a_row]).max() > epsilon:
                continue
            i, j = pos_b[b_row], pos_a[a_row]
            assert candidates.encoded_min[j] <= targets.encoded_id[i] <= candidates.encoded_max[j]
            assert MinMaxEncoder.parts_overlap(
                targets.parts[i], candidates.range_min[j], candidates.range_max[j]
            )


@given(
    n_dims=st.integers(min_value=1, max_value=40),
    n_parts=st.integers(min_value=1, max_value=8),
)
def test_split_dimensions_partitions(n_dims, n_parts):
    if n_parts > n_dims:
        n_parts = n_dims
    slices = split_dimensions(n_dims, n_parts)
    assert len(slices) == n_parts
    covered = []
    for sl in slices:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(n_dims))
    sizes = [sl.stop - sl.start for sl in slices]
    assert max(sizes) - min(sizes) <= 1
    # Remainder goes to the last parts (Figure 1 layout).
    assert sizes == sorted(sizes)


# ----------------------------------------------------------------------
# matcher invariants
# ----------------------------------------------------------------------


@given(pairs=edge_sets)
@settings(max_examples=100, deadline=None)
def test_csf_valid_and_half_optimal(pairs):
    matched_b, matched_a = build_adjacency(pairs)
    result = cover_smallest_first(matched_b, matched_a)
    assert pairs_are_one_to_one(result)
    assert pairs_respect_graph(result, matched_b)
    optimum = maximum_matching_size(pairs)
    assert optimum / 2 <= len(result) <= optimum


def array_csf(pairs) -> list[tuple[int, int]]:
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    picked_b, picked_a = match_edges(rows[:, 0], rows[:, 1])
    return list(zip(picked_b.tolist(), picked_a.tolist()))


@given(pairs=edge_lists, data=st.data())
@settings(max_examples=150, deadline=None)
def test_array_csf_equals_dict_csf(pairs, data):
    expected = cover_smallest_first(*build_adjacency(pairs))
    assert array_csf(pairs) == expected
    shuffled = data.draw(st.permutations(pairs))
    assert array_csf(shuffled) == expected


@given(
    pairs=st.lists(st.tuples(sparse_ids, sparse_ids), max_size=30),
    doubled=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_array_csf_equals_dict_csf_on_sparse_ids(pairs, doubled):
    if doubled:
        pairs = pairs + pairs[::-1]
    assert array_csf(pairs) == cover_smallest_first(*build_adjacency(pairs))


def test_array_csf_on_the_empty_graph():
    assert array_csf([]) == cover_smallest_first({}, {}) == []


@given(pairs=edge_sets)
@settings(max_examples=100, deadline=None)
def test_hopcroft_karp_is_maximum(pairs):
    matched_b, matched_a = build_adjacency(pairs)
    result = hopcroft_karp(matched_b, matched_a)
    assert pairs_are_one_to_one(result)
    assert pairs_respect_graph(result, matched_b)
    assert len(result) == maximum_matching_size(pairs)


# ----------------------------------------------------------------------
# whole-method invariants
# ----------------------------------------------------------------------


@given(
    rows_b=counter_matrices,
    rows_a=counter_matrices,
    epsilon=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_every_method_returns_valid_matchings(rows_b, rows_a, epsilon):
    b, a = make_couple(rows_b, rows_a)
    for method in ("ap-baseline", "ap-minmax", "ex-baseline", "ex-minmax"):
        result = csj_similarity(
            b, a, epsilon=epsilon, method=method, engine="numpy"
        )
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, epsilon)
        assert 0.0 <= result.similarity <= 1.0


@given(
    rows_b=counter_matrices,
    rows_a=counter_matrices,
    epsilon=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_engines_agree_on_arbitrary_inputs(rows_b, rows_a, epsilon):
    b, a = make_couple(rows_b, rows_a)
    for method in ("ap-minmax", "ex-minmax"):
        python = csj_similarity(b, a, epsilon=epsilon, method=method, engine="python")
        numpy_ = csj_similarity(b, a, epsilon=epsilon, method=method, engine="numpy")
        assert set(python.pair_tuples()) == set(numpy_.pair_tuples())


@given(
    rows_b=counter_matrices,
    rows_a=counter_matrices,
    epsilon=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_exact_methods_agree_and_reach_oracle(rows_b, rows_a, epsilon):
    b, a = make_couple(rows_b, rows_a)
    baseline = csj_similarity(
        b, a, epsilon=epsilon, method="ex-baseline", matcher="hopcroft_karp"
    )
    minmax = csj_similarity(
        b, a, epsilon=epsilon, method="ex-minmax", matcher="hopcroft_karp"
    )
    oracle = maximum_matching_size(
        brute_force_candidate_pairs(b.vectors, a.vectors, epsilon)
    )
    assert baseline.n_matched == minmax.n_matched == oracle


@given(
    rows_b=counter_matrices,
    rows_a=counter_matrices,
    epsilon=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_hybrid_agrees_with_exact_baseline(rows_b, rows_a, epsilon):
    b, a = make_couple(rows_b, rows_a)
    hybrid = csj_similarity(
        b, a, epsilon=epsilon, method="ex-hybrid", matcher="hopcroft_karp"
    )
    baseline = csj_similarity(
        b, a, epsilon=epsilon, method="ex-baseline", matcher="hopcroft_karp"
    )
    assert hybrid.n_matched == baseline.n_matched
    assert_valid_matching(hybrid.pair_tuples(), b.vectors, a.vectors, epsilon)


@given(rows=counter_matrices, epsilon=st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_self_join_is_full_similarity(rows, epsilon):
    vectors = np.array(rows, dtype=np.int64)
    b = Community("B", vectors)
    a = Community("A", vectors)
    result = csj_similarity(b, a, epsilon=epsilon, method="ex-minmax")
    # Every user matches at least itself, so a perfect matching exists.
    assert result.similarity == 1.0


# ----------------------------------------------------------------------
# epsilon-boundary flips under deltas (the classic off-by-one surface)
# ----------------------------------------------------------------------


@given(
    base=st.integers(min_value=0, max_value=20),
    epsilon=st.integers(min_value=0, max_value=4),
    pad=st.integers(min_value=0, max_value=5),
    touch_first=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_delta_flips_epsilon_boundary_identically_to_full_join(
    base, epsilon, pad, touch_first
):
    """Deltas landing exactly on/off ``|a - b| == eps`` flip identically.

    Start with a pair exactly ``eps + 1`` apart on one dimension (just
    outside), step the lower counter by 1 so the gap becomes exactly
    ``eps`` (on the boundary: MUST match), then overshoot past the far
    side until the gap is ``eps + 1`` again (off the boundary: MUST NOT
    match).  After every step the delta path must agree byte-for-byte
    with a full recompute — ``<=`` vs ``<`` anywhere in the delta
    window arithmetic fails one of the three phases.
    """
    from repro.core import DeltaJoinMaintainer

    low = base
    high = base + epsilon + 1  # just outside the epsilon window
    first_mat = np.array([[low, pad]], dtype=np.int64)
    second_mat = np.array([[high, pad]], dtype=np.int64)
    if not touch_first:
        first_mat, second_mat = second_mat, first_mat
    side = "first" if touch_first else "second"
    moving = first_mat if touch_first else second_mat

    maintainer = DeltaJoinMaintainer(
        Community("first", first_mat.copy()),
        Community("second", second_mat.copy()),
        epsilon,
        enforce_size_ratio=False,
    )
    assert maintainer.n_matched == 0  # gap is eps + 1: outside

    # Walk the moving counter up one like at a time: the pair must be
    # matched exactly while |gap| <= eps and unmatched the step the gap
    # reaches eps + 1 on the far side.
    for step in range(1, 2 * (epsilon + 1) + 1):
        moving[0, 0] += 1
        maintainer.record_like(side, 0, 0, 1)
        gap = abs(int(first_mat[0, 0]) - int(second_mat[0, 0]))
        full = csj_similarity(
            Community("first", first_mat.copy()),
            Community("second", second_mat.copy()),
            epsilon=epsilon,
            method="ex-baseline",
            matcher="hopcroft_karp",
        )
        expected = 1 if gap <= epsilon else 0
        assert maintainer.n_matched == full.n_matched == expected, (
            step,
            gap,
            epsilon,
        )
        assert maintainer.similarity == full.similarity
        assert maintainer.events.as_dict() == full.events.as_dict()
