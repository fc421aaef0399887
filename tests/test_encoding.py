"""Unit tests for the MinMax encoding scheme (repro.core.encoding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import MinMaxEncoder, split_dimensions
from repro.core.errors import ConfigurationError

#: The worked example of Figure 1.
FIGURE1_VECTOR = np.array(
    [1, 0, 0, 0, 2, 2,
     0, 0, 2, 1, 1, 5, 4,
     0, 3, 0, 0, 1, 4, 1,
     0, 3, 5, 4, 1, 2, 4]
)


class TestSplitDimensions:
    def test_figure1_layout(self):
        # d = 27 with 4 parts -> sizes 6, 7, 7, 7 (remainder to the last).
        slices = split_dimensions(27, 4)
        sizes = [sl.stop - sl.start for sl in slices]
        assert sizes == [6, 7, 7, 7]

    def test_even_split(self):
        sizes = [sl.stop - sl.start for sl in split_dimensions(8, 4)]
        assert sizes == [2, 2, 2, 2]

    def test_slices_are_contiguous_and_cover(self):
        slices = split_dimensions(11, 3)
        assert slices[0].start == 0
        assert slices[-1].stop == 11
        for left, right in zip(slices, slices[1:]):
            assert left.stop == right.start

    def test_single_part(self):
        assert split_dimensions(5, 1) == [slice(0, 5)]

    def test_parts_equal_dims(self):
        sizes = [sl.stop - sl.start for sl in split_dimensions(4, 4)]
        assert sizes == [1, 1, 1, 1]

    def test_more_parts_than_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            split_dimensions(3, 4)

    def test_zero_parts_rejected(self):
        with pytest.raises(ConfigurationError):
            split_dimensions(3, 0)


class TestFigure1:
    """The encoding must reproduce the paper's worked example exactly."""

    def setup_method(self):
        self.encoder = MinMaxEncoder(epsilon=1, n_parts=4)
        self.description = self.encoder.describe(FIGURE1_VECTOR)

    def test_part_sums(self):
        assert self.description["parts"] == [5, 13, 9, 19]

    def test_encoded_id(self):
        assert self.description["encoded_id"] == 46

    def test_part_ranges(self):
        assert self.description["part_ranges"] == [(2, 11), (8, 20), (5, 16), (13, 26)]

    def test_encoded_min_max(self):
        assert self.description["encoded_min"] == 28
        assert self.description["encoded_max"] == 73


class TestEncoder:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            MinMaxEncoder(epsilon=-1)

    def test_targets_sorted_by_encoded_id(self):
        rng = np.random.default_rng(0)
        vectors = rng.integers(0, 9, size=(20, 8))
        targets = MinMaxEncoder(1, 4).encode_targets(vectors)
        assert np.all(np.diff(targets.encoded_id) >= 0)

    def test_targets_real_ids_permutation(self):
        rng = np.random.default_rng(1)
        vectors = rng.integers(0, 9, size=(15, 8))
        targets = MinMaxEncoder(1, 4).encode_targets(vectors)
        assert sorted(targets.real_ids.tolist()) == list(range(15))

    def test_targets_encoded_id_is_row_sum(self):
        rng = np.random.default_rng(2)
        vectors = rng.integers(0, 9, size=(10, 8))
        targets = MinMaxEncoder(1, 4).encode_targets(vectors)
        for position in range(10):
            row = vectors[targets.real_ids[position]]
            assert targets.encoded_id[position] == row.sum()

    def test_candidates_sorted_by_encoded_min(self):
        rng = np.random.default_rng(3)
        vectors = rng.integers(0, 9, size=(20, 8))
        candidates = MinMaxEncoder(1, 4).encode_candidates(vectors)
        assert np.all(np.diff(candidates.encoded_min) >= 0)

    def test_candidate_window_encloses_own_id(self):
        # A vector trivially matches itself, so its encoded id must fall
        # in its own [Min, Max] window.
        rng = np.random.default_rng(4)
        vectors = rng.integers(0, 9, size=(20, 8))
        encoder = MinMaxEncoder(epsilon=2, n_parts=4)
        candidates = encoder.encode_candidates(vectors)
        sums = vectors.sum(axis=1)
        for position in range(20):
            own_sum = sums[candidates.real_ids[position]]
            assert candidates.encoded_min[position] <= own_sum
            assert own_sum <= candidates.encoded_max[position]

    def test_encoded_max_is_id_plus_d_epsilon(self):
        rng = np.random.default_rng(5)
        vectors = rng.integers(0, 9, size=(10, 12))
        epsilon = 3
        candidates = MinMaxEncoder(epsilon, 4).encode_candidates(vectors)
        sums = vectors.sum(axis=1)
        for position in range(10):
            own_sum = sums[candidates.real_ids[position]]
            assert candidates.encoded_max[position] == own_sum + 12 * epsilon

    def test_min_clamped_at_zero(self):
        vectors = np.zeros((1, 6), dtype=np.int64)
        candidates = MinMaxEncoder(epsilon=5, n_parts=2).encode_candidates(vectors)
        assert candidates.encoded_min[0] == 0
        assert candidates.encoded_max[0] == 30

    def test_epsilon_zero_window_is_point(self):
        vectors = np.array([[2, 3, 4, 5]], dtype=np.int64)
        candidates = MinMaxEncoder(epsilon=0, n_parts=2).encode_candidates(vectors)
        assert candidates.encoded_min[0] == candidates.encoded_max[0] == 14

    def test_parts_overlap_true_for_identical(self):
        vectors = np.array([[3, 1, 4, 1, 5, 9]], dtype=np.int64)
        encoder = MinMaxEncoder(epsilon=1, n_parts=3)
        targets = encoder.encode_targets(vectors)
        candidates = encoder.encode_candidates(vectors)
        assert MinMaxEncoder.parts_overlap(
            targets.parts[0], candidates.range_min[0], candidates.range_max[0]
        )

    def test_parts_overlap_false_when_part_outside(self):
        encoder = MinMaxEncoder(epsilon=1, n_parts=2)
        target = encoder.encode_targets(np.array([[10, 10, 0, 0]]))
        candidate = encoder.encode_candidates(np.array([[0, 0, 10, 10]]))
        assert not MinMaxEncoder.parts_overlap(
            target.parts[0], candidate.range_min[0], candidate.range_max[0]
        )

    def test_entry_labels(self):
        encoder = MinMaxEncoder(epsilon=1, n_parts=2)
        targets = encoder.encode_targets(np.array([[1, 1, 1, 1]]))
        candidates = encoder.encode_candidates(np.array([[1, 1, 1, 1]]))
        assert targets.entry_label(0) == "b1:4"
        assert candidates.entry_label(0) == "a1:(0, 8)"


class TestNecessaryCondition:
    """Any per-dimension epsilon match must survive the encoding filters.

    This is the no-false-misses guarantee the pruning relies on.
    """

    @pytest.mark.parametrize("epsilon", [0, 1, 3])
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_matches_always_pass_filters(self, epsilon, n_parts):
        rng = np.random.default_rng(42 + epsilon + n_parts)
        vectors_b = rng.integers(0, 6, size=(30, 8))
        vectors_a = np.maximum(
            vectors_b + rng.integers(-epsilon, epsilon + 1, size=(30, 8)), 0
        )
        encoder = MinMaxEncoder(epsilon, n_parts)
        targets = encoder.encode_targets(vectors_b)
        candidates = encoder.encode_candidates(vectors_a)
        pos_b = {int(real): i for i, real in enumerate(targets.real_ids)}
        pos_a = {int(real): j for j, real in enumerate(candidates.real_ids)}
        for row in range(30):
            if np.abs(vectors_b[row] - vectors_a[row]).max() > epsilon:
                continue  # clamping may have pushed the pair apart
            i, j = pos_b[row], pos_a[row]
            assert candidates.encoded_min[j] <= targets.encoded_id[i]
            assert targets.encoded_id[i] <= candidates.encoded_max[j]
            assert MinMaxEncoder.parts_overlap(
                targets.parts[i], candidates.range_min[j], candidates.range_max[j]
            )


def loop_encoding(vectors: np.ndarray, epsilon: int, n_parts: int):
    """The encoding summed one part slice at a time and sorted with an
    explicit index tie-break: the reference the encoder must match."""
    slices = split_dimensions(vectors.shape[1], n_parts)

    def sums(matrix):
        return np.stack([matrix[:, sl].sum(axis=1) for sl in slices], axis=1).astype(
            np.int64
        )

    rows = np.arange(len(vectors))
    parts = sums(vectors)
    encoded_id = parts.sum(axis=1)
    order_b = np.lexsort((rows, encoded_id))
    range_min = sums(np.maximum(vectors - epsilon, 0))
    range_max = sums(vectors + epsilon)
    encoded_min, encoded_max = range_min.sum(axis=1), range_max.sum(axis=1)
    order_a = np.lexsort((rows, encoded_max, encoded_min))
    targets = (encoded_id[order_b], parts[order_b], order_b.astype(np.int64))
    candidates = (
        encoded_min[order_a],
        encoded_max[order_a],
        range_min[order_a],
        range_max[order_a],
        order_a.astype(np.int64),
    )
    return targets, candidates


class TestLoopParity:
    """The reduceat encoder gives byte-identical buffers to the loop."""

    @pytest.mark.parametrize(
        "n_users, n_dims", [(16, 6), (60, 8), (437, 27), (2000, 27), (9, 1), (12, 2)]
    )
    def test_byte_identical_buffers(self, n_users, n_dims):
        rng = np.random.default_rng(n_users * 31 + n_dims)
        for high in (3, 40, 500_000):
            vectors = rng.integers(0, high, size=(n_users, n_dims))
            for epsilon in (0, 1, 2, 15, 15_000):
                for n_parts in range(1, min(4, n_dims) + 1):
                    encoder = MinMaxEncoder(epsilon, n_parts)
                    targets = encoder.encode_targets(vectors)
                    candidates = encoder.encode_candidates(vectors)
                    got = (
                        (targets.encoded_id, targets.parts, targets.real_ids),
                        (
                            candidates.encoded_min,
                            candidates.encoded_max,
                            candidates.range_min,
                            candidates.range_max,
                            candidates.real_ids,
                        ),
                    )
                    for mine, reference in zip(
                        got, loop_encoding(vectors, epsilon, n_parts)
                    ):
                        for array, expected in zip(mine, reference):
                            assert array.dtype == expected.dtype
                            assert array.shape == expected.shape
                            assert array.tobytes() == expected.tobytes()
