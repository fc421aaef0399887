"""Tests for the out-of-core join extension (repro.extensions.out_of_core)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import csj_similarity
from repro.core.errors import ConfigurationError, ValidationError
from repro.core.types import Community
from repro.extensions import OnDiskCommunity, out_of_core_similarity
from tests.conftest import assert_valid_matching, random_couple


@pytest.fixture
def disk_couple(tmp_path):
    vectors_b, vectors_a = random_couple(313, n_b=40, n_a=55)
    disk_b = OnDiskCommunity.create(tmp_path / "b", vectors_b, name="B")
    disk_a = OnDiskCommunity.create(tmp_path / "a", vectors_a, name="A")
    return disk_b, disk_a, vectors_b, vectors_a


class TestOnDiskCommunity:
    def test_create_and_open(self, tmp_path):
        vectors = np.arange(12).reshape(4, 3)
        created = OnDiskCommunity.create(
            tmp_path / "c", vectors, name="Nike", category="Sport"
        )
        reopened = OnDiskCommunity.open(tmp_path / "c")
        assert reopened.name == "Nike"
        assert reopened.category == "Sport"
        assert reopened.n_users == 4
        assert np.array_equal(np.asarray(reopened.vectors), vectors)
        assert created.n_dims == 3

    def test_from_community(self, tmp_path):
        community = Community("X", np.ones((5, 2), dtype=np.int64), "Media")
        disk = OnDiskCommunity.from_community(tmp_path / "x", community)
        assert disk.name == "X"
        assert disk.category == "Media"

    def test_open_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="no on-disk community"):
            OnDiskCommunity.open(tmp_path / "ghost")

    def test_open_rejects_wrong_shape(self, tmp_path):
        np.save(tmp_path / "flat.npy", np.arange(5))
        with pytest.raises(ValidationError, match="2-D"):
            OnDiskCommunity.open(tmp_path / "flat")

    def test_streaming_row_sums(self, disk_couple):
        disk_b, _, vectors_b, _ = disk_couple
        for chunk_size in (1, 7, 1000):
            sums = disk_b.row_sums(chunk_size)
            assert np.array_equal(sums, vectors_b.sum(axis=1))

    def test_streaming_window_bounds(self, disk_couple):
        _, disk_a, _, vectors_a = disk_couple
        minimum, maximum = disk_a.window_bounds(epsilon=2, chunk_size=9)
        assert np.array_equal(minimum, np.maximum(vectors_a - 2, 0).sum(axis=1))
        assert np.array_equal(maximum, (vectors_a + 2).sum(axis=1))


class TestOutOfCoreJoin:
    @pytest.mark.parametrize("chunk_size", [1, 3, 17, 4096])
    def test_equals_in_memory_ex_minmax(self, disk_couple, chunk_size):
        disk_b, disk_a, vectors_b, vectors_a = disk_couple
        disk_result = out_of_core_similarity(
            disk_b, disk_a, epsilon=1, chunk_size=chunk_size
        )
        memory_result = csj_similarity(
            Community("B", vectors_b),
            Community("A", vectors_a),
            epsilon=1,
            method="ex-minmax",
        )
        assert disk_result.pair_tuples() == memory_result.pair_tuples()

    def test_hopcroft_karp_matcher(self, disk_couple):
        disk_b, disk_a, vectors_b, vectors_a = disk_couple
        result = out_of_core_similarity(
            disk_b, disk_a, epsilon=1, matcher="hopcroft_karp"
        )
        assert_valid_matching(result.pair_tuples(), vectors_b, vectors_a, 1)
        csf = out_of_core_similarity(disk_b, disk_a, epsilon=1)
        assert result.n_matched >= csf.n_matched

    def test_requires_smaller_first(self, disk_couple):
        disk_b, disk_a, _, _ = disk_couple
        with pytest.raises(ValidationError, match="smaller community first"):
            out_of_core_similarity(disk_a, disk_b, epsilon=1)

    def test_dimension_mismatch(self, tmp_path, disk_couple):
        disk_b, _, _, _ = disk_couple
        other = OnDiskCommunity.create(
            tmp_path / "other", np.ones((60, 2), dtype=np.int64)
        )
        with pytest.raises(ValidationError, match="dimension mismatch"):
            out_of_core_similarity(disk_b, other, epsilon=1)

    @pytest.mark.parametrize("epsilon", [-1, 1.5, True])
    def test_invalid_epsilon_rejected_before_any_file_opens(
        self, tmp_path, disk_couple, epsilon
    ):
        disk_b, disk_a, _, _ = disk_couple
        with pytest.raises(ValidationError, match="epsilon"):
            out_of_core_similarity(disk_b, disk_a, epsilon=epsilon)
        # Paths to no file: the epsilon check comes first.
        with pytest.raises(ValidationError, match="epsilon"):
            out_of_core_similarity(tmp_path / "none_b", tmp_path / "none_a", epsilon=epsilon)

    def test_invalid_chunk_size(self, disk_couple):
        disk_b, disk_a, _, _ = disk_couple
        with pytest.raises(ConfigurationError):
            out_of_core_similarity(disk_b, disk_a, epsilon=1, chunk_size=0)

    def test_narrow_unsigned_file_clamps_its_windows(self, tmp_path):
        # A uint8 file written outside OnDiskCommunity.create: a zero
        # counter's window must clamp at 0, not wrap to 255.
        vectors_b = np.array([[0, 5], [3, 3]], dtype=np.uint8)
        vectors_a = np.array([[0, 5], [3, 4], [9, 9]], dtype=np.uint8)
        np.save(tmp_path / "b.npy", vectors_b)
        np.save(tmp_path / "a.npy", vectors_a)
        result = out_of_core_similarity(tmp_path / "b", tmp_path / "a", epsilon=1)
        assert result.pair_tuples() == [(0, 0), (1, 1)]

    def test_no_matches(self, tmp_path):
        disk_b = OnDiskCommunity.create(
            tmp_path / "zb", np.zeros((5, 3), dtype=np.int64)
        )
        disk_a = OnDiskCommunity.create(
            tmp_path / "za", np.full((6, 3), 1000, dtype=np.int64)
        )
        result = out_of_core_similarity(disk_b, disk_a, epsilon=1)
        assert result.n_matched == 0


class TestClose:
    def test_close_releases_mapping(self, tmp_path):
        disk = OnDiskCommunity.create(
            tmp_path / "c", np.arange(12).reshape(4, 3)
        )
        assert not disk.closed
        disk.close()
        assert disk.closed
        with pytest.raises(ValueError, match="closed"):
            np.asarray(disk.vectors)
        with pytest.raises(ValueError, match="closed"):
            disk.row_sums(4)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs procfs"
    )
    def test_close_releases_file_handle(self, tmp_path):
        disk = OnDiskCommunity.create(tmp_path / "c", np.ones((4, 2)))
        target = os.path.realpath(disk.path)

        def held() -> bool:
            for entry in os.listdir("/proc/self/fd"):
                try:
                    if os.path.realpath(f"/proc/self/fd/{entry}") == target:
                        return True
                except OSError:
                    continue
            return False

        assert held()
        disk.close()
        assert not held()

    def test_close_is_idempotent(self, tmp_path):
        disk = OnDiskCommunity.create(tmp_path / "c", np.ones((3, 2)))
        disk.close()
        disk.close()
        assert disk.closed

    def test_context_manager_closes(self, tmp_path):
        with OnDiskCommunity.create(tmp_path / "c", np.ones((3, 2))) as disk:
            assert disk.n_users == 3
            assert not disk.closed
        assert disk.closed

    def test_metadata_survives_close(self, tmp_path):
        disk = OnDiskCommunity.create(
            tmp_path / "c", np.ones((4, 2)), name="N", category="Sport"
        )
        disk.close()
        assert disk.name == "N"
        assert disk.category == "Sport"

    def test_join_accepts_paths_and_closes_them(self, tmp_path, monkeypatch):
        vectors_b, vectors_a = random_couple(618, n_b=10, n_a=14)
        OnDiskCommunity.create(tmp_path / "b", vectors_b, name="B")
        OnDiskCommunity.create(tmp_path / "a", vectors_a, name="A")
        opened: list[OnDiskCommunity] = []
        real_open = OnDiskCommunity.open

        def spy(path):
            disk = real_open(path)
            opened.append(disk)
            return disk

        monkeypatch.setattr(OnDiskCommunity, "open", spy)
        from_paths = out_of_core_similarity(
            str(tmp_path / "b"), tmp_path / "a", epsilon=1
        )
        assert len(opened) == 2
        assert all(disk.closed for disk in opened)
        monkeypatch.undo()
        from_instances = out_of_core_similarity(
            OnDiskCommunity.open(tmp_path / "b"),
            OnDiskCommunity.open(tmp_path / "a"),
            epsilon=1,
        )
        assert set(from_paths.pair_tuples()) == set(from_instances.pair_tuples())

    def test_path_inputs_closed_even_on_error(self, tmp_path, monkeypatch):
        vectors_b, vectors_a = random_couple(619, n_b=10, n_a=14)
        OnDiskCommunity.create(tmp_path / "b", vectors_b)
        OnDiskCommunity.create(tmp_path / "mismatch", np.ones((20, 2)))
        opened: list[OnDiskCommunity] = []
        real_open = OnDiskCommunity.open

        def spy(path):
            disk = real_open(path)
            opened.append(disk)
            return disk

        monkeypatch.setattr(OnDiskCommunity, "open", spy)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            out_of_core_similarity(
                tmp_path / "b", tmp_path / "mismatch", epsilon=1
            )
        assert len(opened) == 2
        assert all(disk.closed for disk in opened)

    def test_caller_instances_left_open(self, disk_couple):
        disk_b, disk_a, _, _ = disk_couple
        out_of_core_similarity(disk_b, disk_a, epsilon=1)
        assert not disk_b.closed
        assert not disk_a.closed
