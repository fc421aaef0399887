"""Tests for dataset persistence (repro.datasets.io)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.core.types import Community
from repro.datasets.io import (
    load_communities,
    load_couple,
    save_communities,
    save_couple,
)


def _npy_bytes() -> bytes:
    """A single-array ``.npy`` file: ``np.load`` reads it, but as no archive."""
    buffer = io.BytesIO()
    np.save(buffer, np.zeros((2, 2), dtype=np.int64))
    return buffer.getvalue()


@pytest.fixture
def sample_couple() -> tuple[Community, Community]:
    rng = np.random.default_rng(0)
    b = Community("Nike", rng.integers(0, 9, size=(12, 5)), "Sport", page_id=1)
    a = Community("Adidas", rng.integers(0, 9, size=(15, 5)), "Sport", page_id=2)
    return b, a


class TestRoundTrip:
    def test_couple_round_trip(self, tmp_path, sample_couple):
        b, a = sample_couple
        path = save_couple(tmp_path / "couple", b, a)
        assert path.exists()
        loaded_b, loaded_a = load_couple(tmp_path / "couple")
        assert loaded_b.name == "Nike"
        assert loaded_a.page_id == 2
        assert np.array_equal(loaded_b.vectors, b.vectors)
        assert np.array_equal(loaded_a.vectors, a.vectors)

    def test_keyed_set_round_trip(self, tmp_path, sample_couple):
        b, a = sample_couple
        save_communities(tmp_path / "many", {"x": b, "y": a, "z": b})
        loaded = load_communities(tmp_path / "many")
        assert set(loaded) == {"x", "y", "z"}
        assert loaded["z"].category == "Sport"

    def test_suffix_normalisation(self, tmp_path, sample_couple):
        b, a = sample_couple
        save_couple(tmp_path / "archive.npz", b, a)
        loaded_b, _ = load_couple(tmp_path / "archive")
        assert loaded_b.n_users == b.n_users

    def test_join_results_survive_round_trip(self, tmp_path, sample_couple):
        from repro import csj_similarity

        b, a = sample_couple
        before = csj_similarity(b, a, epsilon=1, method="ex-minmax")
        save_couple(tmp_path / "c", b, a)
        loaded_b, loaded_a = load_couple(tmp_path / "c")
        after = csj_similarity(loaded_b, loaded_a, epsilon=1, method="ex-minmax")
        assert before.n_matched == after.n_matched


class TestErrors:
    def test_missing_archive(self, tmp_path):
        with pytest.raises(ValidationError, match="no such dataset"):
            load_communities(tmp_path / "nope")

    def test_missing_metadata(self, tmp_path, sample_couple):
        b, a = sample_couple
        path = save_couple(tmp_path / "c", b, a)
        (tmp_path / "c.meta.json").unlink()
        with pytest.raises(ValidationError, match="metadata"):
            load_communities(path)

    def test_not_a_couple(self, tmp_path, sample_couple):
        b, _ = sample_couple
        save_communities(tmp_path / "single", {"only": b})
        with pytest.raises(ValidationError, match="couple"):
            load_couple(tmp_path / "single")

    @pytest.mark.parametrize("load", [load_communities, load_couple])
    @pytest.mark.parametrize(
        "content",
        [b"not a zip", b"", b"PK\x03\x04torn", _npy_bytes()],
        ids=["text", "empty", "torn-zip", "single-array"],
    )
    def test_file_that_is_no_archive_is_named(self, tmp_path, load, content):
        (tmp_path / "c.npz").write_bytes(content)
        (tmp_path / "c.meta.json").write_text("{}")
        with pytest.raises(ValidationError, match=r"c\.npz is not an \.npz archive"):
            load(tmp_path / "c")

    @pytest.mark.parametrize("load", [load_communities, load_couple])
    @pytest.mark.parametrize("meta", ["[]", "3", "{not json", '{"B": []}'])
    def test_metadata_not_an_object_is_named(self, tmp_path, sample_couple, load, meta):
        path = save_couple(tmp_path / "c", *sample_couple)
        (tmp_path / "c.meta.json").write_text(meta)
        with pytest.raises(ValidationError, match=r"c\.meta\.json does not hold a JSON object"):
            load(path)
