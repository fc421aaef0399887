"""Tests for the recommendation applications (repro.apps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    BroadcastPlanner,
    FriendRecommender,
    PartnerRecommender,
    suggest_content_features,
)
from repro.core.errors import ConfigurationError
from repro.core.types import Community


@pytest.fixture
def anchor() -> Community:
    rng = np.random.default_rng(1)
    return Community("Anchor", rng.integers(0, 40, size=(60, 6)), "Sport")


def overlapping_candidate(
    anchor: Community, name: str, fraction: float, seed: int
) -> Community:
    """Candidate sharing ``fraction`` of the anchor's users (within eps=1)."""
    rng = np.random.default_rng(seed)
    n_shared = int(fraction * len(anchor))
    rows = rng.choice(len(anchor), size=n_shared, replace=False)
    shared = np.maximum(
        anchor.vectors[rows] + rng.integers(-1, 2, size=(n_shared, anchor.n_dims)), 0
    )
    fresh = rng.integers(500, 900, size=(len(anchor) - n_shared, anchor.n_dims))
    return Community(name, np.concatenate([shared, fresh]), "Sport")


class TestFriendRecommender:
    def test_suggestions_match_join(self, anchor):
        candidate = overlapping_candidate(anchor, "Other", 0.4, seed=2)
        recommender = FriendRecommender(1, method="ex-minmax")
        suggestions = recommender.recommend(anchor, candidate)
        assert suggestions
        for suggestion in suggestions:
            assert suggestion.community_b == "Anchor"
            assert "similar interests" in suggestion.message
            diff = np.abs(
                anchor.vectors[suggestion.b_index]
                - candidate.vectors[suggestion.a_index]
            ).max()
            assert diff <= 1

    def test_no_suggestions_for_disjoint_audiences(self, anchor):
        far = Community("Far", np.full((60, 6), 10_000, dtype=np.int64))
        assert FriendRecommender(1).recommend(anchor, far) == []

    def test_swapped_join_names_the_oriented_pair(self):
        # The larger community comes first, so the join swaps it to A:
        # small row 0 matches large row 1 (large row 0 matches nothing).
        small = Community("small", np.array([[0, 0], [50, 50]]))
        large = Community("large", np.array([[9, 9], [0, 0], [70, 70]]))
        [suggestion] = FriendRecommender(0).recommend(large, small)
        assert (suggestion.b_index, suggestion.a_index) == (0, 1)
        assert (suggestion.community_b, suggestion.community_a) == ("small", "large")
        assert suggestion.message.startswith(
            "user B#0 of 'small' and user A#1 of 'large'"
        )


class TestPartnerRecommender:
    def test_ranking_follows_overlap(self, anchor):
        high = overlapping_candidate(anchor, "High", 0.5, seed=3)
        low = overlapping_candidate(anchor, "Low", 0.1, seed=4)
        scores = PartnerRecommender(1).rank(anchor, [low, high])
        assert [score.candidate for score in scores] == ["High", "Low"]
        assert scores[0].similarity > scores[1].similarity

    def test_size_ratio_violations_skipped(self, anchor):
        rng = np.random.default_rng(5)
        giant = Community("Giant", rng.integers(0, 40, size=(500, 6)))
        scores = PartnerRecommender(1).rank(anchor, [giant])
        assert scores == []

    def test_shortlist_filters_and_refines(self, anchor):
        high = overlapping_candidate(anchor, "High", 0.5, seed=6)
        low = overlapping_candidate(anchor, "Low", 0.02, seed=7)
        recommender = PartnerRecommender(1, method="ap-minmax")
        shortlist = recommender.shortlist(
            anchor, [high, low], min_similarity=0.2, refine_method="ex-minmax"
        )
        names = [score.candidate for score in shortlist]
        assert names == ["High"]
        assert shortlist[0].result.exact

    def test_deterministic_tie_break_by_name(self, anchor):
        twin_a = overlapping_candidate(anchor, "Alpha", 0.3, seed=8)
        twin_b = Community("Beta", twin_a.vectors, "Sport")
        scores = PartnerRecommender(1).rank(anchor, [twin_b, twin_a])
        assert [score.candidate for score in scores] == ["Alpha", "Beta"]


class TestBroadcastPlanner:
    def test_slots_ordered_by_similarity(self, anchor):
        adidas = overlapping_candidate(anchor, "Adidas", 0.4, seed=9)
        puma = overlapping_candidate(anchor, "Puma", 0.2, seed=10)
        slots = BroadcastPlanner(1).plan(anchor, [puma, adidas])
        assert [slot.hour_rank for slot in slots] == [1, 2]
        assert slots[0].target_community == "Adidas"
        assert "Anchor" in slots[0].audience

    def test_empty_candidates(self, anchor):
        assert BroadcastPlanner(1).plan(anchor, []) == []


class TestContentFeatures:
    def test_roles_split_on_threshold(self, anchor):
        coherent = overlapping_candidate(anchor, "Coherent", 0.5, seed=11)
        diverse = overlapping_candidate(anchor, "Diverse", 0.02, seed=12)
        suggestions = suggest_content_features(
            anchor, [coherent, diverse], epsilon=1, coherent_threshold=0.2
        )
        roles = {s.feature: s.role for s in suggestions}
        assert roles["Coherent"] == "coherent"
        assert roles["Diverse"] == "diverse"

    def test_invalid_threshold(self, anchor):
        with pytest.raises(ConfigurationError):
            suggest_content_features(anchor, [], epsilon=1, coherent_threshold=2.0)
