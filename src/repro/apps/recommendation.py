"""Recommendation applications built on CSJ (Section 1.2 of the paper).

The paper motivates CSJ with three application families that link-based
joins and community detection/search handle poorly:

* **Friend recommendation** (case i): users matched by CSJ share
  similar profiles without needing any structural connection — exactly
  the "people with similar interests follow ..." style of notification.
* **Business-partner recommendation** (case ii.a): a brand ranks
  candidate brands by CSJ similarity of their audiences and approaches
  the top ones for collaborations.
* **Broadcast recommendation** (case ii.b): the platform compares a
  brand against several others and schedules cross-recommendations in
  priority order — the most similar brand gets the peak engagement hour.
* **Content recommendation** (case ii.c): similar communities act as
  interchangeable content *features*, letting a brand diversify posts
  while staying coherent.

The classes here are deliberately thin, deterministic orchestrations of
the CSJ operator — the library's "example application" layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algorithms import get_algorithm
from ..core.errors import ConfigurationError
from ..core.types import Community, CSJResult

__all__ = [
    "FriendSuggestion",
    "FriendRecommender",
    "PartnerScore",
    "PartnerRecommender",
    "BroadcastSlot",
    "BroadcastPlanner",
    "ContentFeatureSuggestion",
    "suggest_content_features",
]


# ----------------------------------------------------------------------
# (i) friend recommendation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FriendSuggestion:
    """One cross-community follow suggestion derived from a CSJ match."""

    b_index: int
    a_index: int
    community_b: str
    community_a: str
    message: str


class FriendRecommender:
    """Turns CSJ matches into mutual follow suggestions.

    Matched users have near-identical profiles (within epsilon per
    category), so each pair yields two suggestions in the style of the
    paper's LinkedIn/VK examples.  Suggestions name the join's oriented
    pair: ``B`` is the smaller community whichever order it came in.
    """

    def __init__(self, epsilon: int, *, method: str = "ex-minmax", **options: object) -> None:
        self._algorithm = get_algorithm(method, epsilon, **options)

    def recommend(
        self, community_b: Community, community_a: Community
    ) -> list[FriendSuggestion]:
        result = self._algorithm.join(community_b, community_a)
        if result.swapped:
            community_b, community_a = community_a, community_b
        suggestions = []
        for b_index, a_index in result.pair_tuples():
            message = (
                f"user B#{b_index} of {community_b.name!r} and "
                f"user A#{a_index} of {community_a.name!r} have "
                "similar interests - suggest they follow each other"
            )
            suggestions.append(
                FriendSuggestion(
                    b_index=b_index,
                    a_index=a_index,
                    community_b=community_b.name,
                    community_a=community_a.name,
                    message=message,
                )
            )
        return suggestions


# ----------------------------------------------------------------------
# (ii.a) business-partner recommendation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartnerScore:
    """One candidate brand with its audience similarity to the anchor."""

    candidate: str
    similarity: float
    result: CSJResult


class PartnerRecommender:
    """Ranks candidate brands by CSJ similarity with an anchor brand.

    This is the Dior/Longines scenario: two users can be similar based
    purely on preferences, so the candidate set is unrestricted — no
    community detection over the whole graph is needed.
    """

    def __init__(self, epsilon: int, *, method: str = "ex-minmax", **options: object) -> None:
        self.epsilon = epsilon
        self.method = method
        self._options = options

    def rank(
        self, anchor: Community, candidates: list[Community]
    ) -> list[PartnerScore]:
        """Candidates sorted by descending audience similarity.

        Candidates violating the CSJ size-ratio rule against the anchor
        are skipped (their similarity is not meaningful, Section 3).
        """
        scores: list[PartnerScore] = []
        for candidate in candidates:
            small, large = sorted((anchor, candidate), key=len)
            if len(small) * 2 < len(large):
                continue
            algorithm = get_algorithm(self.method, self.epsilon, **self._options)
            result = algorithm.join(anchor, candidate)
            scores.append(
                PartnerScore(
                    candidate=candidate.name,
                    similarity=result.similarity,
                    result=result,
                )
            )
        scores.sort(key=lambda score: (-score.similarity, score.candidate))
        return scores

    def shortlist(
        self,
        anchor: Community,
        candidates: list[Community],
        *,
        min_similarity: float,
        refine_method: str = "ex-minmax",
    ) -> list[PartnerScore]:
        """The paper's two-phase pipeline: approximate filter, exact refine.

        A fast approximate method screens all candidates; couples above
        ``min_similarity`` are re-joined with an exact method for the
        precise score — "the time-consuming exact method uses the
        results of the fast approximate method as input" (Section 3).
        """
        screener = PartnerRecommender(
            self.epsilon, method=self.method, **self._options
        )
        screened = [
            score
            for score in screener.rank(anchor, candidates)
            if score.similarity >= min_similarity
        ]
        by_name = {candidate.name: candidate for candidate in candidates}
        refined: list[PartnerScore] = []
        for score in screened:
            algorithm = get_algorithm(refine_method, self.epsilon, **self._options)
            result = algorithm.join(anchor, by_name[score.candidate])
            refined.append(
                PartnerScore(
                    candidate=score.candidate,
                    similarity=result.similarity,
                    result=result,
                )
            )
        refined.sort(key=lambda score: (-score.similarity, score.candidate))
        return refined


# ----------------------------------------------------------------------
# (ii.b) broadcast recommendation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BroadcastSlot:
    """One scheduled cross-recommendation slot."""

    hour_rank: int  # 1 = highest engagement hour
    target_community: str
    similarity: float
    audience: str  # description of whom the platform notifies


class BroadcastPlanner:
    """Prioritised broadcast schedule (the Nike/Adidas/Puma scenario).

    Given an anchor brand and candidate brands, the platform recommends
    the most similar candidate at the peak engagement hour, the next one
    at the second-highest hour, and so on.  Recipients are the anchor's
    followers who do not already follow the candidate.
    """

    def __init__(self, epsilon: int, *, method: str = "ap-minmax", **options: object) -> None:
        self._recommender = PartnerRecommender(epsilon, method=method, **options)

    def plan(
        self, anchor: Community, candidates: list[Community]
    ) -> list[BroadcastSlot]:
        scores = self._recommender.rank(anchor, candidates)
        slots = []
        for rank, score in enumerate(scores, start=1):
            slots.append(
                BroadcastSlot(
                    hour_rank=rank,
                    target_community=score.candidate,
                    similarity=score.similarity,
                    audience=(
                        f"followers of {anchor.name!r} not following "
                        f"{score.candidate!r}"
                    ),
                )
            )
        return slots


# ----------------------------------------------------------------------
# (ii.c) content recommendation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContentFeatureSuggestion:
    """A feature (community) suggested for a post, with its rationale."""

    feature: str
    similarity: float
    role: str  # "coherent" (similar to current) or "diverse" (dissimilar)


def suggest_content_features(
    anchor: Community,
    candidates: list[Community],
    *,
    epsilon: int,
    coherent_threshold: float = 0.15,
    method: str = "ap-minmax",
    **options: object,
) -> list[ContentFeatureSuggestion]:
    """Split candidate features into coherent vs diverse for post tuning.

    Features whose audiences overlap the anchor's by at least
    ``coherent_threshold`` naturally coexist with it in a post; the rest
    provide diversity ("not having the same concept", Section 1.2 ii.c).
    """
    if not 0.0 <= coherent_threshold <= 1.0:
        raise ConfigurationError(
            f"coherent_threshold must be within [0, 1], got {coherent_threshold}"
        )
    recommender = PartnerRecommender(epsilon, method=method, **options)
    suggestions = []
    for score in recommender.rank(anchor, candidates):
        role = "coherent" if score.similarity >= coherent_threshold else "diverse"
        suggestions.append(
            ContentFeatureSuggestion(
                feature=score.candidate, similarity=score.similarity, role=role
            )
        )
    return suggestions
