"""Tests for the top-k community pair operator (repro.apps.topk)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.apps import top_k_pairs
from repro.apps.topk import _joinable_mask, _rank_pairs
from repro.core.errors import ConfigurationError
from repro.core.types import Community
from repro.engine.envelope import community_envelope, stack_envelopes, surviving_pairs
from repro.testing import banded_community_fleet


def community_family(seed: int = 0) -> list[Community]:
    """Four communities with a controlled overlap hierarchy."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 50, size=(80, 5))

    def variant(name: str, keep: float, shift: int) -> Community:
        n_keep = int(keep * len(base))
        kept = np.maximum(base[:n_keep] + rng.integers(-1, 2, size=(n_keep, 5)), 0)
        fresh = rng.integers(500 + shift, 600 + shift, size=(len(base) - n_keep, 5))
        return Community(name, np.concatenate([kept, fresh]))

    return [
        Community("base", base),
        variant("close", 0.7, 0),
        variant("mid", 0.4, 1000),
        variant("far", 0.1, 2000),
    ]


class TestTopK:
    def test_orders_by_similarity(self):
        communities = community_family()
        scores = top_k_pairs(communities, epsilon=1, k=3)
        assert len(scores) == 3
        similarities = [score.similarity for score in scores]
        assert similarities == sorted(similarities, reverse=True)
        top_pair = {scores[0].name_b, scores[0].name_a}
        assert top_pair == {"base", "close"}

    def test_k_one(self):
        communities = community_family()
        scores = top_k_pairs(communities, epsilon=1, k=1)
        assert len(scores) == 1

    def test_k_larger_than_pair_count(self):
        communities = community_family()[:2]
        scores = top_k_pairs(communities, epsilon=1, k=10)
        assert len(scores) == 1  # only one joinable pair exists

    def test_refined_results_are_exact(self):
        communities = community_family()
        scores = top_k_pairs(communities, epsilon=1, k=2)
        for score in scores:
            assert score.result.exact
            assert score.result.method == "ex-minmax"

    def test_size_ratio_pairs_skipped(self):
        rng = np.random.default_rng(1)
        small = Community("small", rng.integers(0, 9, size=(10, 3)))
        giant = Community("giant", rng.integers(0, 9, size=(100, 3)))
        scores = top_k_pairs([small, giant], epsilon=1, k=5)
        assert scores == []

    def test_duplicate_names_rejected(self):
        rng = np.random.default_rng(2)
        twin = Community("twin", rng.integers(0, 9, size=(10, 3)))
        with pytest.raises(ConfigurationError, match="unique"):
            top_k_pairs([twin, twin], epsilon=1, k=1)

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            top_k_pairs(community_family(), epsilon=1, k=0)

    def test_invalid_margin(self):
        with pytest.raises(ConfigurationError):
            top_k_pairs(community_family(), epsilon=1, k=1, screen_margin=0.0)

    def test_label(self):
        communities = community_family()
        score = top_k_pairs(communities, epsilon=1, k=1)[0]
        assert score.label.startswith("<")
        assert score.name_b in score.label


class TestRankPairsExecutors:
    """``_rank_pairs`` over in-process executors that skip chosen pairs.

    An executor answers ``None`` for a pair it could not evaluate (the
    shard coordinator's lost pairs).  Unscreened, the pair leaves the
    ranking and the pool count, exactly as if the masks never held it;
    unrefined, it leaves the pool and nothing else moves.
    """

    EPSILON = 20

    @pytest.fixture()
    def source(self):
        communities = sorted(
            banded_community_fleet(n_bands=3, per_band=4, users=6, dims=3, seed=4),
            key=lambda community: community.name,
        )
        sizes = [community.n_users for community in communities]
        joinable = _joinable_mask(sizes)
        survives = np.zeros_like(joinable)
        mins, maxs = stack_envelopes([community_envelope(c) for c in communities])
        survives[surviving_pairs(mins, maxs, self.EPSILON)] = True
        return communities, sizes, joinable, joinable & survives

    def rank(self, source, k, unscreened=(), unrefined=(), drop=()):
        communities, sizes, joinable, live = source
        joinable, live = joinable.copy(), live.copy()
        for pair in drop:
            joinable[pair] = live[pair] = False
        screener = get_algorithm("ap-minmax", self.EPSILON)
        refiner = get_algorithm("ex-minmax", self.EPSILON)

        def screen(pairs):
            return [
                None
                if pair in unscreened
                else screener.join(communities[pair[0]], communities[pair[1]]).similarity
                for pair in pairs
            ]

        def refine(pairs):
            return [
                None
                if pair in unrefined
                else refiner.join(communities[pair[0]], communities[pair[1]])
                for pair in pairs
            ]

        scores, _ = _rank_pairs(
            [community.name for community in communities],
            sizes,
            joinable,
            live,
            screen,
            refine,
            epsilon=self.EPSILON,
            k=k,
            refine_method="ex-minmax",
            screen_margin=0.8,
        )
        return [
            (s.name_b, s.name_a, repr(s.similarity), s.result.n_matched, s.result.engine)
            for s in scores
        ]

    def live_pairs(self, source):
        firsts, seconds = np.nonzero(source[3])
        return list(zip(firsts.tolist(), seconds.tolist()))

    def test_executors_reproduce_top_k_pairs(self, source):
        expected = top_k_pairs(source[0], epsilon=self.EPSILON, k=8)
        assert self.rank(source, 8) == [
            (s.name_b, s.name_a, repr(s.similarity), s.result.n_matched, s.result.engine)
            for s in expected
        ]

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_unscreened_pairs_equal_removed_pairs(self, source, k):
        skipped = set(self.live_pairs(source)[::2])
        assert len(skipped) > 1
        assert self.rank(source, k, unscreened=skipped) == self.rank(
            source, k, drop=skipped
        )
        assert self.rank(source, k, unscreened=skipped) != self.rank(source, k)

    def test_unrefined_pairs_leave_the_pool_only(self, source):
        every = 10_000  # a pool of every joinable pair
        skipped = set(self.live_pairs(source)[1::3])
        names = [community.name for community in source[0]]
        skipped_names = {frozenset((names[i], names[j])) for i, j in skipped}
        full = self.rank(source, every)
        assert self.rank(source, every, unrefined=skipped) == [
            entry for entry in full if frozenset(entry[:2]) not in skipped_names
        ]
