"""Tests for the parameter sweeps (repro.analysis.sweeps)."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import epsilon_sweep, render_sweep, scale_sweep
from repro.core.errors import ConfigurationError
from repro.core.types import Community
from repro.datasets import PAPER_COUPLES, VKGenerator
from repro.engine import JoinResultCache
from tests.conftest import random_couple


@pytest.fixture
def couple():
    vectors_b, vectors_a = random_couple(31)
    return Community("B", vectors_b), Community("A", vectors_a)


class TestEpsilonSweep:
    def test_similarity_monotone_in_epsilon(self, couple):
        points = epsilon_sweep(*couple, epsilons=[0, 1, 2, 4, 8])
        similarities = [point.similarity_percent for point in points]
        assert similarities == sorted(similarities)

    def test_saturates_at_full_similarity(self, couple):
        community_b, community_a = couple
        huge = int(
            max(community_b.vectors.max(), community_a.vectors.max())
        )
        points = epsilon_sweep(community_b, community_a, epsilons=[huge])
        assert points[0].similarity_percent == pytest.approx(100.0)

    def test_point_fields(self, couple):
        (point,) = epsilon_sweep(*couple, epsilons=[1])
        assert point.parameter == 1.0
        assert point.n_matched >= 0
        assert point.elapsed_seconds >= 0.0

    def test_shared_cache_serves_the_repeat_sweep(self, couple):
        epsilons = [0, 1, 2, 4, 8]
        cache = JoinResultCache(max_entries=64)
        cold = epsilon_sweep(*couple, epsilons=epsilons, cache=cache)
        assert cache.hits == 0
        warm = epsilon_sweep(*couple, epsilons=epsilons, cache=cache)
        assert cache.hits == len(epsilons)
        assert [(p.similarity_percent, p.n_matched) for p in warm] == [
            (p.similarity_percent, p.n_matched) for p in cold
        ]

    def test_requires_ascending_epsilons(self, couple):
        with pytest.raises(ConfigurationError, match="ascending"):
            epsilon_sweep(*couple, epsilons=[2, 1])

    def test_requires_nonempty(self, couple):
        with pytest.raises(ConfigurationError):
            epsilon_sweep(*couple, epsilons=[])


class TestScaleSweep:
    def test_sizes_and_times_grow(self):
        points = scale_sweep(
            PAPER_COUPLES[0],
            VKGenerator(seed=7),
            scales=[1 / 1024, 1 / 256],
            epsilon=1,
        )
        assert points[0].parameter < points[1].parameter
        assert points[0].similarity_percent > 0

    def test_requires_nonempty(self):
        with pytest.raises(ConfigurationError):
            scale_sweep(PAPER_COUPLES[0], VKGenerator(seed=7), scales=[], epsilon=1)


class TestRenderSweep:
    def test_render_contains_bars(self, couple):
        points = epsilon_sweep(*couple, epsilons=[0, 2])
        rendered = render_sweep(points, parameter_name="epsilon")
        assert "epsilon" in rendered
        assert "#" in rendered

    def test_render_empty(self):
        assert "empty" in render_sweep([], parameter_name="x")
