"""One envelope sweep answers "which pairs survive the screen?" everywhere.

The kernel :func:`~repro.engine.envelope.surviving_pairs` is checked
against the pairwise oracle :func:`~repro.engine.envelope.envelopes_separated`;
the five candidate generators that route through it (the list screen of
``top_k_pairs``, the persistent catalog, both serve stores and the shard
coordinator) must agree pair for pair.  Also here: epsilon validation at
every screen entry point, and rankings that do not depend on the order
of their input.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.catalog import PersistentCatalog
from repro.core.errors import ConfigurationError, ValidationError
from repro.core.types import Community
from repro.engine import envelope as envelope_module
from repro.engine.envelope import (
    Envelope,
    candidate_pairs,
    community_envelope,
    envelopes_separated,
    surviving_pairs,
)
from repro.obs import MetricsRegistry
from repro.serve import CatalogBackedStore, CommunityStore
from repro.shard import ShardFleet, partition_catalog, plan_partition
from repro.testing import banded_community_fleet

INT64_MAX = 2**63 - 1
HUGE_EPSILONS = (2**62, INT64_MAX, 2**70)


def oracle(mins: np.ndarray, maxs: np.ndarray, epsilon: int) -> list[tuple[int, int]]:
    envelopes = [Envelope(mins[i], maxs[i]) for i in range(len(mins))]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(envelopes)), 2)
        if not envelopes_separated(envelopes[i], envelopes[j], epsilon)
    ]


def swept(mins, maxs, epsilon) -> list[tuple[int, int]]:
    first, second = surviving_pairs(
        np.asarray(mins, dtype=np.int64), np.asarray(maxs, dtype=np.int64), epsilon
    )
    assert first.dtype == second.dtype == np.int64
    return list(zip(first.tolist(), second.tolist()))


def brute_force_pairs(communities: list[Community], epsilon: int) -> list[tuple[str, str]]:
    envelopes = {c.name: community_envelope(c) for c in communities}
    return [
        (a, b)
        for a, b in itertools.combinations(sorted(envelopes), 2)
        if envelopes[a].n_dims == envelopes[b].n_dims
        and not envelopes_separated(envelopes[a], envelopes[b], epsilon)
    ]


@st.composite
def envelope_sets(draw):
    """Stacked ``(C, d)`` bounds: tiny ranges (ties) or counters near 2**62."""
    n = draw(st.integers(0, 9))
    d = draw(st.integers(1, 4))
    base = draw(st.sampled_from([0, 2**62 - 4, INT64_MAX - 12]))
    low = st.integers(0, 6).map(lambda offset: base + offset)
    mins = np.array(
        [[draw(low) for _ in range(d)] for _ in range(n)], dtype=np.int64
    ).reshape(n, d)
    widths = np.array(
        [[draw(st.integers(0, 5)) for _ in range(d)] for _ in range(n)], dtype=np.int64
    ).reshape(n, d)
    maxs = np.minimum(mins, INT64_MAX - widths) + widths
    if draw(st.booleans()) and n:
        # A far-away community: gaps of about 2**62 to everything else.
        mins[0] = maxs[0] = base ^ (1 << 62)
    return mins, maxs


class TestSurvivingPairs:
    @pytest.mark.parametrize("block", [None, 1, 7])
    @settings(max_examples=80, deadline=None)
    @given(
        bounds=envelope_sets(),
        epsilon=st.sampled_from((0, 1, 2, 5) + HUGE_EPSILONS),
    )
    def test_matches_pairwise_oracle(self, block, bounds, epsilon):
        mins, maxs = bounds
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(envelope_module, "_SWEEP_BLOCK_PAIRS", block)
            assert swept(mins, maxs, epsilon) == oracle(mins, maxs, epsilon)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_fleets(self, n):
        mins = np.zeros((n, 3), dtype=np.int64)
        assert swept(mins, mins, 0) == {0: [], 1: [], 2: [(0, 1)]}[n]

    def test_ties_all_overlapping_and_all_separated(self):
        same = np.full((6, 2), 5, dtype=np.int64)
        assert swept(same, same, 0) == list(itertools.combinations(range(6), 2))
        spread = np.arange(6, dtype=np.int64).reshape(6, 1) * 10
        assert swept(spread, spread, 9) == []
        assert swept(spread, spread, 10) == [(i, i + 1) for i in range(5)]

    def test_epsilon_zero_keeps_touching_envelopes(self):
        mins = np.array([[0, 0], [3, 0], [4, 0]], dtype=np.int64)
        maxs = np.array([[3, 9], [3, 9], [9, 9]], dtype=np.int64)
        assert swept(mins, maxs, 0) == [(0, 1)]
        assert swept(mins, maxs, 1) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("epsilon", HUGE_EPSILONS)
    def test_window_saturates_instead_of_wrapping(self, epsilon):
        # max + epsilon exceeds int64 for every community here.
        mins = np.array([[2**62 + 1], [0], [INT64_MAX]], dtype=np.int64)
        maxs = np.array([[2**62 + 9], [5], [INT64_MAX]], dtype=np.int64)
        assert swept(mins, maxs, epsilon) == oracle(mins, maxs, epsilon)

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_split_one_window(self, monkeypatch, block):
        monkeypatch.setattr(envelope_module, "_SWEEP_BLOCK_PAIRS", block)
        mins = np.zeros((12, 2), dtype=np.int64)
        maxs = np.full((12, 2), 3, dtype=np.int64)
        maxs[5] = 1
        mins[7, 1] = 9
        maxs[7, 1] = 9
        assert swept(mins, maxs, 2) == oracle(mins, maxs, 2)


class TestNameLevelHelper:
    def test_mixed_dimensionalities_never_pair(self):
        rng = np.random.default_rng(3)
        fleet = [
            Community(f"c{index:02d}", rng.integers(0, 6, size=(4, 2 + index % 2)))
            for index in range(14)
        ]
        pairs = candidate_pairs({c.name: community_envelope(c) for c in fleet}, 1)
        assert pairs == brute_force_pairs(fleet, 1)
        assert all(a < b for a, b in pairs)
        dims = {c.name: c.n_dims for c in fleet}
        assert all(dims[a] == dims[b] for a, b in pairs)
        assert len({dims[a] for a, _ in pairs}) == 2

    @pytest.mark.parametrize("epsilon", [1.7, True, "3", -1])
    def test_epsilon_validated(self, epsilon):
        envelopes = {"a": Envelope(np.zeros(2, np.int64), np.ones(2, np.int64))}
        with pytest.raises(ValidationError, match="epsilon"):
            candidate_pairs(envelopes, epsilon)


class TestFiveSitesAgree:
    EPSILON = 2

    def test_every_generator_returns_the_same_pairs(self, tmp_path):
        # Bands 25 counts apart with a range of 20: some cross-band
        # pairs survive in some dimensions only.
        fleet = banded_community_fleet(
            4, 4, users=8, dims=3, seed=21, band_gap=25, high=20
        )
        # The seed state lives in a catalog; two faulted-in entries then
        # drift away from their rows inside a catalog-backed store.
        with PersistentCatalog(tmp_path / "seed.db") as seed_catalog, PersistentCatalog(
            tmp_path / "current.db"
        ) as catalog:
            seed_catalog.register_many({c.name: c for c in fleet})
            drifted = CatalogBackedStore(seed_catalog)
            moved, widened = fleet[0].name, fleet[5].name
            drifted.record_like(moved, 0, 1, 60)
            drifted.subscribe(widened, [70, 70, 70])
            assert drifted.loaded_names() == sorted([moved, widened])
            current = [
                drifted.snapshot(c.name).community if c.name in (moved, widened) else c
                for c in fleet
            ]
            expected = brute_force_pairs(current, self.EPSILON)
            assert expected != brute_force_pairs(fleet, self.EPSILON)

            catalog.register_many({c.name: c for c in current})
            store = CommunityStore()
            for community in current:
                store.register_community(community)
            records = []
            top_k_pairs(
                current[::-1],
                epsilon=self.EPSILON,
                k=1,
                metrics=MetricsRegistry(),
                telemetry=records,
            )
            names = sorted(c.name for c in current)
            assert len({c.n_users for c in current}) <= 2  # every pair joinable
            partition_catalog(catalog, tmp_path / "shards", 2, epsilon=self.EPSILON)
            with ShardFleet(tmp_path / "shards") as shards:
                with shards.coordinator() as coordinator:
                    coordinator_screen = sorted(
                        coordinator._env_candidates(names, self.EPSILON)
                    )
            assert (
                sorted(
                    (names[r.first], names[r.second])
                    for r in records
                    if r.method == "ap-minmax"
                )
                == expected
            )
            assert catalog.candidate_pairs(self.EPSILON) == expected
            assert store.candidate_pairs(self.EPSILON) == expected
            assert drifted.candidate_pairs(self.EPSILON) == expected
            assert drifted.loaded_names() == sorted([moved, widened])
            assert CatalogBackedStore(catalog).candidate_pairs(self.EPSILON) == expected
            assert coordinator_screen == expected

    def test_store_screen_memory_is_linear(self):
        fleet = banded_community_fleet(
            150, 10, users=3, dims=8, seed=16, band_gap=100
        )
        store = CommunityStore()
        for community in fleet:
            store.register_community(community)
        expected = store.candidate_pairs(1)  # warms snapshots and envelopes
        tracemalloc.start()
        try:
            assert store.candidate_pairs(1) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (C, C, d) int64 broadcast alone is 144 MB here.
        assert peak < 16 * 2**20
        assert 0 < len(expected) < 1500 * 10


class TestEpsilonValidation:
    """Every screen entry point rejects a non-integer epsilon instead of
    truncating it; a negative one keeps its error type."""

    BAD = [1.7, 2.9, True, "3"]

    @pytest.fixture
    def catalog(self, tmp_path):
        fleet = banded_community_fleet(2, 2, users=6, dims=3, seed=8)
        with PersistentCatalog(tmp_path / "c.db") as catalog:
            catalog.register_many({c.name: c for c in fleet})
            yield catalog

    @pytest.mark.parametrize("epsilon", BAD + [-1])
    def test_catalog_entry_points(self, catalog, epsilon):
        first, second = catalog.keys()[:2]
        calls = [
            lambda: catalog.candidate_pairs(epsilon),
            lambda: catalog.candidate_keys(first, epsilon),
            lambda: catalog.window_candidates(catalog.envelope(first), epsilon),
            lambda: catalog.pair_screened(first, second, epsilon),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="epsilon"):
                call()

    @pytest.mark.parametrize("epsilon", BAD + [-1])
    def test_store_entry_points(self, catalog, epsilon):
        store = CommunityStore()
        store.register_community(catalog.get(catalog.keys()[0]))
        for source in (store, CatalogBackedStore(catalog)):
            with pytest.raises(ValidationError, match="epsilon"):
                source.candidate_pairs(epsilon)

    @pytest.mark.parametrize("epsilon", BAD + [-1])
    def test_plan_partition(self, catalog, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon"):
            plan_partition(catalog, 2, epsilon=epsilon)


class TestRankingIgnoresInputOrder:
    """Equal-size pairs are oriented (lower name, higher name) by every
    source; Ap-MinMax is order-sensitive, so anything else would make a
    ranking depend on the order of its input."""

    @pytest.mark.parametrize("seed", [7, 1])
    def test_lists_catalogs_and_shards_rank_identically(self, tmp_path, seed):
        # Unpadded names: list order (m2 before m10) is not name order.
        fleet = banded_community_fleet(
            n_bands=2, per_band=12, users=60, dims=8, seed=seed
        )
        assert [c.name for c in fleet] != sorted(c.name for c in fleet)

        def key(scores):
            return [(s.name_b, s.name_a, repr(s.similarity)) for s in scores]

        reference = key(top_k_pairs(fleet, epsilon=1, k=10))
        rng = random.Random(seed)
        for _ in range(2):
            shuffled = list(fleet)
            rng.shuffle(shuffled)
            assert key(top_k_pairs(shuffled, epsilon=1, k=10)) == reference
            assert key(top_k_pairs_reference(shuffled, epsilon=1, k=10)) == reference
        with PersistentCatalog(tmp_path / "union.db") as catalog:
            for community in shuffled:
                catalog.register(community.name, community)
            assert key(top_k_pairs(catalog, epsilon=1, k=10)) == reference
            for n_shards in (1, 2, 4):
                partition_catalog(
                    catalog, tmp_path / f"p{n_shards}", n_shards, epsilon=1
                )
        for n_shards in (1, 2, 4):
            with ShardFleet(tmp_path / f"p{n_shards}") as shards:
                with shards.coordinator() as coordinator:
                    result = coordinator.top_k(epsilon=1, k=10)
            assert not result.degraded
            assert key(result.scores) == reference
