"""Sharded-catalog suite: partitioner, distributed top-k, fault paths.

The heart of this suite is the multi-shard differential harness: a
500-community fleet partitioned 1/2/4/8 ways whose merged distributed
ranking must be byte-identical — pairs, similarities, orientation,
tie-breaks — to the single-host ``top_k_pairs`` on the union catalog,
including a skewed fleet where one hot component is split across
shards with replicated endpoints.
"""

from __future__ import annotations

import itertools
import json
import socket

import numpy as np
import pytest

from repro.analysis.sweeps import catalog_epsilon_sweep
from repro.apps import top_k_pairs
from repro.catalog import PersistentCatalog
from repro.core.errors import ConfigurationError, ReproError, ValidationError
from repro.core.types import Community, CSJResult
from repro.engine import BatchEngine, PairJob
from repro.obs import MetricsRegistry
from repro.serve import (
    CatalogBackedStore,
    ReconnectingClient,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)
from repro.shard import (
    PLAN_FILENAME,
    PartitionPlan,
    SHARD_COUNTERS,
    ShardCoordinator,
    ShardError,
    ShardFleet,
    ShardUnavailableError,
    partition_catalog,
    plan_partition,
)
from repro.testing import banded_community_fleet

pytestmark = pytest.mark.shard

EPSILON = 40


def ranking_key(scores):
    """The byte-identity fingerprint of a ranking."""
    return [
        (s.name_b, s.name_a, repr(s.similarity), s.result.n_matched)
        for s in scores
    ]


def make_catalog(path, communities):
    catalog = PersistentCatalog(path)
    catalog.register_many({c.name: c for c in communities})
    return catalog


def small_fleet():
    return banded_community_fleet(n_bands=6, per_band=4, users=10, dims=3, seed=5)


def big_fleet():
    """The 500-community differential fleet (100 bands x 5 members)."""
    return banded_community_fleet(
        n_bands=100, per_band=5, users=5, dims=3, seed=11
    )


def skewed_fleet():
    """Uniform bands plus one hot component that dwarfs them all.

    The hot component (one mega community plus five ratio-eligible
    partners, all candidates of each other) costs far more than the
    per-shard budget at 4 shards, so the partitioner must split it
    pair-wise with replicated endpoints or one shard serialises the
    sweep.  The hot band sits at counter value ~10000, far above the
    uniform bands, so it candidates with nothing else.
    """
    fleet = banded_community_fleet(
        n_bands=8, per_band=4, users=8, dims=3, seed=23
    )
    rng = np.random.default_rng(99)
    mega_base = rng.integers(0, 20, size=(120, 3)) + 10_000
    fleet.append(Community("hot-mega", mega_base))
    for member in range(5):
        noise = rng.integers(-2, 3, size=(70, 3))
        fleet.append(
            Community(f"hot-p{member}", np.maximum(mega_base[:70] + noise, 0))
        )
    return fleet


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_coverage_and_colocation(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            candidates = catalog.candidate_pairs(EPSILON)
            plan = partition_catalog(catalog, tmp_path / "p", 4, epsilon=EPSILON)
        covered = set()
        for spec in plan.shards:
            covered.update(spec.keys)
            with PersistentCatalog(tmp_path / "p" / spec.db) as shard_cat:
                assert shard_cat.keys() == sorted(spec.keys)
        assert covered == set(plan.metadata)
        for first, second in candidates:
            assert set(plan.shards_of(first)) & set(plan.shards_of(second)), (
                f"candidate pair ({first}, {second}) not co-located"
            )

    def test_plan_roundtrip(self, tmp_path):
        with make_catalog(tmp_path / "u.db", skewed_fleet()) as catalog:
            plan = plan_partition(catalog, 4, epsilon=EPSILON)
        reloaded = PartitionPlan.from_dict(plan.to_dict())
        assert reloaded.to_dict() == plan.to_dict()
        plan.save(tmp_path / PLAN_FILENAME)
        assert PartitionPlan.load(tmp_path / PLAN_FILENAME).to_dict() == plan.to_dict()

    def test_deterministic(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            first = plan_partition(catalog, 3, epsilon=EPSILON, seed=7)
            second = plan_partition(catalog, 3, epsilon=EPSILON, seed=7)
        assert first.to_dict() == second.to_dict()

    def test_skew_triggers_replication(self, tmp_path):
        with make_catalog(tmp_path / "u.db", skewed_fleet()) as catalog:
            split = plan_partition(catalog, 4, epsilon=EPSILON)
            lpt = plan_partition(catalog, 4, epsilon=EPSILON, replicate=False)
        assert split.stats["split_components"] >= 1
        assert split.replicated  # hot endpoints live on several shards
        assert split.pair_owners  # split pairs carry explicit owners
        # Without replication one shard owns the whole hot component and
        # the plan is badly imbalanced; splitting must do better.
        assert split.stats["imbalance"] < lpt.stats["imbalance"]

    def test_replicated_key_on_multiple_shards(self, tmp_path):
        with make_catalog(tmp_path / "u.db", skewed_fleet()) as catalog:
            plan = plan_partition(catalog, 4, epsilon=EPSILON)
        for key in plan.replicated:
            assert len(plan.shards_of(key)) >= 2

    def test_validation(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            with pytest.raises(ConfigurationError):
                plan_partition(catalog, 0, epsilon=EPSILON)
            with pytest.raises(ConfigurationError):
                plan_partition(catalog, 2, epsilon=-1)
        with PersistentCatalog(tmp_path / "empty.db") as empty:
            with pytest.raises(ConfigurationError):
                plan_partition(empty, 2, epsilon=EPSILON)

    def test_plan_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        with make_catalog(tmp_path / "u.db", skewed_fleet()) as catalog:
            plan_partition(catalog, 4, epsilon=EPSILON, metrics=metrics)
        assert metrics.counter("repro_shard_plans_total") == 1
        assert metrics.counter("repro_shard_replicas_total") >= 1


# ----------------------------------------------------------------------
# the multi-shard differential harness
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_merged_topk_byte_identical(self, tmp_path, n_shards):
        with make_catalog(tmp_path / "u.db", big_fleet()) as catalog:
            reference = top_k_pairs(catalog, epsilon=EPSILON, k=25)
            partition_catalog(
                catalog, tmp_path / "p", n_shards, epsilon=EPSILON
            )
        with ShardFleet(tmp_path / "p") as fleet:
            with fleet.coordinator() as coordinator:
                result = coordinator.top_k(epsilon=EPSILON, k=25)
        assert not result.degraded
        assert ranking_key(result.scores) == ranking_key(reference)

    def test_skewed_fleet_with_replication(self, tmp_path):
        metrics = MetricsRegistry()
        with make_catalog(tmp_path / "u.db", skewed_fleet()) as catalog:
            reference = top_k_pairs(catalog, epsilon=EPSILON, k=20)
            plan = partition_catalog(
                catalog, tmp_path / "p", 4, epsilon=EPSILON
            )
        assert plan.replicated  # the scenario must exercise dedup
        with ShardFleet(tmp_path / "p") as fleet:
            with fleet.coordinator(metrics=metrics) as coordinator:
                result = coordinator.top_k(epsilon=EPSILON, k=20)
        assert not result.degraded
        assert ranking_key(result.scores) == ranking_key(reference)
        # Replicated hot endpoints surface the same candidate pair on
        # several shards; the coordinator must count the dedup.
        assert metrics.counter("repro_shard_pairs_deduped_total") >= 1
        assert metrics.counter("repro_shard_requests_total") >= 4
        assert metrics.counter("repro_shard_pairs_merged_total") >= 1

    def test_epsilon_above_plan_epsilon_with_coverage(self, tmp_path):
        # Bands sit 500 counts apart, so epsilon 100 adds no inter-band
        # candidates: the plan's co-location still covers the query and
        # the distributed ranking stays byte-identical.
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            reference = top_k_pairs(catalog, epsilon=100, k=12)
            partition_catalog(catalog, tmp_path / "p", 4, epsilon=EPSILON)
        with ShardFleet(tmp_path / "p") as fleet:
            with fleet.coordinator() as coordinator:
                result = coordinator.top_k(epsilon=100, k=12)
        assert not result.degraded
        assert ranking_key(result.scores) == ranking_key(reference)

    def test_epsilon_above_plan_coverage_violation_raises(self, tmp_path):
        # Two bands only 100 apart: at plan epsilon 1 they are separate
        # components on separate shards, but at query epsilon 150 the
        # inter-band pairs become candidates no shard co-locates.
        fleet = banded_community_fleet(
            n_bands=2, per_band=3, users=6, dims=3, seed=9, band_gap=100
        )
        with make_catalog(tmp_path / "u.db", fleet) as catalog:
            partition_catalog(catalog, tmp_path / "p", 2, epsilon=1)
        with ShardFleet(tmp_path / "p") as shards:
            with shards.coordinator() as coordinator:
                with pytest.raises(ShardError, match="repartition"):
                    coordinator.top_k(epsilon=150, k=5)


# ----------------------------------------------------------------------
# shard loss
# ----------------------------------------------------------------------
class TestShardLoss:
    def _partitioned(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            partition_catalog(catalog, tmp_path / "p", 4, epsilon=EPSILON)

    def test_degraded_response_names_missing_shard(self, tmp_path):
        self._partitioned(tmp_path)
        metrics = MetricsRegistry()
        with ShardFleet(tmp_path / "p") as fleet:
            lost_keys = set(fleet.plan.shards[2].keys)
            fleet.stop_shard(2)
            with fleet.coordinator(metrics=metrics, retries=0, timeout=5.0) as coord:
                result = coord.top_k(epsilon=EPSILON, k=20, allow_partial=True)
        assert result.degraded
        assert result.missing == (2,)
        assert set(result.dropped_keys) == lost_keys
        assert metrics.counter("repro_shard_degraded_total") == 1
        assert metrics.counter("repro_shard_failures_total") >= 1

    def test_surviving_ranking_is_correct_subset(self, tmp_path):
        self._partitioned(tmp_path)
        with ShardFleet(tmp_path / "p") as fleet:
            fleet.stop_shard(1)
            with fleet.coordinator(retries=0, timeout=5.0) as coord:
                result = coord.top_k(epsilon=EPSILON, k=20, allow_partial=True)
            survivors = sorted(
                set(fleet.plan.metadata) - set(result.dropped_keys)
            )
        # The degraded ranking equals the single-host ranking over the
        # surviving universe: correct scores, nothing fabricated.
        with PersistentCatalog(tmp_path / "u.db") as catalog:
            reference = top_k_pairs(
                catalog, epsilon=EPSILON, k=20, keys=survivors
            )
        assert ranking_key(result.scores) == ranking_key(reference)

    def test_without_allow_partial_raises(self, tmp_path):
        self._partitioned(tmp_path)
        with ShardFleet(tmp_path / "p") as fleet:
            fleet.stop_shard(3)
            with fleet.coordinator(retries=0, timeout=5.0) as coord:
                with pytest.raises(ShardUnavailableError, match=r"\[3\]"):
                    coord.top_k(epsilon=EPSILON, k=5)

    def test_all_shards_down_raises_even_partial(self, tmp_path):
        self._partitioned(tmp_path)
        with ShardFleet(tmp_path / "p") as fleet:
            for shard in range(4):
                fleet.stop_shard(shard)
            plan = fleet.plan
            addresses = fleet.addresses
            with ShardCoordinator(
                plan, addresses, retries=0, timeout=5.0
            ) as coord:
                with pytest.raises(ShardUnavailableError):
                    coord.top_k(epsilon=EPSILON, k=5, allow_partial=True)


class TestMidPhaseShardDeath:
    """One shard fails every request of one phase of a ranking.

    The skewed fleet splits its hot component pair-wise over 4 shards,
    so each shard owns some pairs that a live shard also holds (they
    are re-routed and scored) and some that no live shard holds (they
    are lost).  Whatever is scored must equal the single-host
    similarity of its pair; a lost pair is never scored.
    """

    DEAD = 1
    K = 200  # a pool of every candidate pair, so each phase sees them all

    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mid-phase")
        with make_catalog(root / "u.db", skewed_fleet()) as catalog:
            partition_catalog(catalog, root / "p", 4, epsilon=EPSILON)
            exact = {
                (score.name_b, score.name_a): score.similarity
                for score in top_k_pairs(catalog, epsilon=EPSILON, k=10_000)
            }
        return root, exact

    @staticmethod
    def phase_of(op: str, args: dict) -> str:
        if op != "join_batch":
            return op
        return "refine" if args.get("include_results") else "screen"

    @pytest.mark.parametrize("phase", ["candidates", "screen", "refine"])
    def test_reroutes_and_reports_lost_pairs(self, fleet_dir, monkeypatch, phase):
        root, exact = fleet_dir
        request = ShardCoordinator._request
        failed = []

        def failing_request(coordinator, shard, op, args):
            if shard == self.DEAD and self.phase_of(op, args) == phase:
                failed.append(op)
                raise ServeError("unavailable", "injected shard death")
            return request(coordinator, shard, op, args)

        monkeypatch.setattr(ShardCoordinator, "_request", failing_request)
        with ShardFleet(root / "p") as fleet:
            plan = fleet.plan
            with fleet.coordinator() as coordinator:
                result = coordinator.top_k(
                    epsilon=EPSILON, k=self.K, allow_partial=True
                )
        assert failed
        assert result.missing == (self.DEAD,)
        exclusive = {key for key in plan.metadata if plan.shards_of(key) == (self.DEAD,)}
        assert set(result.dropped_keys) == (exclusive if phase == "candidates" else set())
        assert result.lost_pairs
        scored = {tuple(sorted((s.name_b, s.name_a))) for s in result.scores}
        assert not scored & set(result.lost_pairs)
        rerouted = {
            pair
            for pair in itertools.combinations(sorted(plan.metadata), 2)
            if plan.owner_of(*pair) == self.DEAD
            and set(plan.shards_of(pair[0])) & set(plan.shards_of(pair[1])) - {self.DEAD}
        }
        assert rerouted & scored
        assert not rerouted & set(result.lost_pairs)
        for score in result.scores:
            assert repr(score.similarity) == repr(exact[(score.name_b, score.name_a)])


# ----------------------------------------------------------------------
# caller mistakes are not outages
# ----------------------------------------------------------------------
class TestCoordinatorInputErrors:
    """A bad argument raises what ``top_k_pairs`` raises, before any RPC.

    The shards would answer such a request ``invalid``; reaching them
    would report the caller's mistake as missing shards, or, with
    ``allow_partial``, as a degraded ranking.
    """

    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("input-errors")
        with make_catalog(root / "u.db", small_fleet()) as catalog:
            partition_catalog(catalog, root / "p", 2, epsilon=EPSILON)
        return root

    @pytest.mark.parametrize(
        "case",
        [
            {"screen_method": "nope"},
            {"refine_method": "nope"},
            {"n_parts": 0},
            {"epsilon": 1.7},
            {"epsilon": True},
            {"k": 2.5},
            {"k": True},
        ],
        ids=[
            "screen_method",
            "refine_method",
            "n_parts",
            "float_eps",
            "bool_eps",
            "float_k",
            "bool_k",
        ],
    )
    def test_top_k_raises_like_single_host(self, fleet_dir, case):
        kwargs = {"epsilon": EPSILON, "k": 5, **case}
        with PersistentCatalog(fleet_dir / "u.db") as catalog:
            with pytest.raises(ReproError) as expected:
                top_k_pairs(catalog, **kwargs)
        metrics = MetricsRegistry()
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator(metrics=metrics, retries=0) as coordinator:
                for allow_partial in (False, True):
                    with pytest.raises(ReproError) as raised:
                        coordinator.top_k(allow_partial=allow_partial, **kwargs)
                    assert type(raised.value) is type(expected.value)
        assert metrics.counter("repro_shard_failures_total") == 0
        assert metrics.counter("repro_shard_requests_total") == 0

    @pytest.mark.parametrize("epsilon", [1.7, True, -1])
    def test_join_and_sweep_validate_epsilon(self, fleet_dir, epsilon):
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator() as coordinator:
                with pytest.raises(ValidationError):
                    coordinator.join("band0-m0", "band0-m1", epsilon=epsilon)
                with pytest.raises(ValidationError):
                    coordinator.sweep([("band0-m0", "band0-m1")], [epsilon])

    def test_sweep_unknown_key_raises_before_any_request(self, fleet_dir, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        metrics = MetricsRegistry()
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator(metrics=metrics) as coordinator:
                with pytest.raises(ShardError, match="nope"):
                    coordinator.sweep(
                        [("band0-m0", "band0-m1"), ("band0-m0", "nope")],
                        [5, 20],
                        checkpoint=checkpoint,
                    )
        assert metrics.counter("repro_shard_requests_total") == 0
        assert not checkpoint.exists()


# ----------------------------------------------------------------------
# client reconnect regression
# ----------------------------------------------------------------------
class TestReconnectingClient:
    def test_retries_safe_op_across_server_restart(self):
        port = free_port()
        config = ServeConfig(port=port)
        first = ServerThread(config)
        first.start()
        try:
            client = ReconnectingClient("127.0.0.1", port, timeout=5.0, retries=2)
            assert client.request("health")["status"] == "ok"
            first.stop()
            restarted = ServerThread(ServeConfig(port=port))
            restarted.start()
            try:
                # The old connection is dead; a retry-safe op must be
                # transparently redialled and resent.
                assert client.request("health")["status"] == "ok"
                assert client.reconnects >= 1
            finally:
                restarted.stop()
            client.close()
        finally:
            first.stop()

    def test_unsafe_op_is_not_resent(self):
        port = free_port()
        first = ServerThread(ServeConfig(port=port))
        first.start()
        client = ReconnectingClient("127.0.0.1", port, timeout=5.0, retries=2)
        try:
            assert client.request("health")["status"] == "ok"
            first.stop()
            restarted = ServerThread(ServeConfig(port=port))
            restarted.start()
            try:
                # A mutation must never be silently resent: double
                # apply.  The caller gets the connection error instead.
                with pytest.raises(ServeError, match="mutate"):
                    client.request(
                        "mutate",
                        {"name": "x", "user_index": 0, "dim": 0, "amount": 1},
                    )
                # ... but the next safe request reconnects lazily.
                assert client.request("health")["status"] == "ok"
            finally:
                restarted.stop()
        finally:
            client.close()
            first.stop()

    def test_dial_failure_exhausts_retries(self):
        port = free_port()  # nothing listening
        client = ReconnectingClient("127.0.0.1", port, timeout=0.5, retries=1)
        with pytest.raises(ServeError, match="cannot connect"):
            client.request("health")
        client.close()


# ----------------------------------------------------------------------
# fleet protocol endpoints
# ----------------------------------------------------------------------
class TestFleetEndpoints:
    def test_candidates_parity_with_catalog(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            expected = catalog.candidate_pairs(EPSILON)
        with PersistentCatalog(tmp_path / "u.db") as catalog:
            store = CatalogBackedStore(catalog)
            with ServerThread(store=store) as st:
                with ServeClient(*st.address) as client:
                    response = client.candidates(epsilon=EPSILON)
        assert [tuple(p) for p in response["pairs"]] == expected
        assert response["count"] == len(expected)

    def test_join_batch_parity_with_engine(self, tmp_path):
        fleet = small_fleet()
        band0 = sorted(c.name for c in fleet if c.name.startswith("band0"))
        pairs = [(band0[0], band0[1]), (band0[0], band0[2]), (band0[1], band0[3])]
        roster = sorted(
            (c for c in fleet if c.name in set(band0)), key=lambda c: c.name
        )
        index_of = {c.name: i for i, c in enumerate(roster)}
        with BatchEngine(roster, n_jobs=1) as engine:
            outcomes = engine.run(
                [
                    PairJob.build(index_of[a], index_of[b], "ex-minmax", EPSILON)
                    for a, b in pairs
                ]
            )
        expected = {
            pair: outcome.result for pair, outcome in zip(pairs, outcomes)
        }
        with make_catalog(tmp_path / "u.db", fleet) as catalog:
            store = CatalogBackedStore(catalog)
            with ServerThread(store=store) as st:
                with ServeClient(*st.address) as client:
                    response = client.join_batch(
                        pairs,
                        epsilon=EPSILON,
                        method="ex-minmax",
                        include_results=True,
                    )
        assert response["count"] == len(pairs)
        entries = {
            (e["first"], e["second"]): CSJResult.from_dict(e["result"])
            for e in response["pairs"]
        }
        for pair, result in expected.items():
            served = entries[pair]
            assert repr(served.similarity) == repr(result.similarity)
            assert served.pairs == result.pairs
        # The stream arrives ranked by (-similarity, first, second).
        sims = [
            (-e["similarity"], e["first"], e["second"])
            for e in response["pairs"]
        ]
        assert sims == sorted(sims)

    def test_join_batch_validation(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            store = CatalogBackedStore(catalog)
            with ServerThread(store=store) as st:
                with ServeClient(*st.address) as client:
                    with pytest.raises(ServeError):
                        client.request("join_batch", {"pairs": [], "epsilon": 1})
                    with pytest.raises(ServeError):
                        client.request(
                            "join_batch",
                            {"pairs": [["a", "a"]], "epsilon": 1},
                        )
                    with pytest.raises(ServeError):
                        client.request(
                            "join_batch",
                            {"pairs": [["band0-m0", "band0-m1"]]},
                        )

    def test_server_stats_include_zeroed_shard_block(self):
        with ServerThread() as st:
            with ServeClient(*st.address) as client:
                stats = client.stats()
        assert stats["shard"] == {"requests": 0, "failures": 0, "degraded": 0}


# ----------------------------------------------------------------------
# single joins and sweeps through the coordinator
# ----------------------------------------------------------------------
class TestCoordinatorSweep:
    @pytest.fixture()
    def fleet_dir(self, tmp_path):
        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            partition_catalog(catalog, tmp_path / "p", 3, epsilon=EPSILON)
        return tmp_path

    def test_join_routes_to_owner(self, fleet_dir):
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator() as coord:
                served = coord.join("band0-m0", "band0-m1", epsilon=EPSILON)
        assert served["disposition"] in {"computed", "cached"}
        assert served["result"]["similarity"] > 0.0

    def test_join_screened_pair_synthesised(self, fleet_dir):
        # Different bands: provably separated at plan epsilon, on
        # different shards — the coordinator answers from the plan.
        with ShardFleet(fleet_dir / "p") as fleet:
            pairs = {
                tuple(sorted((a, b))): fleet.plan.owner_of(a, b)
                for a in fleet.plan.metadata
                for b in fleet.plan.metadata
                if a < b
            }
            first, second = next(
                pair for pair, owner in pairs.items() if owner is None
            )
            with fleet.coordinator() as coord:
                served = coord.join(first, second, epsilon=EPSILON)
        assert served["disposition"] == "screened"
        assert served["result"]["similarity"] == 0.0

    def test_sweep_parity_with_catalog_sweep(self, fleet_dir):
        epsilons = [5, 20, 60]
        couples = [("band0-m0", "band0-m1"), ("band0-m0", "band3-m2")]
        with PersistentCatalog(fleet_dir / "u.db") as catalog:
            expected = {
                couple: catalog_epsilon_sweep(
                    catalog, couple[0], couple[1], epsilons
                )
                for couple in couples
            }
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator() as coord:
                result = coord.sweep(couples, epsilons)
        assert not result.degraded
        for couple in couples:
            got = [
                (p.parameter, p.similarity_percent, p.n_matched)
                for p in result.curves[couple]
            ]
            want = [
                (p.parameter, p.similarity_percent, p.n_matched)
                for p in expected[couple]
            ]
            assert got == want

    def test_sweep_checkpoint_resume(self, fleet_dir, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        couples = [("band1-m0", "band1-m1")]
        metrics = MetricsRegistry()
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator(metrics=metrics) as coord:
                first = coord.sweep(couples, [5, 20], checkpoint=checkpoint)
                assert first.resumed_cells == 0
                # A killed run leaves a torn trailing line; the loader
                # must skip it and recompute only that cell.
                with open(checkpoint, "a", encoding="utf-8") as fh:
                    fh.write('{"first": "band1-m0", "second"')
                second = coord.sweep(
                    couples, [5, 20, 60], checkpoint=checkpoint
                )
        assert second.resumed_cells == 2  # epsilon 5 and 20 reused
        assert metrics.counter("repro_shard_resumed_total") == 2
        points = second.curves[couples[0]]
        assert [p.parameter for p in points] == [5.0, 20.0, 60.0]
        # The resumed curve is complete and internally consistent.
        lines = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()
            if line.startswith("{") and line.endswith("}")
        ]
        assert {entry["epsilon"] for entry in lines} == {5, 20, 60}

    def test_sweep_validates_epsilons(self, fleet_dir):
        with ShardFleet(fleet_dir / "p") as fleet:
            with fleet.coordinator() as coord:
                with pytest.raises(ConfigurationError):
                    coord.sweep([("band0-m0", "band0-m1")], [])
                with pytest.raises(ConfigurationError):
                    coord.sweep([("band0-m0", "band0-m1")], [20, 5])


# ----------------------------------------------------------------------
# metrics and CLI
# ----------------------------------------------------------------------
class TestMetricsAndCli:
    def test_counter_family_is_complete(self):
        assert set(SHARD_COUNTERS) == {
            "repro_shard_plans_total",
            "repro_shard_replicas_total",
            "repro_shard_requests_total",
            "repro_shard_retries_total",
            "repro_shard_failures_total",
            "repro_shard_pairs_deduped_total",
            "repro_shard_pairs_merged_total",
            "repro_shard_degraded_total",
            "repro_shard_resumed_total",
        }

    def test_cli_prometheus_zero_initialises_shard_family(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "topk", "--scale", "0.001", "--couples", "4", "--k", "3",
                    "--telemetry-out", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        for name in SHARD_COUNTERS:
            assert f"{name} 0" in out

    def test_cli_shard_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        with make_catalog(tmp_path / "u.db", small_fleet()):
            pass
        assert (
            main(
                [
                    "shard", "partition", str(tmp_path / "u.db"),
                    str(tmp_path / "p"), "--shards", "3",
                    "--epsilon", str(EPSILON),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "partitioned 24 communities into 3 shards" in out
        assert (
            main(
                [
                    "shard", "topk", str(tmp_path / "p"),
                    "--epsilon", str(EPSILON), "--k", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("similarity=") == 4
        assert (
            main(
                [
                    "shard", "sweep", str(tmp_path / "p"),
                    "--pair", "band0-m0", "band0-m1",
                    "--epsilons", "5", "20",
                    "--checkpoint", str(tmp_path / "ckpt.jsonl"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "shard", "sweep", str(tmp_path / "p"),
                    "--pair", "band0-m0", "band0-m1",
                    "--epsilons", "5", "20",
                    "--checkpoint", str(tmp_path / "ckpt.jsonl"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resumed 2 checkpointed cells" in out

    def test_cli_addresses_match_self_hosted(self, tmp_path, capsys):
        from repro.cli import main

        with make_catalog(tmp_path / "u.db", small_fleet()) as catalog:
            partition_catalog(catalog, tmp_path / "p", 3, epsilon=EPSILON)
        plan_dir = str(tmp_path / "p")
        commands = [
            ["shard", "topk", plan_dir, "--epsilon", str(EPSILON), "--k", "6"],
            [
                "shard", "sweep", plan_dir,
                "--pair", "band0-m0", "band0-m1",
                "--pair", "band0-m0", "band3-m2",
                "--epsilons", "5", "20",
            ],
        ]
        for command in commands:
            assert main(command) == 0
            self_hosted = capsys.readouterr().out
            assert "similarity=" in self_hosted
            with ShardFleet(plan_dir) as fleet:
                addresses = [f"{host}:{port}" for host, port in fleet.addresses]
                assert main([*command, "--addresses", *addresses]) == 0
            assert capsys.readouterr().out == self_hosted
