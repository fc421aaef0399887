"""Tests for the SQLite-backed persistent catalog (repro.catalog)."""

from __future__ import annotations

import itertools
import sqlite3
import threading

import numpy as np
import pytest

from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.analysis.sweeps import catalog_epsilon_sweep, epsilon_sweep
from repro.catalog import (
    CATALOG_COUNTERS,
    PersistentCatalog,
    content_fingerprint,
    init_catalog_metrics,
)
from repro.core.errors import ConfigurationError, DimensionMismatchError, ValidationError
from repro.core.types import Community
from repro.datasets.io import save_communities, save_couple
from repro.engine.envelope import community_envelope, envelopes_separated
from repro.obs import MetricsRegistry
from repro.serve import CatalogBackedStore, UnknownCommunityError
from repro.shard import ShardFleet, partition_catalog
from tests.conftest import banded_community_fleet

pytestmark = pytest.mark.catalog


def make_community(name: str, seed: int, n: int = 20, d: int = 4) -> Community:
    rng = np.random.default_rng(seed)
    return Community(name, rng.integers(0, 20, size=(n, d)), "Sport")


def register_fleet(catalog: PersistentCatalog, fleet: list[Community]) -> list[str]:
    keys = []
    for community in fleet:
        catalog.register(community.name, community)
        keys.append(community.name)
    return keys


def write_archives(root, fleet: list[Community]) -> None:
    """The directory layout ``import_directory`` reads: one archive per key."""
    root.mkdir(parents=True, exist_ok=True)
    for community in fleet:
        save_communities(root / f"{community.name}.npz", {"community": community})


def brute_force_surviving_pairs(
    fleet: list[Community], epsilon: int
) -> set[tuple[str, str]]:
    """Oracle: unordered surviving pairs by the in-memory envelope screen."""
    envelopes = {c.name: community_envelope(c) for c in fleet}
    survivors = set()
    for first, second in itertools.combinations(sorted(envelopes), 2):
        if not envelopes_separated(envelopes[first], envelopes[second], epsilon):
            survivors.add((first, second))
    return survivors


@pytest.fixture
def catalog(tmp_path) -> PersistentCatalog:
    with PersistentCatalog(tmp_path / "catalog.db") as cat:
        yield cat


class TestRegistry:
    def test_register_and_get(self, catalog):
        community = make_community("nike", 1)
        catalog.register("nike", community)
        loaded = catalog.get("nike")
        assert loaded.name == "nike"
        assert loaded.category == "Sport"
        assert np.array_equal(loaded.vectors, community.vectors)

    def test_keys_sorted_len_contains(self, catalog):
        catalog.register("b", make_community("B", 1))
        catalog.register("a", make_community("A", 2))
        assert catalog.keys() == ["a", "b"]
        assert len(catalog) == 2
        assert "a" in catalog and "ghost" not in catalog

    def test_metadata_without_vector_io(self, catalog):
        community = make_community("x", 3, n=31, d=5)
        catalog.register("x", community)
        record = catalog.metadata("x")
        assert (record.n_users, record.n_dims) == (31, 5)
        assert record.fingerprint == content_fingerprint(community.vectors)
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_envelope_matches_in_memory(self, catalog):
        community = make_community("x", 4)
        catalog.register("x", community)
        stored = catalog.envelope("x")
        expected = community_envelope(community)
        assert np.array_equal(stored.mins, expected.mins)
        assert np.array_equal(stored.maxs, expected.maxs)

    def test_get_unknown(self, catalog):
        with pytest.raises(ValidationError, match="registered"):
            catalog.get("ghost")
        with pytest.raises(ValidationError, match="registered"):
            catalog.metadata("ghost")

    def test_remove(self, catalog):
        catalog.register("x", make_community("X", 5))
        catalog.remove("x")
        assert catalog.keys() == []
        with pytest.raises(ValidationError):
            catalog.remove("x")

    @pytest.mark.parametrize("key", ["", "a|b", "a/b", "a\\b"])
    def test_invalid_keys_rejected(self, catalog, key):
        with pytest.raises(ValidationError):
            catalog.register(key, make_community("X", 6))

    def test_replace_updates_fingerprint(self, catalog):
        catalog.register("k", make_community("Old", 7))
        old = catalog.metadata("k").fingerprint
        catalog.register("k", make_community("New", 8))
        assert catalog.metadata("k").fingerprint != old
        assert catalog.get("k").name == "New"

    def test_register_many_bulk(self, catalog):
        fleet = banded_community_fleet(2, 3)
        catalog.register_many({c.name: c for c in fleet})
        assert len(catalog) == len(fleet)
        stats = catalog.io_stats()
        assert stats["repro_catalog_registrations_total"] == len(fleet)

    def test_new_database_has_two_tables(self, catalog):
        tables = catalog._connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        ).fetchall()
        assert [name for (name,) in tables] == ["communities", "vectors"]

    def test_metrics_mirrored(self, tmp_path):
        metrics = MetricsRegistry()
        init_catalog_metrics(metrics)
        with PersistentCatalog(tmp_path / "m.db", metrics=metrics) as cat:
            cat.register("a", make_community("A", 9))
            cat.get("a")
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["repro_catalog_registrations_total"] == 1
        assert snapshot["repro_catalog_vector_loads_total"] == 1
        for name in CATALOG_COUNTERS:
            assert name in snapshot


class TestWindowQuery:
    def test_candidates_match_brute_force(self, catalog):
        fleet = banded_community_fleet(3, 4, seed=11)
        register_fleet(catalog, fleet)
        envelopes = {c.name: community_envelope(c) for c in fleet}
        for epsilon in (0, 1, 5):
            for probe in fleet:
                expected = sorted(
                    other.name
                    for other in fleet
                    if other.name != probe.name
                    and not envelopes_separated(
                        envelopes[probe.name], envelopes[other.name], epsilon
                    )
                )
                assert catalog.candidate_keys(probe.name, epsilon) == expected

    def test_screening_loads_no_vectors(self, catalog):
        fleet = banded_community_fleet(3, 3, seed=12)
        register_fleet(catalog, fleet)
        catalog.candidate_keys(fleet[0].name, 2)
        catalog.candidate_pairs(2)
        stats = catalog.io_stats()
        assert stats["repro_catalog_vector_loads_total"] == 0
        assert stats["repro_catalog_window_queries_total"] == 2

    def test_negative_epsilon_rejected(self, catalog):
        catalog.register("a", make_community("A", 13))
        with pytest.raises(ValidationError, match="epsilon"):
            catalog.candidate_keys("a", -1)
        with pytest.raises(ValidationError, match="epsilon"):
            catalog.candidate_pairs(-1)

    def test_window_query_uses_index(self, catalog):
        catalog.register("a", make_community("A", 14))
        assert "idx_communities_window" in catalog.window_query_plan()

    def test_dimension_mismatch_never_survives(self, catalog):
        catalog.register("d4", make_community("D4", 15, d=4))
        catalog.register("d6", make_community("D6", 15, d=6))
        assert catalog.candidate_keys("d4", 1000) == []
        assert catalog.candidate_pairs(1000) == []


class TestWindowQueryAtScale:
    """The acceptance-scale screen: thousands of on-disk communities."""

    N_BANDS = 200
    PER_BAND = 10  # 2000 communities

    @pytest.fixture(scope="class")
    def big_catalog(self, tmp_path_factory):
        fleet = banded_community_fleet(
            self.N_BANDS, self.PER_BAND, users=3, dims=4, seed=16, band_gap=100
        )
        path = tmp_path_factory.mktemp("scale") / "big.db"
        with PersistentCatalog(path) as cat:
            cat.register_many({c.name: c for c in fleet})
            yield cat, fleet

    def test_screen_is_exact_and_vector_free(self, big_catalog):
        catalog, fleet = big_catalog
        assert len(catalog) == self.N_BANDS * self.PER_BAND
        envelopes = {c.name: community_envelope(c) for c in fleet}
        probe = fleet[self.PER_BAND * 100]  # a mid-band community
        before = catalog.io_stats()
        survivors = catalog.candidate_keys(probe.name, 2)
        after = catalog.io_stats()
        expected = sorted(
            other.name
            for other in fleet
            if other.name != probe.name
            and not envelopes_separated(
                envelopes[probe.name], envelopes[other.name], 2
            )
        )
        assert survivors == expected
        assert 0 < len(survivors) < len(fleet) // 10
        # Pruned communities' vectors are never read, and the indexed
        # stage-1 scan touches O(survivors) rows, not the whole table.
        assert after["repro_catalog_vector_loads_total"] == 0
        assert (
            before["repro_catalog_vector_loads_total"]
            == after["repro_catalog_vector_loads_total"]
        )
        scanned = (
            after["repro_catalog_rows_scanned_total"]
            - before["repro_catalog_rows_scanned_total"]
        )
        assert scanned < len(fleet) // 10

    def test_cold_start_touches_only_requested_rows(self, big_catalog):
        catalog, fleet = big_catalog
        with PersistentCatalog(catalog.path) as cold:
            cold.candidate_keys(fleet[0].name, 1)
            stats = cold.io_stats()
            assert stats["repro_catalog_vector_loads_total"] == 0
            cold.get(fleet[0].name)
            assert cold.io_stats()["repro_catalog_vector_loads_total"] == 1


class TestCandidatePairs:
    def test_pairs_match_brute_force(self, catalog):
        fleet = banded_community_fleet(3, 4, seed=17)
        register_fleet(catalog, fleet)
        for epsilon in (0, 1, 4):
            assert (
                set(catalog.candidate_pairs(epsilon))
                == brute_force_surviving_pairs(fleet, epsilon)
            )

    def test_keys_subset(self, catalog):
        fleet = banded_community_fleet(2, 4, seed=18)
        register_fleet(catalog, fleet)
        subset = [c.name for c in fleet[:5]]
        expected = {
            pair
            for pair in brute_force_surviving_pairs(fleet, 2)
            if pair[0] in subset and pair[1] in subset
        }
        assert set(catalog.candidate_pairs(2, keys=subset)) == expected
        assert catalog.candidate_pairs(2, keys=[]) == []

    def test_pair_screened_agrees(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=19)
        register_fleet(catalog, fleet)
        surviving = brute_force_surviving_pairs(fleet, 1)
        for first, second in itertools.combinations(sorted(c.name for c in fleet), 2):
            assert catalog.pair_screened(first, second, 1) == (
                (first, second) not in surviving
            )


class TestContentFingerprint:
    def test_same_bytes_different_dtype_differ(self):
        # 4607182418800017408 is the int64 whose bit pattern equals the
        # IEEE-754 encoding of float64 1.0 — byte-identical buffers.
        as_int = np.array([[4607182418800017408]], dtype=np.int64)
        as_float = np.array([[1.0]], dtype=np.float64)
        assert as_int.tobytes() == as_float.tobytes()
        assert content_fingerprint(as_int) != content_fingerprint(as_float)

    def test_same_bytes_different_shape_differ(self):
        flat = np.arange(6, dtype=np.int64).reshape(1, 6)
        tall = np.arange(6, dtype=np.int64).reshape(6, 1)
        assert flat.tobytes() == tall.tobytes()
        assert content_fingerprint(flat) != content_fingerprint(tall)

    def test_stable_for_equal_content(self):
        one = make_community("X", 50)
        two = Community("Y", one.vectors.copy(), "Media")
        assert content_fingerprint(one.vectors) == content_fingerprint(two.vectors)


class TestCrashSafety:
    def test_uncommitted_writer_leaves_no_trace(self, tmp_path):
        path = tmp_path / "crash.db"
        fleet = {"a": make_community("A", 29), "b": make_community("B", 29)}
        with PersistentCatalog(path) as catalog:
            catalog.register_many(fleet)
            # A second writer begins deleting every vector and "crashes"
            # (its connection closes with the transaction open).  WAL
            # rolls the transaction back: nothing torn, nothing lost.
            raw = sqlite3.connect(str(path), isolation_level=None)
            raw.execute("BEGIN IMMEDIATE")
            raw.execute("DELETE FROM vectors")
            raw.close()
            with PersistentCatalog(path) as reopened:
                for handle in (catalog, reopened):
                    assert handle.keys() == ["a", "b"]
                    for key, community in fleet.items():
                        assert np.array_equal(
                            handle.get(key).vectors, community.vectors
                        )
            # The store still works end to end after the crash.
            catalog.register("c", make_community("C", 30))
            assert catalog.keys() == ["a", "b", "c"]


class TestOlderDatabase:
    """A database written while the catalog still kept a join cache
    opens, registers, removes and ranks; the leftover table is ignored,
    not dropped."""

    LEFTOVER_DDL = """
    CREATE TABLE similarity_cache (
        key_b         TEXT NOT NULL,
        key_a         TEXT NOT NULL,
        method        TEXT NOT NULL,
        epsilon       INTEGER NOT NULL,
        options       TEXT NOT NULL DEFAULT '()',
        fingerprint_b TEXT NOT NULL,
        fingerprint_a TEXT NOT NULL,
        similarity    REAL NOT NULL,
        n_matched     INTEGER NOT NULL,
        created_at    REAL NOT NULL,
        PRIMARY KEY (
            key_b, key_a, method, epsilon, options,
            fingerprint_b, fingerprint_a
        )
    );
    """

    def test_leftover_join_cache_is_ignored(self, tmp_path):
        path = tmp_path / "old.db"
        fleet = banded_community_fleet(2, 3, seed=48)
        first, second = sorted(c.name for c in fleet)[:2]
        with PersistentCatalog(path) as catalog:
            register_fleet(catalog, fleet)
        raw = sqlite3.connect(str(path))
        raw.executescript(self.LEFTOVER_DDL)
        raw.execute(
            "INSERT INTO similarity_cache VALUES "
            "(?, ?, 'ex-minmax', 1, '()', 'x', 'y', 0.5, 3, 0)",
            (first, second),
        )
        raw.commit()
        raw.close()

        extra = make_community("extra", 49, d=fleet[0].n_dims)
        with PersistentCatalog(path) as catalog:
            catalog.register("extra", extra)
            catalog.remove(first)
            kept = [c for c in fleet if c.name != first] + [extra]
            assert catalog.keys() == sorted(c.name for c in kept)
            expected = top_k_pairs(kept, epsilon=1, k=6)
            actual = top_k_pairs(catalog, epsilon=1, k=6)
            assert [(s.label, s.similarity) for s in actual] == [
                (s.label, s.similarity) for s in expected
            ]
        raw = sqlite3.connect(str(path))
        rows = raw.execute("SELECT key_b, key_a FROM similarity_cache").fetchall()
        raw.close()
        assert rows == [(first, second)]


class TestConcurrency:
    def test_threaded_writes_none_lost(self, tmp_path):
        path = tmp_path / "threads.db"
        fleet = banded_community_fleet(2, 6, seed=33)
        with PersistentCatalog(path) as catalog:
            errors: list[BaseException] = []

            def worker(communities: list[Community]) -> None:
                try:
                    for community in communities:
                        catalog.register(community.name, community)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(fleet[i::4],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert catalog.keys() == sorted(c.name for c in fleet)

    def test_two_processes_worth_of_handles_register(self, tmp_path):
        path = tmp_path / "multi.db"
        with PersistentCatalog(path) as one, PersistentCatalog(path) as two:
            one.register("from-one", make_community("X", 34))
            two.register("from-two", make_community("Y", 34))
            assert one.keys() == ["from-one", "from-two"]
            assert two.keys() == ["from-one", "from-two"]


class TestInterop:
    def test_import_reads_catalog_archives(self, tmp_path):
        fleet = banded_community_fleet(2, 2, seed=35)
        write_archives(tmp_path / "archives", fleet)
        with PersistentCatalog(tmp_path / "cat.db") as catalog:
            imported = catalog.import_directory(tmp_path / "archives")
            assert imported == sorted(c.name for c in fleet)
            assert catalog.io_stats()["repro_catalog_registrations_total"] == len(
                fleet
            )
            for community in fleet:
                loaded = catalog.get(community.name)
                assert loaded.name == community.name
                assert loaded.category == community.category
                assert np.array_equal(loaded.vectors, community.vectors)

    def test_import_empty_directory(self, tmp_path, catalog):
        (tmp_path / "empty").mkdir()
        assert catalog.import_directory(tmp_path / "empty") == []

    def test_import_missing_directory_rejected(self, tmp_path, catalog):
        with pytest.raises(ValidationError, match="no directory"):
            catalog.import_directory(tmp_path / "missing")
        assert not (tmp_path / "missing").exists()

    def test_import_file_that_is_no_archive_registers_nothing(self, tmp_path, catalog):
        root = tmp_path / "mixed"
        write_archives(root, banded_community_fleet(1, 2, seed=37))
        (root / "text.npz").write_text("not a zip")
        (root / "text.meta.json").write_text("{}")
        with pytest.raises(ValidationError, match=r"text\.npz is not an \.npz archive"):
            catalog.import_directory(root)
        assert len(catalog) == 0

    def test_import_foreign_archive_registers_nothing(self, tmp_path, catalog):
        fleet = banded_community_fleet(1, 2, seed=36)
        write_archives(tmp_path / "mixed", fleet)
        save_couple(tmp_path / "mixed" / "couple.npz", *fleet)
        with pytest.raises(ValidationError, match="couple.npz"):
            catalog.import_directory(tmp_path / "mixed")
        assert len(catalog) == 0


class TestTopKOverCatalog:
    @pytest.fixture
    def fleet(self) -> list[Community]:
        return banded_community_fleet(3, 4, seed=38)

    @pytest.fixture
    def loaded(self, catalog, fleet) -> PersistentCatalog:
        register_fleet(catalog, fleet)
        return catalog

    @pytest.mark.parametrize("epsilon,k", [(1, 3), (1, 8), (3, 40)])
    def test_matches_in_memory_ranking(self, loaded, fleet, epsilon, k):
        expected = top_k_pairs(fleet, epsilon=epsilon, k=k)
        actual = top_k_pairs(loaded, epsilon=epsilon, k=k)
        assert [s.label for s in actual] == [s.label for s in expected]
        assert [s.similarity for s in actual] == pytest.approx(
            [s.similarity for s in expected]
        )
        for ours, theirs in zip(actual, expected):
            assert ours.result.method == theirs.result.method
            assert ours.result.engine == theirs.result.engine

    def test_screen_off_matches(self, loaded, fleet):
        """The screened catalog ranking equals the reference, which joins
        every pair."""
        expected = top_k_pairs_reference(fleet, epsilon=1, k=5)
        actual = top_k_pairs(loaded, epsilon=1, k=5)
        assert [(s.label, s.similarity) for s in actual] == [
            (s.label, s.similarity) for s in expected
        ]

    def test_keys_subset(self, loaded, fleet):
        subset = sorted(c.name for c in fleet[:6])
        expected = top_k_pairs(
            [c for c in fleet if c.name in subset], epsilon=1, k=4
        )
        actual = top_k_pairs(loaded, epsilon=1, k=4, keys=subset)
        assert [s.label for s in actual] == [s.label for s in expected]

    def test_keys_require_catalog(self, fleet):
        with pytest.raises(ConfigurationError, match="keys"):
            top_k_pairs(fleet, epsilon=1, k=3, keys=["x"])

    def test_screened_out_vectors_not_loaded(self, catalog):
        """Communities pruned for every pair never load their vectors."""
        fleet = banded_community_fleet(4, 2, seed=39, band_gap=10_000)
        register_fleet(catalog, fleet)
        top_k_pairs(catalog, epsilon=1, k=4)
        loads = catalog.io_stats()["repro_catalog_vector_loads_total"]
        # Only intra-band pairs survive, so each band loads its two
        # members once; nothing else is read.
        assert loads == len(fleet)


class TestCatalogSweep:
    def test_matches_in_memory_sweep(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=40)
        register_fleet(catalog, fleet)
        epsilons = [0, 1, 2, 4]
        expected = epsilon_sweep(fleet[0], fleet[1], epsilons)
        actual = catalog_epsilon_sweep(
            catalog, fleet[0].name, fleet[1].name, epsilons
        )
        assert [p.similarity_percent for p in actual] == pytest.approx(
            [p.similarity_percent for p in expected]
        )
        assert [p.n_matched for p in actual] == [p.n_matched for p in expected]

    def test_separated_pair_synthesises_curve_without_io(self, catalog):
        fleet = banded_community_fleet(2, 1, seed=41, band_gap=10_000)
        register_fleet(catalog, fleet)
        points = catalog_epsilon_sweep(
            catalog, fleet[0].name, fleet[1].name, [0, 1, 2]
        )
        assert [p.similarity_percent for p in points] == [0.0, 0.0, 0.0]
        assert [p.n_matched for p in points] == [0, 0, 0]
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_validation(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=42)
        register_fleet(catalog, fleet)
        with pytest.raises(ConfigurationError):
            catalog_epsilon_sweep(catalog, fleet[0].name, fleet[1].name, [])
        with pytest.raises(ConfigurationError):
            catalog_epsilon_sweep(
                catalog, fleet[0].name, fleet[1].name, [2, 1]
            )


class TestCatalogBackedStore:
    def test_names_span_catalog_without_loading(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=43)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        assert store.names() == sorted(c.name for c in fleet)
        assert len(store) == len(fleet)
        assert store.loaded_names() == []
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_faults_in_lazily_on_first_touch(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=44)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        name = fleet[0].name
        snapshot = store.snapshot(name)
        assert snapshot.community.name == name
        assert np.array_equal(snapshot.community.vectors, fleet[0].vectors)
        assert store.loaded_names() == [name]
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 1

    def test_unknown_name(self, catalog):
        store = CatalogBackedStore(catalog)
        with pytest.raises(UnknownCommunityError):
            store.snapshot("ghost")

    def test_registered_overlay_wins(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=45)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        fresh = make_community("fresh", 46)
        store.register_community(fresh)
        assert "fresh" in store
        assert store.names() == sorted([c.name for c in fleet] + ["fresh"])


class TestCatalogCLI:
    def test_import_ls_query(self, tmp_path, capsys):
        from repro.cli import main

        archives = tmp_path / "archives"
        fleet = banded_community_fleet(2, 2, seed=47)
        write_archives(archives, fleet)
        db = tmp_path / "cli.db"

        assert main(["catalog", "import", str(db), str(archives)]) == 0
        assert "imported 4 communities" in capsys.readouterr().out

        assert main(["catalog", "ls", str(db)]) == 0
        out = capsys.readouterr().out
        for community in fleet:
            assert community.name in out
        assert "4 communities" in out

        probe = fleet[0].name
        assert main(["catalog", "query", str(db), probe, "--epsilon", "2"]) == 0
        out = capsys.readouterr().out
        assert "vector loads: 0" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["catalog", "ls", "{db}"],
            ["catalog", "query", "{db}", "probe"],
            ["shard", "partition", "{db}", "{out}"],
            ["serve", "--catalog", "{db}", "--port", "0"],
        ],
        ids=["catalog-ls", "catalog-query", "shard-partition", "serve"],
    )
    def test_missing_database_exits_2(self, tmp_path, capsys, monkeypatch, command):
        from repro.cli import main

        def serve_nothing(coroutine):
            coroutine.close()
            raise AssertionError("serve started on a missing database")

        # Without the check, `serve` would listen forever on the new file.
        monkeypatch.setattr("asyncio.run", serve_nothing)
        db = tmp_path / "typo.db"
        argv = [
            part.format(db=db, out=tmp_path / "shards") for part in command
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro-csj: no catalog database at {db}\n"
        assert sorted(tmp_path.iterdir()) == []


@pytest.mark.shard
class TestMixedDimensions:
    """A ranking needs one dimensionality: every source refuses a fleet
    that mixes them before it loads a vector or asks a shard."""

    @pytest.fixture
    def fleet(self) -> list[Community]:
        line = np.arange(0, 50, 10)
        return [
            Community("a", np.stack([line, line], axis=1)),
            Community("b", np.array([[0, 1], [10, 11], [20, 21], [30, 31], [90, 90]])),
            Community("c", np.stack([line, line, line], axis=1)),
            Community(
                "d",
                np.array(
                    [[1, 0, 0], [10, 11, 10], [20, 20, 21], [70, 70, 70], [90, 90, 90]]
                ),
            ),
        ]

    @pytest.fixture
    def loaded(self, catalog, fleet) -> PersistentCatalog:
        register_fleet(catalog, fleet)
        return catalog

    def test_list_source(self, fleet):
        with pytest.raises(DimensionMismatchError):
            top_k_pairs(fleet, epsilon=1, k=6)

    @pytest.mark.parametrize("screened", [True, False])
    def test_catalog_source(self, loaded, screened):
        if screened:
            with pytest.raises(DimensionMismatchError):
                top_k_pairs(loaded, epsilon=1, k=6)
            assert loaded.io_stats()["repro_catalog_vector_loads_total"] == 0
        else:
            # The reference joins every pair of the hydrated catalog unscreened.
            hydrated = [loaded.get(key) for key in loaded.keys()]
            with pytest.raises(DimensionMismatchError):
                top_k_pairs_reference(hydrated, epsilon=1, k=6)

    def test_catalog_sweep(self, loaded):
        with pytest.raises(DimensionMismatchError):
            catalog_epsilon_sweep(loaded, "a", "c", [0, 1])
        assert loaded.io_stats()["repro_catalog_vector_loads_total"] == 0

    @pytest.mark.parametrize("subset,similarity", [(["a", "b"], 0.8), (["c", "d"], 0.6)])
    def test_catalog_subset_of_one_dimensionality_ranks(
        self, loaded, fleet, subset, similarity
    ):
        scores = top_k_pairs(loaded, epsilon=1, k=6, keys=subset)
        expected = top_k_pairs([c for c in fleet if c.name in subset], epsilon=1, k=6)
        assert [(s.label, s.similarity) for s in scores] == [
            (s.label, s.similarity) for s in expected
        ]
        assert [s.similarity for s in scores] == [similarity]

    def test_shard_source(self, tmp_path, loaded):
        partition_catalog(loaded, tmp_path / "p", 2, epsilon=1)
        metrics = MetricsRegistry()
        with ShardFleet(tmp_path / "p") as shards:
            with shards.coordinator(metrics=metrics) as coordinator:
                with pytest.raises(DimensionMismatchError):
                    coordinator.top_k(epsilon=1, k=6)
        counters = metrics.snapshot()["counters"]
        assert counters.get("repro_shard_requests_total", 0) == 0

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_shard_join_and_sweep(self, tmp_path, loaded, n_shards):
        # One shard holds both communities; two shards split them.
        partition_catalog(loaded, tmp_path / "p", n_shards, epsilon=1)
        metrics = MetricsRegistry()
        with ShardFleet(tmp_path / "p") as shards:
            with shards.coordinator(metrics=metrics) as coordinator:
                with pytest.raises(DimensionMismatchError):
                    coordinator.join("a", "c", epsilon=1)
                with pytest.raises(DimensionMismatchError):
                    coordinator.sweep([("a", "c")], [0, 1])
                # Refused whole: the joinable couple before it runs no cell.
                with pytest.raises(DimensionMismatchError):
                    coordinator.sweep([("a", "b"), ("a", "c")], [0, 1])
        counters = metrics.snapshot()["counters"]
        assert counters.get("repro_shard_requests_total", 0) == 0
