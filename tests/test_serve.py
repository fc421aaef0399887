"""Tests of the repro.serve similarity service.

Determinism notes: overload and deadline tests never sleep-and-hope.
They inject a single-worker executor whose only worker is parked on a
``threading.Event`` (so executor backlog builds exactly as scripted)
and an advanceable fake clock shared by the server and its admission
controller (so deadlines expire exactly when the test says so).
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHMS
from repro.apps import top_k_pairs
from repro.cli import main as cli_main
from repro.engine import BatchEngine, PairJob
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionTicket,
    CommunityStore,
    DeadlineExceededError,
    OverloadedError,
    Rejection,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    UnknownCommunityError,
    decode_request,
    decode_response,
    encode_request,
)
from repro.serve.protocol import ProtocolError
from repro.testing import banded_community_fleet
from repro._version import __version__
from tests.conftest import HUGE_EPSILONS, small_counter_couple

pytestmark = pytest.mark.serve

EPSILON = 30

#: Timing-only CSJResult keys excluded from parity comparisons.
_TIMING_KEYS = ("elapsed_seconds", "stage_seconds")


class FakeClock:
    """Advanceable monotonic clock (seconds)."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _fleet():
    return banded_community_fleet(n_bands=2, per_band=2, users=16, dims=4, seed=11)


def _store_with_fleet() -> CommunityStore:
    store = CommunityStore()
    for community in _fleet():
        store.register_community(community)
    return store


def _wait_until(predicate, timeout: float = 10.0) -> None:
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within timeout")


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_roundtrip(self):
        line = encode_request(
            "join", {"first": "a"}, request_id=7, deadline_ms=250
        )
        request = decode_request(line)
        assert request.op == "join"
        assert request.args == {"first": "a"}
        assert request.id == 7
        assert request.deadline_ms == 250

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe not utf-8",
            b"{nope",
            b"[1, 2]",
            b'{"v": 99, "op": "health", "args": {}}',
            b'{"v": 1, "op": "frobnicate", "args": {}}',
            b'{"v": 1, "op": "join", "args": []}',
            b'{"v": 1, "op": "join", "args": {}, "deadline_ms": -5}',
            b'{"v": 1, "op": "join", "args": {}, "deadline_ms": true}',
            b'{"v": 1, "args": {}}',
        ],
    )
    def test_malformed_requests_raise(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_unknown_op_has_specific_code(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b'{"v": 1, "op": "frobnicate", "args": {}}')
        assert excinfo.value.code == "unknown_op"


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
class TestCommunityStore:
    def test_register_and_snapshot(self):
        store = CommunityStore()
        snapshot = store.register("alpha", [[1, 0], [0, 2]])
        assert snapshot.version == 0
        assert snapshot.community.n_users == 2
        assert "alpha" in store
        assert store.names() == ["alpha"]

    def test_duplicate_register_rejected_unless_replace(self):
        store = CommunityStore()
        store.register("alpha", [[1, 0]])
        with pytest.raises(Exception, match="already registered"):
            store.register("alpha", [[2, 2]])
        replaced = store.register("alpha", [[2, 2], [3, 3]], replace=True)
        assert replaced.community.n_users == 2

    def test_snapshot_cached_per_version(self):
        store = _store_with_fleet()
        name = store.names()[0]
        first = store.snapshot(name)
        again = store.snapshot(name)
        assert again.community is first.community  # frozen exactly once
        store.subscribe(name, [1] * first.community.n_dims)
        after = store.snapshot(name)
        assert after.version > first.version
        assert after.community is not first.community
        assert after.community.n_users == first.community.n_users + 1

    def test_mutations_bump_version(self):
        store = CommunityStore()
        store.register("alpha", [[1, 0], [0, 2]])
        v1 = store.subscribe("alpha", [3, 3])["version"]
        v2 = store.record_like("alpha", 0, 1)["version"]
        v3 = store.unsubscribe("alpha", 2)["version"]
        assert 0 < v1 < v2 < v3

    def test_unknown_community(self):
        store = _store_with_fleet()
        with pytest.raises(UnknownCommunityError, match="ghost"):
            store.snapshot("ghost")


# ----------------------------------------------------------------------
# admission (unit, fake clock)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_pending_bound_sheds_then_recovers(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_pending=2, queue_retry_after_ms=25.0), clock=clock
        )
        tickets = [controller.try_admit("join") for _ in range(2)]
        assert all(isinstance(t, AdmissionTicket) for t in tickets)
        rejected = controller.try_admit("join")
        assert isinstance(rejected, Rejection)
        assert rejected.reason == "queue_full"
        assert rejected.retry_after_ms == 25.0
        tickets[0].release()
        tickets[0].release()  # idempotent
        assert isinstance(controller.try_admit("join"), AdmissionTicket)
        assert controller.pending == 2
        assert controller.shed_total == 1

    def test_token_bucket_exact_retry_hint(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_pending=100, rate=10.0, burst=2), clock=clock
        )
        for _ in range(2):
            assert isinstance(controller.try_admit("join"), AdmissionTicket)
        rejected = controller.try_admit("join")
        assert isinstance(rejected, Rejection)
        assert rejected.reason == "rate_limited"
        # bucket is exactly empty: one token refills in 1/rate seconds
        assert rejected.retry_after_ms == pytest.approx(100.0)
        clock.advance(0.1)  # exactly one token
        assert isinstance(controller.try_admit("join"), AdmissionTicket)
        assert isinstance(controller.try_admit("join"), Rejection)

    def test_deadline_stamped_and_expires_with_clock(self):
        clock = FakeClock()
        controller = AdmissionController(AdmissionPolicy(), clock=clock)
        ticket = controller.try_admit("join", deadline_ms=500)
        assert isinstance(ticket, AdmissionTicket)
        assert not ticket.deadline.expired()
        assert ticket.deadline.remaining_ms() == pytest.approx(500.0)
        clock.advance(0.5)
        assert ticket.deadline.expired()
        assert ticket.deadline.remaining_ms() == 0.0

    def test_policy_default_deadline_applies(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(default_deadline_ms=100.0), clock=clock
        )
        ticket = controller.try_admit("join")
        assert isinstance(ticket, AdmissionTicket)
        clock.advance(0.2)
        assert ticket.deadline.expired()

    def test_no_deadline_never_expires(self):
        clock = FakeClock()
        controller = AdmissionController(AdmissionPolicy(), clock=clock)
        ticket = controller.try_admit("join")
        assert isinstance(ticket, AdmissionTicket)
        clock.advance(10_000)
        assert not ticket.deadline.expired()
        assert ticket.deadline.remaining_ms() is None


# ----------------------------------------------------------------------
# end-to-end service
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_epsilon_beyond_int64_matches_everyone(self):
        b, a = small_counter_couple()
        with ServerThread() as st:
            with ServeClient(*st.address) as client:
                client.register("B", b.vectors.tolist())
                client.register("A", a.vectors.tolist())
                for epsilon in HUGE_EPSILONS:
                    for method in ALGORITHMS:
                        result = client.join(
                            "B", "A", epsilon=epsilon, method=method
                        )["result"]
                        assert len(result["pairs"]) == b.n_users, (epsilon, method)
                        assert result["epsilon"] == epsilon

    def test_record_like_gets_fresh_encodings(self):
        # Each store version is a new frozen snapshot, so a mutation can
        # never be joined through the previous version's MinMax buffers.
        rows = [[1, 0, 2], [0, 3, 1], [2, 2, 0]]
        with ServerThread() as st:
            with ServeClient(*st.address) as client:
                client.register("alpha", rows)
                client.register("beta", rows)
                for method in ("ap-minmax", "ex-minmax"):
                    before = client.join("alpha", "beta", epsilon=1, method=method)
                    assert len(before["result"]["pairs"]) == 3
                client.record_like("alpha", 1, 0, 5)
                for method in ("ap-minmax", "ex-minmax"):
                    after = client.join("alpha", "beta", epsilon=1, method=method)
                    assert after["first"]["version"] == 1
                    assert len(after["result"]["pairs"]) == 2

    def test_register_join_mutate_join(self):
        with ServerThread() as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["version"] == __version__
                client.register("alpha", [[1, 0, 2], [0, 3, 1], [2, 2, 0]])
                client.register("beta", [[1, 1, 1], [0, 2, 2], [3, 0, 1]])
                first = client.join("alpha", "beta", epsilon=2)
                assert first["first"]["version"] == 0
                assert first["disposition"] == "computed"

                mutated = client.subscribe("alpha", [1, 1, 1])
                assert mutated["version"] == 1

                second = client.join("alpha", "beta", epsilon=2)
                # the next join sees the new snapshot version
                assert second["first"]["version"] == 1
                assert second["first"]["n_users"] == 4
                assert second["disposition"] == "computed"

                stats = client.stats()
                assert stats["communities"]["alpha"]["version"] == 1
                assert stats["requests_by_op"]["join"] == 2

    def test_join_parity_with_direct_engine(self):
        communities = _fleet()
        b, a = communities[0], communities[1]
        with BatchEngine([b, a]) as engine:
            direct = engine.run(
                [PairJob.build(0, 1, "ex-minmax", EPSILON)]
            )[0].result.to_dict()

        with ServerThread(store=_store_with_fleet()) as st:
            with ServeClient(*st.address) as client:
                served = client.join(b.name, a.name, epsilon=EPSILON)
        payload = served["result"]
        for key in _TIMING_KEYS:
            direct.pop(key, None)
            payload.pop(key, None)
        # byte-identical similarity and matching, same code path (the
        # JSON round trip only turns the matched-pair tuples into lists)
        import json

        assert payload == json.loads(json.dumps(direct))

    def test_concurrent_clients_all_answered(self):
        """A closed loop of 4 clients, one connection each: every join is
        answered ``ok`` with the direct engine's similarity."""
        communities = _fleet()
        index_pairs = [
            (i, j) for i in range(len(communities)) for j in range(i + 1, len(communities))
        ]
        with BatchEngine(communities) as engine:
            outcomes = engine.run(
                [PairJob.build(i, j, "ex-minmax", EPSILON) for i, j in index_pairs]
            )
        expected = {
            (communities[i].name, communities[j].name): outcome.result.similarity
            for (i, j), outcome in zip(index_pairs, outcomes)
        }
        pairs = list(expected)
        n_clients, per_client = 4, 15
        answered: list[tuple[tuple[str, str], float]] = []
        failures: list[str] = []

        def run_client(seed: int, address) -> None:
            rng = np.random.default_rng(seed)
            try:
                with ServeClient(*address) as client:
                    for _ in range(per_client):
                        pair = pairs[int(rng.integers(len(pairs)))]
                        response = client.join(*pair, epsilon=EPSILON)
                        answered.append((pair, response["result"]["similarity"]))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(repr(exc))

        with ServerThread(store=_store_with_fleet()) as st:
            threads = [
                threading.Thread(target=run_client, args=(seed, st.address))
                for seed in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            with ServeClient(*st.address) as client:
                stats = client.stats()
        assert not failures, failures
        assert len(answered) == n_clients * per_client
        assert all(similarity == expected[pair] for pair, similarity in answered)
        assert stats["requests_by_op"]["join"] == n_clients * per_client
        assert stats["requests_by_status"]["ok"] >= n_clients * per_client

    def test_repeat_join_served_from_cache(self):
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                first = client.join(names[0], names[1], epsilon=EPSILON)
                second = client.join(names[0], names[1], epsilon=EPSILON)
                assert first["disposition"] == "computed"
                assert second["disposition"] == "cached"
                assert second["result"]["similarity"] == first["result"]["similarity"]
                cache = client.stats()["cache"]
                assert cache["hits"] == 1

    def test_mutation_invalidates_cache_via_fingerprint(self):
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                client.join(names[0], names[1], epsilon=EPSILON)
                client.record_like(names[0], 0, 1, 5)
                after = client.join(names[0], names[1], epsilon=EPSILON)
                # changed contents -> changed fingerprint -> recompute
                assert after["disposition"] == "computed"
                assert after["first"]["version"] == 1

    def test_topk_parity_with_direct_ranking(self):
        communities = _fleet()
        direct = top_k_pairs(communities, epsilon=EPSILON, k=3)
        expected = [
            (s.name_b, s.name_a, s.similarity) for s in direct
        ]
        with ServerThread(store=_store_with_fleet()) as st:
            with ServeClient(*st.address) as client:
                served = client.topk(
                    epsilon=EPSILON, k=3, names=[c.name for c in communities]
                )
        ranking = [
            (row["name_b"], row["name_a"], row["similarity"])
            for row in served["ranking"]
        ]
        assert ranking == expected
        assert served["versions"] == {c.name: 0 for c in communities}

    def test_error_responses_over_the_wire(self):
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                assert client.send_raw(b"{nope")["error"]["code"] == "bad_request"
                assert (
                    client.send_raw('{"v":1,"op":"frobnicate","args":{}}')
                    ["error"]["code"]
                    == "unknown_op"
                )
                with pytest.raises(ServeError, match="not registered") as excinfo:
                    client.join(names[0], "ghost", epsilon=1)
                assert excinfo.value.code == "not_found"
                with pytest.raises(ServeError, match="epsilon") as excinfo:
                    client.request("join", {"first": names[0], "second": names[1]})
                assert excinfo.value.code == "invalid"
                with pytest.raises(ServeError, match="unknown method") as excinfo:
                    client.join(names[0], names[1], epsilon=1, method="bogus")
                assert excinfo.value.code == "invalid"
                # the connection survived every error above
                assert client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "op, options",
        [
            ("join", {"bogus": 1}),
            ("join_batch", {"bogus": 1}),
            ("topk", {"bogus": 1}),
            ("topk", {"k": 2}),
            ("topk", {"n_jobs": 2}),
            ("topk", {"checkpoint": "run.jsonl"}),
        ],
        ids=["join", "join_batch", "topk", "topk_k", "topk_n_jobs", "topk_checkpoint"],
    )
    def test_options_only_reach_the_methods(self, tmp_path, op, options):
        """Request options configure the join methods and nothing else:
        one no method accepts, or one the server sets itself, is the
        client's mistake and nothing runs."""
        if "checkpoint" in options:
            options = {"checkpoint": str(tmp_path / options["checkpoint"])}
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            args = {
                "join": {"first": names[0], "second": names[1]},
                "join_batch": {"pairs": [[names[0], names[1]]]},
                "topk": {"k": 3},
            }[op]
            with ServeClient(*st.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.request(
                        op, {**args, "epsilon": EPSILON, "options": options}
                    )
                assert excinfo.value.code == "invalid"
                assert client.health()["status"] == "ok"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "options",
        [{"max_value": 0}, {"max_value": -3}, {"max_value": 2.5}, {"n_jobs": 2}],
        ids=["max_value_zero", "max_value_negative", "max_value_float", "n_jobs"],
    )
    def test_superego_options_are_checked(self, options):
        """A SuperEGO option the method rejects is answered ``invalid``
        before any work runs, never ``internal`` from inside the join."""
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.join(
                        names[0],
                        names[1],
                        epsilon=EPSILON,
                        method="ex-superego",
                        options=options,
                    )
                assert excinfo.value.code == "invalid"
                assert client.health()["status"] == "ok"

    def test_zero_deadline_expires_before_execution(self):
        with ServerThread(store=_store_with_fleet()) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                with pytest.raises(DeadlineExceededError, match="before execution"):
                    client.join(names[0], names[1], epsilon=EPSILON, deadline_ms=0)
                assert client.stats()["deadline_exceeded_total"] == 1


# ----------------------------------------------------------------------
# overload + deadline (deterministic via gated executor / fake clock)
# ----------------------------------------------------------------------
def _raw_connection(address):
    sock = socket.create_connection(address, timeout=30)
    return sock, sock.makefile("rwb")


class TestOverloadAndDeadlines:
    def test_queue_full_sheds_with_retry_hint(self):
        gate = threading.Event()
        executor = ThreadPoolExecutor(max_workers=1)
        executor.submit(gate.wait)  # occupy the only worker
        config = ServeConfig(
            admission=AdmissionPolicy(max_pending=2, queue_retry_after_ms=40.0)
        )
        try:
            with ServerThread(
                config, store=_store_with_fleet(), executor=executor
            ) as st:
                server = st.server
                names = server.store.names()
                join_line = lambda rid: encode_request(
                    "join",
                    {"first": names[0], "second": names[1], "epsilon": EPSILON},
                    request_id=rid,
                )
                # park two joins: admitted, waiting on the blocked executor
                parked = [_raw_connection(st.address) for _ in range(2)]
                for rid, (sock, _file) in enumerate(parked, start=1):
                    sock.sendall(join_line(rid))
                _wait_until(lambda: server.admission.pending == 2)

                with ServeClient(*st.address) as client:
                    # every request of a burst beyond the bound is shed
                    burst = 4
                    for _ in range(burst):
                        with pytest.raises(OverloadedError) as excinfo:
                            client.join(names[0], names[1], epsilon=EPSILON)
                        assert excinfo.value.retry_after_ms == 40.0
                    # monitoring plane answers while shedding
                    stats = client.stats()
                    assert stats["shed_by_reason"] == {"queue_full": burst}
                    assert stats["admission"]["pending"] == 2
                    assert server.metrics.counter(
                        "repro_serve_shed_total", reason="queue_full"
                    ) == burst

                    gate.set()  # drain the backlog
                    for _sock, file in parked:
                        response = decode_response(file.readline())
                        assert response["ok"], response
                    _wait_until(lambda: server.admission.pending == 0)
                    # shedding was load, not damage: service recovers
                    after = client.join(names[0], names[1], epsilon=EPSILON)
                    assert after["disposition"] in ("computed", "cached")
                for sock, file in parked:
                    file.close()
                    sock.close()
        finally:
            gate.set()
            executor.shutdown(wait=False)

    def test_deadline_expires_during_execution(self):
        gate = threading.Event()
        executor = ThreadPoolExecutor(max_workers=1)
        executor.submit(gate.wait)
        clock = FakeClock()
        try:
            with ServerThread(
                store=_store_with_fleet(), executor=executor, clock=clock
            ) as st:
                server = st.server
                names = server.store.names()
                sock, file = _raw_connection(st.address)
                sock.sendall(
                    encode_request(
                        "join",
                        {"first": names[0], "second": names[1], "epsilon": EPSILON},
                        request_id=1,
                        deadline_ms=500,
                    )
                )
                _wait_until(lambda: server.admission.pending == 1)
                clock.advance(1.0)  # past the 500 ms budget
                gate.set()
                response = decode_response(file.readline())
                assert not response["ok"]
                assert response["error"]["code"] == "deadline_exceeded"
                assert "during execution" in response["error"]["message"]
                assert server.deadline_exceeded_total == 1
                file.close()
                sock.close()
        finally:
            gate.set()
            executor.shutdown(wait=False)

    def test_rate_limit_sheds_end_to_end(self):
        clock = FakeClock()
        config = ServeConfig(
            admission=AdmissionPolicy(max_pending=64, rate=10.0, burst=1)
        )
        with ServerThread(config, store=_store_with_fleet(), clock=clock) as st:
            names = st.server.store.names()
            with ServeClient(*st.address) as client:
                client.join(names[0], names[1], epsilon=EPSILON)  # drains bucket
                with pytest.raises(OverloadedError) as excinfo:
                    client.join(names[0], names[1], epsilon=EPSILON)
                assert excinfo.value.retry_after_ms == pytest.approx(100.0)
                clock.advance(0.1)  # refill exactly one token
                assert client.join(names[0], names[1], epsilon=EPSILON)[
                    "disposition"
                ] == "cached"
                assert client.stats()["shed_by_reason"] == {"rate_limited": 1}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
