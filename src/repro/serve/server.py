"""The asyncio CSJ similarity server.

One event-loop thread owns every piece of shared mutable state — the
:class:`~repro.serve.store.CommunityStore` registry, the
:class:`~repro.serve.admission.AdmissionController`, and the server's
:class:`~repro.obs.MetricsRegistry` — while heavy join work runs on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` via
``run_in_executor``.  The only objects that cross the thread boundary
are immutable community snapshots going out and result payloads (plus
scratch metric snapshots) coming back, so no lock guards the loop-side
state; the shared :class:`~repro.engine.JoinResultCache` takes its own
internal lock.

Request lifecycle::

    line -> decode -> [health/stats: answer inline]
                   -> admission (shed with retry_after on overload)
                   -> deadline check -> plan (validate + freeze snapshots)
                   -> run_in_executor(BatchEngine) -> deadline check
                   -> respond

``health`` and ``stats`` bypass admission on purpose: an overloaded
server must still answer its monitoring plane, and a shed client needs
``stats`` to observe the shedding it just experienced.

Connections are handled concurrently; requests on one connection are
processed in order (responses are never interleaved within a
connection — pipeline across connections for parallelism).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from .._version import __version__
from ..catalog import init_catalog_metrics
from ..core.errors import ReproError
from ..engine import JoinResultCache
from ..obs import MetricsRegistry

# Submodule-direct import on purpose: repro.shard's package init pulls
# in the coordinator, which imports repro.serve.client — going through
# the repro.shard package here would close that cycle.  metrics.py is
# dependency-light, so the direct import is always safe.
from ..shard.metrics import init_shard_metrics
from .admission import AdmissionController, AdmissionPolicy, Rejection
from .handlers import (
    execute_candidates_work,
    execute_join_batch_work,
    execute_join_work,
    execute_topk_work,
    execute_update_work,
    handle_mutate,
    handle_register,
    plan_candidates,
    plan_join,
    plan_join_batch,
    plan_topk,
    plan_update,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_request,
    encode_response,
    error_response,
    ok_response,
)
from .store import (
    CommunityStore,
    DeltaJoinPool,
    UnknownCommunityError,
    init_delta_metrics,
)

__all__ = ["ServeConfig", "CSJServer", "ServerThread"]


@dataclass
class ServeConfig:
    """Knobs of one similarity-server instance.

    ``port=0`` binds an ephemeral port (the default for tests and
    benches); :meth:`CSJServer.start` returns the bound address.
    ``executor_threads`` bounds concurrent joins; together with
    ``admission.max_pending`` it caps the executor backlog.
    ``cache_entries`` sizes the shared join-result cache (0 disables
    it).
    """

    host: str = "127.0.0.1"
    port: int = 0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    executor_threads: int = 4
    cache_entries: int = 1024
    enforce_size_ratio: bool = True
    #: Maintain per-couple delta joins for the ``update`` endpoint; off
    #: by default (updates then fall back to full recompute per call).
    delta_maintenance: bool = False
    #: LRU bound on concurrently maintained couples.
    delta_couples: int = 64


class CSJServer:
    """JSON-over-TCP similarity service over a community store.

    Parameters
    ----------
    config:
        Server knobs; defaults throughout.
    store:
        Optional pre-populated :class:`CommunityStore` (the CLI preload
        path); a fresh empty store otherwise.
    metrics:
        Registry for the ``repro_serve_*`` metric family; created
        internally when omitted so ``stats`` always has data.
    clock:
        Monotonic time source for admission, deadlines and latency
        accounting; injected by the tests for determinism.
    executor:
        Optional pre-built executor (the overload tests inject one with
        an occupied worker); the server otherwise builds and owns a
        ``ThreadPoolExecutor(config.executor_threads)``.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        store: CommunityStore | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        executor: ThreadPoolExecutor | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.store = store if store is not None else CommunityStore()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Zero-initialise the subsystem families so stats/scrapes expose
        # them before the first update / catalog / shard request.
        init_delta_metrics(self.metrics)
        init_catalog_metrics(self.metrics)
        init_shard_metrics(self.metrics)
        self.delta_pool: DeltaJoinPool | None = None
        if self.config.delta_maintenance:
            self.delta_pool = DeltaJoinPool(
                self.store, max_couples=self.config.delta_couples
            )
        self.clock = clock
        self.admission = AdmissionController(
            self.config.admission, clock=clock, metrics=self.metrics
        )
        self.cache: JoinResultCache | None = None
        if self.config.cache_entries > 0:
            self.cache = JoinResultCache(max_entries=self.config.cache_entries)
            # Cache counters go to the server registry; the cache's
            # internal lock serialises those updates across executor
            # threads (see satellite note in engine/cache.py).
            self.cache.metrics = self.metrics
        self._executor = executor
        self._owns_executor = executor is None
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        self._started_at: float | None = None
        self.deadline_exceeded_total = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.executor_threads,
                thread_name_prefix="repro-serve",
            )
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        self._started_at = self.clock()
        return self._address

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI foreground path)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, then release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- connection handling -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("repro_serve_connections_total")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: answer once, then drop the
                    # connection (framing is lost beyond the limit).
                    writer.write(
                        encode_response(
                            error_response(
                                None,
                                "bad_request",
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client closed its side
                if not line.strip():
                    continue  # keep-alive blank line
                response = await self.handle_line(line)
                writer.write(encode_response(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # already torn down on the client side
            except asyncio.CancelledError:
                # Loop shutdown cancelled us mid-teardown; the transport
                # is already closed and the task ends right here, so
                # re-raising would only produce shutdown noise.
                pass

    # -- dispatch ------------------------------------------------------
    async def handle_line(self, line: bytes) -> dict:
        """Decode, dispatch and answer one request line.

        Never raises: every failure mode maps to an error response.
        Public because the protocol tests (and the load generator's
        in-process mode) drive it directly.
        """
        started = self.clock()
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self._observe("unknown", exc.code, started)
            return error_response(exc.request_id, exc.code, str(exc))
        try:
            response = await self._dispatch(request)
        except ProtocolError as exc:
            response = error_response(request.id, exc.code, str(exc))
        except UnknownCommunityError as exc:
            response = error_response(request.id, "not_found", str(exc))
        except ReproError as exc:
            response = error_response(request.id, "invalid", str(exc))
        except Exception as exc:
            # The connection must survive handler bugs: translate to an
            # internal-error response instead of crashing the loop.
            response = error_response(
                request.id, "internal", f"{type(exc).__name__}: {exc}"
            )
        status = "ok" if response.get("ok") else response["error"]["code"]
        self._observe(request.op, status, started)
        return response

    def _observe(self, op: str, status: str, started: float) -> None:
        self.metrics.inc("repro_serve_requests_total", op=op, status=status)
        self.metrics.observe(
            "repro_serve_request_seconds", self.clock() - started, op=op
        )

    async def _dispatch(self, request: Request) -> dict:
        op = request.op
        if op == "health":
            return ok_response(request.id, self._health_result())
        if op == "stats":
            return ok_response(request.id, self._stats_result())
        admitted = self.admission.try_admit(op, deadline_ms=request.deadline_ms)
        if isinstance(admitted, Rejection):
            return error_response(
                request.id,
                "overloaded",
                admitted.message,
                retry_after_ms=admitted.retry_after_ms,
            )
        ticket = admitted
        try:
            if ticket.deadline.expired():
                return self._deadline_exceeded(request, "before execution")
            if op == "register":
                return ok_response(
                    request.id, handle_register(self.store, request.args)
                )
            if op == "mutate":
                return ok_response(
                    request.id, handle_mutate(self.store, request.args)
                )
            # Heavy ops: plan on the loop, execute on the thread pool.
            if op == "join":
                result, snapshot = await self._run_in_executor(
                    execute_join_work, plan_join(self, request.args)
                )
            elif op == "update":
                # plan_update applies the mutation inline (loop thread,
                # store locks); only the read-side sync runs off-loop.
                result, snapshot = await self._run_in_executor(
                    execute_update_work, plan_update(self, request.args)
                )
            elif op == "candidates":
                result, snapshot = await self._run_in_executor(
                    execute_candidates_work, plan_candidates(self, request.args)
                )
            elif op == "join_batch":
                result, snapshot = await self._run_in_executor(
                    execute_join_batch_work, plan_join_batch(self, request.args)
                )
            else:  # topk — decode_request guarantees op is in OPS
                result, snapshot = await self._run_in_executor(
                    execute_topk_work, plan_topk(self, request.args)
                )
            if snapshot is not None:
                self.metrics.merge(snapshot)
            if ticket.deadline.expired():
                return self._deadline_exceeded(
                    request, "during execution (result discarded)"
                )
            return ok_response(request.id, result)
        finally:
            ticket.release()

    async def _run_in_executor(self, runner, work):
        assert self._executor is not None, "server used before start()"
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, runner, work)

    def _deadline_exceeded(self, request: Request, phase: str) -> dict:
        self.deadline_exceeded_total += 1
        self.metrics.inc("repro_serve_deadline_exceeded_total", op=request.op)
        budget = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.admission.default_deadline_ms
        )
        return error_response(
            request.id,
            "deadline_exceeded",
            f"deadline of {budget:g} ms expired {phase}",
        )

    # -- monitoring plane ----------------------------------------------
    def _health_result(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "communities": len(self.store),
        }

    def _stats_result(self) -> dict:
        uptime = (
            self.clock() - self._started_at if self._started_at is not None else 0.0
        )
        result: dict[str, object] = {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(uptime, 6),
            "communities": self.store.describe(),
            "admission": self.admission.stats(),
            "deadline_exceeded_total": self.deadline_exceeded_total,
            "requests_by_op": self.metrics.counters_by_label(
                "repro_serve_requests_total", "op"
            ),
            "requests_by_status": self.metrics.counters_by_label(
                "repro_serve_requests_total", "status"
            ),
            "shed_by_reason": self.metrics.counters_by_label(
                "repro_serve_shed_total", "reason"
            ),
            "delta": {
                "enabled": self.delta_pool is not None,
                "updates": self.metrics.counter("repro_delta_updates_total"),
                "skips": self.metrics.counter("repro_delta_skips_total"),
                "rebuilds": self.metrics.counter(
                    "repro_delta_rebuilds_total"
                ),
                "fallbacks": self.metrics.counter(
                    "repro_delta_fallbacks_total"
                ),
                **(
                    self.delta_pool.stats()
                    if self.delta_pool is not None
                    else {}
                ),
            },
            "shard": {
                # Zero on a standalone shard server; live when a
                # coordinator shares this registry (the self-hosted
                # fleet path), where they count its fan-out traffic.
                "requests": self.metrics.counter("repro_shard_requests_total"),
                "failures": self.metrics.counter("repro_shard_failures_total"),
                "degraded": self.metrics.counter("repro_shard_degraded_total"),
            },
        }
        if self.cache is not None:
            result["cache"] = self.cache.stats()
        return result


class ServerThread:
    """A :class:`CSJServer` on a dedicated event-loop thread.

    The embedding used by the tests, the load benchmark and examples:
    the caller's thread stays synchronous, the server runs on its own
    ``asyncio`` loop, and ``stop()``/context-manager exit shut it down
    cleanly.  Constructor arguments are forwarded to :class:`CSJServer`.
    """

    def __init__(self, config: ServeConfig | None = None, **kwargs: object) -> None:
        self.server = CSJServer(config, **kwargs)  # type: ignore[arg-type]
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: Exception | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start within 30 s")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.address = await self.server.start()
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
