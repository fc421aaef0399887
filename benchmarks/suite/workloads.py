"""The suite's workloads: inputs, set-up, timed operations, checks.

Each workload builds its inputs from the seed, sets up ``SETUP_REPEATS``
times (the median is ``setup_s``; the last set-up is the one measured),
runs one untimed warm-up, then repeats whole passes over its operations
for about the run's seconds, and finally checks every output it produced.

* ``couple`` — the 20 paper couples (``VKGenerator(seed)``, 1/128 scale,
  27 dims, epsilon 1), each joined by ex/ap-MinMax and ex/ap-SuperEGO:
  80 operations per pass.  All time is join kernel (``algorithms``).
* ``fleet_sparse.memory`` — 120 banded communities in bands of 2, 16
  users, epsilon 2: 60 of 7,140 pairs survive the envelope screen, so
  the in-memory top-k spends its time on pair enumeration, job
  building and the screen, not on joins.
* ``fleet_dense.shard`` — 20 banded communities in bands of 10, 60
  users, epsilon 1: 90 of 190 pairs survive and each needs a real join,
  so the joins dominate; the top-k of a cold 2-shard fleet adds
  per-shard candidate scans, RPC and result (de)serialisation.
* ``serve_mixed`` — a ``repro-csj serve --delta`` subprocess with 24
  communities, driven over 2 connections by a closed loop (a traced
  run adds an open loop at 150 req/s); the only workload with writes.

A fleet workload times one top-k source — the in-memory list, or a
cold 2-shard fleet started for each call (its start is not timed) — so
that a change confined to that source moves the workload's metrics
undiluted.  The other two sources (of memory, persistent catalog and
2-shard fleet) run once, untimed, after the window, as correctness
gates.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.apps.topk as topk
from repro.algorithms import get_algorithm
from repro.catalog import PersistentCatalog
from repro.datasets.couples import PAPER_COUPLES, build_couple
from repro.datasets.vk import VKGenerator
from repro.obs import MetricsRegistry
from repro.serve import ServeClient
from repro.shard import ShardFleet, partition_catalog
from repro.testing import (
    banded_community_fleet,
    brute_force_candidate_pairs,
    maximum_matching_size,
    validate_result,
)

import loadgen
from hostspeed import HostSpeed, SpeedSamples
from layers import layer_metrics
from tracing import (
    Instrumentation,
    Tracer,
    attribute,
    load_spans,
    percentile,
    write_spans,
)

SOURCES = ("memory", "catalog", "shard")
WORKLOADS = ("couple", "fleet_sparse.memory", "fleet_dense.shard", "serve_mixed")
SETUP_REPEATS = 7
#: Zero-padded, so that list order, key order and name order agree.
FLEET_NAMES = "b{band:04d}m{member:02d}"


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    inputs_digest: str
    spans_path: str | None = None
    #: Lines printed after the metrics, for the reader.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


@dataclass
class Window:
    """Latencies of the timed calls of one measured window, scaled to the
    nominal host speed, and the wall times they were scaled from."""

    seconds: list[float] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def calls(self) -> int:
        return len(self.seconds)

    @property
    def total_s(self) -> float:
        return sum(self.seconds)


def digest(*parts: object) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str(part.shape).encode())
            sha.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def ranking_key(scores) -> list[tuple[str, str, str]]:
    return [(score.name_b, score.name_a, repr(score.similarity)) for score in scores]


def run_window(op, *, pass_size: int, seconds: float = 0.0, calls: int | None = None) -> Window:
    """Call ``op(i) -> (seconds, ok)`` in whole passes of ``pass_size`` calls.

    Runs ``calls`` calls if given, else the whole number of passes that
    comes nearest to ``seconds`` (at least one), so that every operation
    of a pass is sampled equally often.
    """
    window = Window()
    speed = HostSpeed()
    started = time.perf_counter()
    index = 0
    while True:
        pass_started = time.perf_counter()
        for _ in range(pass_size):
            elapsed, ok = op(index)
            window.wall_seconds.append(elapsed)
            window.seconds.append(speed.scale(elapsed))
            window.failed += not ok
            index += 1
        now = time.perf_counter()
        if calls is not None:
            if index >= calls:
                return window
        elif now - started + (now - pass_started) / 2 >= seconds:
            return window


def timed_setups(setup) -> list[float]:
    """``SETUP_REPEATS`` set-ups, each timed and scaled to the nominal speed."""
    speed = HostSpeed()
    return [speed.scale(setup()) for _ in range(SETUP_REPEATS)]


def end_to_end(
    latencies_ms: list[float],
    ops_per_s: float,
    setup_times: list[float],
    rss_mb: float,
) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_window(op, tracer: Tracer, seconds: float, pass_size: int):
    """An untraced window, then the same operations again with spans.

    Returns the traced window and the tracing overhead in percent (the
    traced operations' total time against the untraced ones').
    """
    plain = run_window(lambda i: op(i, None), pass_size=pass_size, seconds=seconds / 2)
    instrumentation = Instrumentation(tracer).install()
    try:
        traced = run_window(lambda i: op(i, tracer), pass_size=pass_size, calls=plain.calls)
    finally:
        instrumentation.uninstall()
    overhead = 100.0 * (traced.total_s / plain.total_s - 1.0)
    return traced, overhead


def span_or_not(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# couple
# ----------------------------------------------------------------------
class CoupleWorkload:
    METHODS = ("ex-minmax", "ap-minmax", "ex-superego", "ap-superego")
    EPSILON = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.scale = 1 / 1024 if smoke else 1 / 128
        self.specs = PAPER_COUPLES[:4] if smoke else PAPER_COUPLES
        # One fixed order for every seed, so a partly finished pass
        # covers the same couples and methods whatever the inputs are.
        self.order = [
            (couple, method)
            for couple in range(len(self.specs))
            for method in self.METHODS
        ]
        random.Random(0).shuffle(self.order)
        #: Calls in one pass over every couple and method.
        self.pass_size = len(self.order)
        self.first_results: dict[tuple[int, str], object] = {}
        self.problems: list[str] = []

    def build(self):
        generator = VKGenerator(seed=self.seed)
        return [build_couple(spec, generator, scale=self.scale) for spec in self.specs]

    def setup(self) -> float:
        started = time.perf_counter()
        self.couples = self.build()
        self.algorithms = {
            method: get_algorithm(method, self.EPSILON) for method in self.METHODS
        }
        return time.perf_counter() - started

    def inputs_digest(self) -> str:
        return digest(
            self.scale,
            *(
                part
                for first, second in self.build()
                for part in (first.name, first.vectors, second.name, second.vectors)
            ),
        )

    def op(self, index: int, tracer: Tracer | None):
        couple, method = self.order[index % len(self.order)]
        first, second = self.couples[couple]
        algorithm = self.algorithms[method]
        # Stage timings are only collected with a registry attached.
        algorithm.metrics = MetricsRegistry() if tracer is not None else None
        with span_or_not(tracer, "bench.op"):
            started = time.perf_counter()
            result = algorithm.join(first, second)
            elapsed = time.perf_counter() - started
        algorithm.metrics = None
        reference = self.first_results.setdefault((couple, method), result)
        ok = reference.similarity == result.similarity
        if not ok:
            self.problems.append(f"couple {couple} {method}: similarity changed")
        return elapsed, ok

    def check(self) -> list[str]:
        problems = list(self.problems)
        for (couple, method), result in sorted(self.first_results.items()):
            first, second = self.couples[couple]
            oriented = (second, first) if result.swapped else (first, second)
            try:
                validate_result(result, *oriented)
            except Exception as exc:  # every violation is a failed gate
                problems.append(f"couple {couple} {method}: {exc}")
        # The exact oracle is slow, so it runs on two couples per seed.
        count = len(self.couples)
        for couple in sorted({self.seed % count, (self.seed + count // 2) % count}):
            first, second = self.couples[couple]
            result = self.first_results.get((couple, "ex-minmax"))
            if result is None:
                result = self.algorithms["ex-minmax"].join(first, second)
            truth = maximum_matching_size(
                brute_force_candidate_pairs(first.vectors, second.vectors, self.EPSILON)
            )
            if result.n_matched != truth:
                problems.append(
                    f"couple {couple}: ex-minmax matched {result.n_matched}, "
                    f"maximum matching is {truth}"
                )
        return problems

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
FLEETS = {
    "fleet_sparse": dict(
        n_bands=60, per_band=2, users=16, dims=6, band_gap=600, high=40, epsilon=2
    ),
    "fleet_dense": dict(
        n_bands=2, per_band=10, users=60, dims=8, band_gap=500, high=20, epsilon=1
    ),
}
SMOKE_FLEETS = {
    "fleet_sparse": dict(
        n_bands=8, per_band=3, users=8, dims=6, band_gap=600, high=40, epsilon=2
    ),
    "fleet_dense": dict(
        n_bands=2, per_band=4, users=30, dims=8, band_gap=500, high=20, epsilon=1
    ),
}
TOP_K = 10
SHARDS = 2


class FleetWorkload:
    #: A pass is one top-k call from the workload's source.
    pass_size = 1

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path) -> None:
        fleet, self.source = name.split(".")
        spec = dict((SMOKE_FLEETS if smoke else FLEETS)[fleet])
        self.epsilon = spec.pop("epsilon")
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.catalog: PersistentCatalog | None = None
        self.reference: list | None = None
        self.problems: list[str] = []
        self.setup_parts: dict[str, float] = {}

    def build(self):
        return banded_community_fleet(
            seed=self.seed, name_format=FLEET_NAMES, **self.spec
        )

    def inputs_digest(self) -> str:
        fleet = self.build()
        return digest(
            self.epsilon,
            *(part for community in fleet for part in (community.name, community.vectors)),
        )

    def setup(self) -> float:
        self.close()
        root = self.workdir / f"fleet{self.setups}"
        self.setups += 1
        root.mkdir(parents=True)
        started = time.perf_counter()
        self.fleet = self.build()
        catalog = PersistentCatalog(root / "union.db")
        registered = time.perf_counter()
        catalog.register_many({community.name: community for community in self.fleet})
        partitioned = time.perf_counter()
        partition_catalog(catalog, root / "shards", SHARDS, epsilon=self.epsilon)
        done = time.perf_counter()
        self.catalog = catalog
        self.plan_dir = root / "shards"
        self.setup_parts = {
            "catalog.register": partitioned - registered,
            "shard.partition": done - partitioned,
            "total": done - started,
        }
        return done - started

    def top_k(self, source: str, tracer: Tracer | None):
        """One top-k from ``source``: ``(seconds, ranking, degraded)``.

        The shard source starts a fresh 2-shard fleet for every call, so
        each call is cold; the start is not timed.
        """
        if source == "shard":
            with ShardFleet(self.plan_dir) as shards:
                coordinator = shards.coordinator()
                try:
                    with span_or_not(tracer, "bench.shard"):
                        started = time.perf_counter()
                        result = coordinator.top_k(epsilon=self.epsilon, k=TOP_K)
                        elapsed = time.perf_counter() - started
                finally:
                    coordinator.close()
            return elapsed, ranking_key(result.scores), result.degraded
        communities = self.fleet if source == "memory" else self.catalog
        registry = MetricsRegistry() if tracer is not None else None
        with span_or_not(tracer, f"bench.{source}"):
            started = time.perf_counter()
            scores = topk.top_k_pairs(
                communities, epsilon=self.epsilon, k=TOP_K, metrics=registry
            )
            elapsed = time.perf_counter() - started
        return elapsed, ranking_key(scores), False

    def op(self, index: int, tracer: Tracer | None):
        elapsed, ranking, degraded = self.top_k(self.source, tracer)
        if self.reference is None:
            self.reference = ranking
        ok = not degraded and ranking == self.reference and len(ranking) == TOP_K
        if not ok:
            state = "degraded" if degraded else "differs"
            self.problems.append(f"call {index}: {self.source} ranking {state}")
        return elapsed, ok

    def check(self) -> list[str]:
        """The timed source's ranking against the other two sources'."""
        if self.reference is None:
            return ["no call completed"]
        problems = list(self.problems)
        for source in SOURCES:
            if source == self.source:
                continue
            _, ranking, degraded = self.top_k(source, None)
            if degraded or ranking != self.reference:
                problems.append(f"{source} ranking differs from the {self.source} ranking")
        return problems

    def close(self) -> None:
        if self.catalog is not None:
            self.catalog.close()
            self.catalog = None


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
SERVE = dict(n_bands=6, per_band=4, users=120, dims=6, epsilon=2, rate=150.0)
SMOKE_SERVE = dict(n_bands=2, per_band=3, users=30, dims=6, epsilon=2, rate=50.0)
CONNECTIONS = 2
CHECKED_COUPLES = 8
#: A request sent this long after it was due counts as generator
#: lateness (the event loop's timers alone are about 1 ms coarse).
LATE_S = 0.005


class ServeWorkload:
    def __init__(self, seed: int, smoke: bool, root: Path, workdir: Path) -> None:
        spec = dict(SMOKE_SERVE if smoke else SERVE)
        self.epsilon = spec.pop("epsilon")
        self.rate = spec.pop("rate")
        self.spec = spec
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.server: loadgen.ServerProcess | None = None
        self.setups = 0

    def build(self):
        return banded_community_fleet(
            seed=self.seed, name_format=FLEET_NAMES, **self.spec
        )

    def inputs_digest(self) -> str:
        communities = self.build()
        load = loadgen.MixedLoad(communities, self.epsilon, self.seed)
        stream = [load.next() for _ in range(1000)]
        return digest(
            self.epsilon,
            self.rate,
            *(part for c in communities for part in (c.name, c.vectors)),
            *((request.op, sorted(request.args.items())) for request in stream),
        )

    def start(self, spans_path: Path | None = None) -> float:
        """Start a server and register the communities over the wire."""
        started = time.perf_counter()
        self.setups += 1
        server = loadgen.ServerProcess(
            self.root, self.workdir / f"server{self.setups}.log", spans_path=spans_path
        )
        try:
            address = server.start()
            communities = self.build()
            with ServeClient(*address) as client:
                for community in communities:
                    client.register(community.name, community.vectors)
        except BaseException:
            server.stop()
            raise
        self.close()
        self.server = server
        self.communities = communities
        return time.perf_counter() - started

    setup = start

    def drive(
        self, load, tracer, *, open_s: float, closed_s: float, tag: str
    ) -> tuple[loadgen.LoadResult | None, loadgen.LoadResult]:
        """Warm up, then an open loop (if ``open_s``) and a closed loop.

        Every request is scaled by the host speed sampled while the load
        ran.
        """
        speed = SpeedSamples()

        async def main():
            senders = await loadgen.connect(self.server.address, CONNECTIONS, None, tag)
            sampler = asyncio.ensure_future(loadgen.sample_speed(speed))
            try:
                await loadgen.closed_loop(senders, load, seconds=0.5)
                for sender in senders:
                    sender.tracer = tracer
                opened = None
                if open_s > 0:
                    opened = await loadgen.open_loop(
                        senders, load, rate=self.rate, seconds=open_s
                    )
                closed = await loadgen.closed_loop(senders, load, seconds=closed_s)
                return opened, closed
            finally:
                sampler.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sampler
                await loadgen.close(senders)

        opened, closed = loadgen.run_loop(main())
        speed.sample()
        for result in (opened, closed):
            if result is not None:
                result.rescale(speed)
        return opened, closed

    def check(self, load: loadgen.MixedLoad) -> tuple[list[str], dict]:
        problems: list[str] = []
        couples = random.Random(self.seed + 2).sample(
            load.couples, min(CHECKED_COUPLES, len(load.couples))
        )
        algorithm = get_algorithm("ex-minmax", self.epsilon)
        with ServeClient(*self.server.address) as client:
            for first, second in couples:
                served = client.join(first, second, epsilon=self.epsilon)["result"]
                local = algorithm.join(load.community(first), load.community(second))
                if (
                    served["similarity"] != local.similarity
                    or len(served["pairs"]) != local.n_matched
                ):
                    problems.append(
                        f"join {first}/{second}: served {served['similarity']!r}, "
                        f"local {local.similarity!r}"
                    )
            stats = client.stats()
        if stats["admission"]["shed_total"] or stats["deadline_exceeded_total"]:
            problems.append("the server shed requests or missed deadlines")
        return problems, stats

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def run_untraced(name: str, *, seed: int, seconds: float, smoke: bool, root: Path,
                 workdir: Path) -> Outcome:
    if name == "serve_mixed":
        workload = ServeWorkload(seed, smoke, root, workdir)
        try:
            setup_times = timed_setups(workload.setup)
            load = loadgen.MixedLoad(workload.communities, workload.epsilon, seed)
            _, closed = workload.drive(load, None, open_s=0, closed_s=seconds, tag="c")
            problems, _stats = workload.check(load)
            rss = max(loadgen.peak_rss_mb(), workload.server.peak_rss_mb())
        finally:
            workload.close()
        problems += closed.errors[:5]
        # Latency percentiles pool every request of the run, so a rare
        # stall counts.
        metrics = end_to_end(
            [record.scaled_s * 1e3 for record in closed.records],
            closed.scaled_rate,
            setup_times,
            rss,
        )
        wall_ms = [record.latency_s * 1e3 for record in closed.records]
        return Outcome(
            attempted=len(closed.records),
            failed=closed.failed,
            problems=problems,
            metrics=metrics,
            inputs_digest=workload.inputs_digest(),
            notes=[
                f"{len(closed.records)} requests; unscaled wall p50 "
                f"{percentile(wall_ms, 50):.4g} ms, p90 {percentile(wall_ms, 90):.4g} ms; "
                f"unscaled rate {len(closed.records) / closed.wall_s:.4g}/s; "
                f"mean host-speed factor "
                f"{statistics.mean(record.speed_factor for record in closed.records):.3f}",
            ],
        )

    workload = _batch_workload(name, seed, smoke, workdir)
    try:
        setup_times = timed_setups(workload.setup)
        workload.op(0, None)  # warm-up: lazy imports, memoised envelopes
        window = run_window(
            lambda i: workload.op(i, None), pass_size=workload.pass_size, seconds=seconds
        )
        problems = workload.check()
    finally:
        workload.close()
    metrics = end_to_end(
        [value * 1e3 for value in window.seconds],
        window.calls / window.total_s,
        setup_times,
        loadgen.peak_rss_mb(),
    )
    wall_ms = [value * 1e3 for value in window.wall_seconds]
    return Outcome(
        attempted=window.calls,
        failed=window.failed,
        problems=problems,
        metrics=metrics,
        inputs_digest=workload.inputs_digest(),
        notes=[
            f"{window.calls} calls; unscaled wall p50 {percentile(wall_ms, 50):.4g} ms, "
            f"p90 {percentile(wall_ms, 90):.4g} ms; mean host-speed factor "
            f"{window.total_s / sum(window.wall_seconds):.3f}",
        ],
    )


def _batch_workload(name: str, seed: int, smoke: bool, workdir: Path):
    if name == "couple":
        return CoupleWorkload(seed, smoke)
    return FleetWorkload(name, seed, smoke, workdir)


def run_traced(name: str, *, seed: int, seconds: float, smoke: bool, root: Path,
               workdir: Path, spans_path: Path) -> Outcome:
    tracer = Tracer()
    serve_stats = None
    late_share = 0.0
    if name == "serve_mixed":
        workload = ServeWorkload(seed, smoke, root, workdir)
        server_spans = workdir / "server-spans.jsonl"
        try:
            workload.setup()
            # Reference: the plain server's closed-loop rate.
            _, reference = workload.drive(
                loadgen.MixedLoad(workload.communities, workload.epsilon, seed),
                None, open_s=0, closed_s=seconds / 4, tag="r",
            )
            workload.start(spans_path=server_spans)
            load = loadgen.MixedLoad(workload.communities, workload.epsilon, seed)
            opened, closed = workload.drive(
                load, tracer, open_s=seconds / 2, closed_s=seconds / 4, tag="t"
            )
            problems, serve_stats = workload.check(load)
        finally:
            workload.close()
        problems += opened.errors[:5] + closed.errors[:5]
        spans = tracer.spans + _adopt(load_spans(server_spans), tracer.spans)
        overhead = 100.0 * (reference.scaled_rate / closed.scaled_rate - 1.0)
        late_share = sum(1 for late in opened.late if late > LATE_S) / len(opened.records)
        ops = len(opened.records) + len(closed.records)
        failed = opened.failed + closed.failed
        setup_parts = {}
    else:
        workload = _batch_workload(name, seed, smoke, workdir)
        try:
            workload.setup()
            workload.op(0, None)
            window, overhead = traced_window(
                workload.op, tracer, seconds, workload.pass_size
            )
            problems = workload.check()
        finally:
            workload.close()
        spans = tracer.spans
        ops = window.calls
        failed = window.failed
        setup_parts = getattr(workload, "setup_parts", {})
    write_spans(spans, spans_path)
    attribution = attribute(spans)
    if attribution.orphans:
        problems.append(f"{len(attribution.orphans)} spans have no parent")
    metrics = layer_metrics(
        attribution,
        ops=ops,
        overhead_pct=overhead,
        setup_seconds=setup_parts,
        serve_stats=serve_stats,
        late_share=late_share,
    )
    return Outcome(
        attempted=ops,
        failed=failed,
        problems=problems,
        metrics=metrics,
        inputs_digest=workload.inputs_digest(),
        spans_path=str(spans_path),
    )


def _adopt(server_spans: list, client_spans: list) -> list:
    """Attach the server's request spans to the client spans that sent them.

    Server spans of requests the traced load did not send (registration,
    warm-up, the final checks) are dropped.
    """
    senders = {
        span.trace: span.id for span in client_spans if span.name == "serve.client"
    }
    by_id = {span.id: span for span in server_spans}

    def request_of(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span

    kept = []
    for span in server_spans:
        root = request_of(span)
        if root.parent is None and root.trace in senders:
            kept.append(span)
    for span in kept:
        if span.parent is None:
            span.parent = senders[span.trace]
    return kept


def run(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
        root: Path, spans_path: Path) -> Outcome:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    workdir = root / ".bench_suite" / f"run-{name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if trace:
            return run_traced(
                name, seed=seed, seconds=seconds, smoke=smoke, root=root,
                workdir=workdir, spans_path=spans_path,
            )
        return run_untraced(
            name, seed=seed, seconds=seconds, smoke=smoke, root=root, workdir=workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
