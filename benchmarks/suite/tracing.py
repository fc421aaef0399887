"""Spans around the calls into each layer, recorded from the benchmark.

The suite does not edit the program: :class:`Instrumentation` swaps the
public entry points of each layer for thin wrappers that open a span,
call the original and close the span, and puts the originals back on
:meth:`~Instrumentation.uninstall`.  Spans are kept in memory and
written as JSON lines when the run ends; each carries a name, start and
end (``time.monotonic_ns``, one clock for every process on the host),
its parent span and a trace id.

A span's parent is, in order of preference: an explicit link (a shard
RPC for the server that answers it, a planned work item for the
executor thread that runs it), the span current in the calling context,
or — for threads other than the main one — the main thread's innermost
open span.  Spans recorded in another process (the traced serve
subprocess) are re-parented by trace id when they are merged.

:func:`attribute` turns a span forest into self times that sum to the
wall time the root spans cover: at every instant the open roots share
the instant equally, and each open span hands its share on, in equal
parts, to its open children.  A span with no open child keeps it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Span",
    "Tracer",
    "Instrumentation",
    "attribute",
    "load_spans",
    "write_spans",
]

#: The layers span names start with; ``bench`` spans are the workload's
#: own operations (their self time is the unattributed part).
LAYERS = (
    "bench",
    "apps.topk",
    "engine",
    "algorithms",
    "core",
    "catalog",
    "shard",
    "serve",
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (longest matching prefix)."""
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Span:
    """One timed call; ``attrs`` holds counts recorded at the boundary."""

    __slots__ = ("id", "name", "start", "end", "parent", "trace", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: int,
        parent: int | None,
        trace: object,
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.attrs: dict[str, object] = {}

    def to_json(self) -> dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Span":
        span = cls(
            int(payload["id"]),
            str(payload["name"]),
            int(payload["start"]),
            payload["parent"],
            payload.get("trace"),
        )
        span.end = int(payload["end"])
        span.attrs = dict(payload.get("attrs") or {})
        return span


class _OpenSpan:
    __slots__ = ("tracer", "name", "parent", "trace", "span", "token", "on_main")

    def __init__(self, tracer: "Tracer", name: str, parent, trace) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.trace = trace
        self.span: Span | None = None
        self.token = None
        self.on_main = False

    def __enter__(self) -> Span:
        tracer = self.tracer
        parent = self.parent
        if parent is None:
            parent = tracer.current.get()
        self.on_main = threading.get_ident() == tracer.main_ident
        if parent is None and tracer.ambient and not self.on_main:
            stack = tracer.main_stack
            parent = stack[-1] if stack else None
        trace = self.trace
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(
            next(tracer.ids),
            self.name,
            time.monotonic_ns(),
            parent.id if parent is not None else None,
            trace,
        )
        self.span = span
        self.token = tracer.current.set(span)
        if self.on_main and tracer.ambient:
            tracer.main_stack.append(span)
        return span

    def __exit__(self, *_exc: object) -> None:
        span = self.span
        span.end = time.monotonic_ns()
        tracer = self.tracer
        tracer.current.reset(self.token)
        if self.on_main and tracer.ambient:
            tracer.main_stack.pop()
        tracer.spans.append(span)


class Tracer:
    """Keeps finished spans in memory.

    ``ambient`` lets spans opened on worker threads without a parent in
    their context attach to the main thread's innermost open span.  It
    must be off in a process whose main thread runs an event loop,
    where that stack interleaves unrelated requests.
    """

    def __init__(self, *, ambient: bool = True) -> None:
        self.spans: list[Span] = []
        # Ids stay unique when spans of two processes are merged.
        self.ids = itertools.count((os.getpid() << 32) + 1)
        self.current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "bench_span", default=None
        )
        self.main_ident = threading.main_thread().ident
        self.ambient = ambient
        self.main_stack: list[Span] = []
        #: Explicit parent links (shard port -> open RPC span, planned
        #: work item -> the request span that planned it).
        self.links: dict[object, Span] = {}
        self.links_lock = threading.Lock()

    def span(self, name: str, *, parent: Span | None = None, trace: object = None):
        return _OpenSpan(self, name, parent, trace)


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_json(), separators=(",", ":")) + "\n")


def load_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_json(json.loads(line)) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class Instrumentation:
    """Install and remove span wrappers around each layer's entry points."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Wrap a function or method; ``record(span, result, args, kwargs)``."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if record is not None:
                    record(span, result, args, kwargs)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> "Instrumentation":
        self._install_core()
        self._install_engine()
        self._install_catalog()
        self._install_shard()
        self._install_serve()
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- algorithms + core ---------------------------------------------
    def _install_core(self) -> None:
        from repro.algorithms.base import CSJAlgorithm
        from repro.core.types import CSJResult

        def record_join(span, result, _args, _kwargs):
            span.attrs["method"] = result.method
            span.attrs["matched"] = result.n_matched
            span.attrs["examined"] = result.events.total
            if result.stage_seconds:
                span.attrs["stages"] = dict(result.stage_seconds)

        self._wrap(CSJAlgorithm, "join", "algorithms.join", record_join)
        self._wrap(CSJResult, "to_dict", "core.to_dict")
        tracer = self.tracer
        from_dict = CSJResult.__dict__["from_dict"].__func__

        def traced_from_dict(cls, payload):
            with tracer.span("core.from_dict"):
                return from_dict(cls, payload)

        self._patch(CSJResult, "from_dict", classmethod(traced_from_dict))

    # -- apps.topk + engine --------------------------------------------
    def _install_engine(self) -> None:
        import repro.apps
        import repro.apps.topk as topk
        import repro.engine.batch as batch
        from repro.catalog import PersistentCatalog

        tracer = self.tracer

        def record_topk(span, _result, args, kwargs):
            source = args[0] if args else kwargs["communities"]
            if isinstance(source, PersistentCatalog):
                keys = kwargs.get("keys")
                n = len(set(keys)) if keys is not None else len(source)
            else:
                n = len(source)
            span.attrs["pairs_enumerated"] = n * (n - 1) // 2

        self._wrap(topk, "top_k_pairs", "apps.topk.top_k_pairs", record_topk)
        self._patch(repro.apps, "top_k_pairs", topk.top_k_pairs)

        def record_run(span, outcomes, _args, _kwargs):
            counts: dict[str, int] = defaultdict(int)
            for outcome in outcomes:
                counts[outcome.disposition.value] += 1
            span.attrs["jobs"] = len(outcomes)
            span.attrs.update(counts)

        self._wrap(batch.BatchEngine, "run", "engine.run", record_run)

        stage_timer = batch.__dict__["stage_timer"]

        class _Both:
            __slots__ = ("first", "second")

            def __init__(self, first, second) -> None:
                self.first = first
                self.second = second

            def __enter__(self):
                self.first.__enter__()
                return self.second.__enter__()

            def __exit__(self, *exc):
                self.second.__exit__(*exc)
                self.first.__exit__(*exc)

        def traced_stage_timer(metrics, name):
            # "batch.plan" / "batch.execute" -> engine.plan / engine.execute
            span = tracer.span("engine." + name.rsplit(".", 1)[-1])
            return _Both(span, stage_timer(metrics, name))

        self._patch(batch, "stage_timer", traced_stage_timer)

    # -- catalog -------------------------------------------------------
    def _install_catalog(self) -> None:
        from repro.catalog import PersistentCatalog

        tracer = self.tracer

        def window(attr: str, count_survivors) -> None:
            original = PersistentCatalog.__dict__[attr]

            @functools.wraps(original)
            def wrapper(self_, *args, **kwargs):
                with tracer.span("catalog.window") as span:
                    before = self_.io_stats()["repro_catalog_rows_scanned_total"]
                    result = original(self_, *args, **kwargs)
                    after = self_.io_stats()["repro_catalog_rows_scanned_total"]
                    span.attrs["rows_scanned"] = after - before
                    span.attrs["survivors"] = count_survivors(result)
                return result

            self._patch(PersistentCatalog, attr, wrapper)

        window("candidate_pairs", len)
        window("window_candidates", len)
        self._wrap(PersistentCatalog, "metadata", "catalog.metadata")
        self._wrap(PersistentCatalog, "get", "catalog.get")

    # -- shard ---------------------------------------------------------
    def _install_shard(self) -> None:
        from repro.serve.client import ReconnectingClient
        from repro.shard.coordinator import ShardCoordinator

        tracer = self.tracer

        def record_topk(span, result, _args, _kwargs):
            span.attrs["candidate_pairs"] = result.stats.get("candidate_pairs", 0)
            span.attrs["executed_pairs"] = result.stats.get("executed_pairs", 0)

        self._wrap(ShardCoordinator, "top_k", "shard.top_k", record_topk)

        request = ReconnectingClient.__dict__["request"]

        @functools.wraps(request)
        def traced_request(self_, op, args=None, **kwargs):
            port = getattr(self_, "_port", None)
            with tracer.span("shard.rpc") as span:
                span.attrs["op"] = op
                with tracer.links_lock:
                    tracer.links[("port", port)] = span
                try:
                    return request(self_, op, args, **kwargs)
                finally:
                    with tracer.links_lock:
                        tracer.links.pop(("port", port), None)

        self._patch(ReconnectingClient, "request", traced_request)

        import repro.serve.client as client_module

        encode = client_module.__dict__["encode_request"]
        decode = client_module.__dict__["decode_response"]

        def add_bytes(key: str, size: int) -> None:
            span = tracer.current.get()
            if span is not None and span.name == "shard.rpc":
                span.attrs[key] = span.attrs.get(key, 0) + size

        @functools.wraps(encode)
        def traced_encode(*args, **kwargs):
            line = encode(*args, **kwargs)
            add_bytes("request_bytes", len(line))
            return line

        @functools.wraps(decode)
        def traced_decode(line, *args, **kwargs):
            add_bytes("response_bytes", len(line))
            return decode(line, *args, **kwargs)

        self._patch(client_module, "encode_request", traced_encode)
        self._patch(client_module, "decode_response", traced_decode)

    # -- serve ---------------------------------------------------------
    def _install_serve(self) -> None:
        import repro.serve.server as server
        from repro.serve.store import CommunityStore

        tracer = self.tracer

        handle_line = server.CSJServer.__dict__["handle_line"]

        @functools.wraps(handle_line)
        async def traced_handle_line(self_, line):
            parent = None
            if self_._address is not None:
                with tracer.links_lock:
                    parent = tracer.links.get(("port", self_._address[1]))
            with tracer.span("serve.handle_line", parent=parent):
                return await handle_line(self_, line)

        self._patch(server.CSJServer, "handle_line", traced_handle_line)

        decode = server.__dict__["decode_request"]

        @functools.wraps(decode)
        def traced_decode(line):
            request = decode(line)
            span = tracer.current.get()
            if span is not None and span.name == "serve.handle_line":
                span.attrs["op"] = request.op
                if span.trace is None:
                    span.trace = request.id
            return request

        self._patch(server, "decode_request", traced_decode)

        def plan(attr: str, op: str) -> None:
            original = server.__dict__[attr]

            @functools.wraps(original)
            def wrapper(server_, args):
                with tracer.span(f"serve.loop.{op}"):
                    work = original(server_, args)
                # The executor thread that runs ``work`` has no context
                # of its own; it finds its parent through this link.
                with tracer.links_lock:
                    tracer.links[("work", id(work))] = tracer.current.get()
                return work

            self._patch(server, attr, wrapper)

        def execute(attr: str, op: str) -> None:
            original = server.__dict__[attr]

            @functools.wraps(original)
            def wrapper(work):
                with tracer.links_lock:
                    parent = tracer.links.pop(("work", id(work)), None)
                with tracer.span(f"serve.execute.{op}", parent=parent):
                    return original(work)

            self._patch(server, attr, wrapper)

        for op in ("join", "update", "topk", "candidates", "join_batch"):
            plan(f"plan_{op}", op)
            execute(f"execute_{op}_work", op)
        self._wrap(server, "handle_mutate", "serve.loop.mutate")
        self._wrap(CommunityStore, "snapshot", "serve.snapshot")


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
@dataclass
class Attribution:
    """Self and inclusive times of every span, in nanoseconds of wall."""

    spans: list[Span]
    self_ns: dict[int, float]
    inclusive_ns: dict[int, float]
    wall_ns: float
    orphans: list[Span]

    def layer_self_ns(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            if span.id in self.self_ns:
                totals[layer_of(span.name)] += self.self_ns[span.id]
        return totals


def attribute(spans: list[Span]) -> Attribution:
    """Share the wall time covered by root spans out as self times.

    Roots are the ``bench.*`` spans without a parent.  A
    non-root span whose parent is unknown is an orphan: it is left out
    and reported, since its time cannot be placed.
    """
    by_id = {span.id: span for span in spans}
    roots: list[Span] = []
    orphans: list[Span] = []
    kept: list[Span] = []
    for span in spans:
        if span.parent is None or span.parent not in by_id:
            if span.parent is None and span.name.startswith("bench."):
                roots.append(span)
                kept.append(span)
            else:
                orphans.append(span)
            continue
        kept.append(span)
    # Descendants of orphans are unreachable as well.
    reachable: set[int] = set()
    children: dict[int, list[Span]] = defaultdict(list)
    for span in kept:
        if span.parent is not None:
            children[span.parent].append(span)
    frontier = [root.id for root in roots]
    while frontier:
        span_id = frontier.pop()
        reachable.add(span_id)
        frontier.extend(child.id for child in children.get(span_id, ()))
    kept = [span for span in kept if span.id in reachable]

    events: list[tuple[int, int, Span]] = []
    for span in kept:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))  # ends sort before starts
    events.sort(key=lambda event: (event[0], event[1]))

    self_ns: dict[int, float] = defaultdict(float)
    open_children: dict[int, set[int]] = defaultdict(set)
    open_ids: set[int] = set()
    open_roots: set[int] = set()
    wall = 0.0

    def give(span_id: int, amount: float) -> None:
        kids = open_children.get(span_id)
        if not kids:
            self_ns[span_id] += amount
            return
        part = amount / len(kids)
        for kid in kids:
            give(kid, part)

    previous = events[0][0] if events else 0
    for when, kind, span in events:
        if when > previous and open_roots:
            dt = float(when - previous)
            wall += dt
            part = dt / len(open_roots)
            for root_id in open_roots:
                give(root_id, part)
        previous = when
        if kind == 1:
            open_ids.add(span.id)
            if span.parent is None:
                open_roots.add(span.id)
            elif span.parent in open_ids:
                open_children[span.parent].add(span.id)
        else:
            open_ids.discard(span.id)
            open_roots.discard(span.id)
            if span.parent is not None:
                open_children[span.parent].discard(span.id)
            # Children outliving their parent have nobody to hand time
            # to them; they drop out of the tree.
            open_children.pop(span.id, None)

    # Inclusive time: self plus every descendant's self (post-order).
    inclusive: dict[int, float] = {}
    order: list[Span] = []
    pending = list(roots)
    while pending:
        span = pending.pop()
        order.append(span)
        pending.extend(children.get(span.id, ()))
    for span in reversed(order):
        inclusive[span.id] = self_ns.get(span.id, 0.0) + sum(
            inclusive.get(child.id, 0.0) for child in children.get(span.id, ())
        )
    return Attribution(kept, dict(self_ns), inclusive, wall, orphans)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
