"""Traffic for ``serve_mixed``: a server subprocess and a seeded request mix.

:class:`ServerProcess` runs ``repro-csj serve`` (``python -m repro.cli
serve``) — or, for a traced run, the same command through
``serve_launcher.py`` — and reads the bound address from its first line.

:class:`MixedLoad` draws requests from one seeded stream: 75% ``join``
reads over Zipf(1.1)-popular couples, 12.5% ``mutate record_like`` and
12.5% ``update`` carrying a ``record_like`` mutation.  It applies every
mutation it issues to local copies of the communities, so the served
similarities can be checked against a local join when the load ends.
Counter increments commute, so the order in which two connections'
mutations reach the server does not change the final state.

:func:`open_loop` sends on a fixed schedule and times each request
from when it was due; :func:`closed_loop` sends each connection's next
request when its previous one returns.  While they run,
:func:`sample_speed` probes the host speed (:mod:`hostspeed`) ten times
a second on the CPU the server shares, and :meth:`LoadResult.rescale`
scales each request by the probe interpolated at its completion.
:func:`run_loop` drives them on an event loop whose timers are exact to the
microsecond: the default epoll loop rounds every sleep up to the next
millisecond, which would add about half a millisecond of the
generator's own lateness to every open-loop request.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.types import Community
from repro.serve import AsyncServeClient, encode_request

from hostspeed import SpeedSamples

ZIPF_EXPONENT = 1.1
#: Request mix: reads, ``mutate`` writes, and ``update`` writes for the rest.
READ_SHARE = 0.75
MUTATE_SHARE = 0.125
#: Seconds between two host-speed probes while load runs.
SAMPLE_PERIOD_S = 0.1


class ServerProcess:
    """One similarity-server subprocess, stopped and reaped by :meth:`stop`."""

    def __init__(self, root: Path, log_path: Path, *, spans_path: Path | None = None):
        self.root = root
        self.log_path = log_path
        self.spans_path = spans_path
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        serve_args = ["serve", "--port", "0", "--delta"]
        if self.spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            command = [
                sys.executable, "-u", str(launcher),
                "--spans", str(self.spans_path), "--", *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                break  # no address in time
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break  # the server exited before listening
            if " listening on " in line:
                host, port = line.split(" listening on ", 1)[1].split()[0].rsplit(":", 1)
                self.address = (host, int(port))
                return self.address
        self.stop()
        raise RuntimeError(
            f"server did not start; see {self.log_path}:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        if self.process is None:
            return 0.0
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        if process.stdout is not None:
            process.stdout.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def zipf_weights(n: int, exponent: float = ZIPF_EXPONENT) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


@dataclass
class Request:
    kind: str  # "read" or "write"
    op: str
    args: dict


@dataclass
class Record:
    kind: str
    latency_s: float
    ok: bool
    #: ``time.perf_counter()`` when the response arrived.
    finished: float
    #: Nominal over measured host speed then (set by ``LoadResult.rescale``).
    speed_factor: float = 1.0

    @property
    def scaled_s(self) -> float:
        """``latency_s`` at the nominal host speed."""
        return self.latency_s * self.speed_factor


class MixedLoad:
    """The seeded request stream plus a local replay of its mutations."""

    def __init__(self, communities: list[Community], epsilon: int, seed: int) -> None:
        self.epsilon = epsilon
        self.rng = random.Random(seed)
        self.local = {
            community.name: np.array(community.vectors, dtype=np.int64)
            for community in communities
        }
        self.names = sorted(self.local)
        bands: dict[str, list[str]] = {}
        for name in self.names:
            bands.setdefault(name.split("m", 1)[0], []).append(name)
        # Couples inside a band: real joins (inter-band couples are
        # screened to zero by their envelopes and never reach a join).
        self.couples = sorted(
            (first, second)
            for members in bands.values()
            for index, first in enumerate(members)
            for second in members[index + 1 :]
        )
        popularity = list(self.couples)
        random.Random(seed + 1).shuffle(popularity)
        self.popular = popularity
        self.weights = zipf_weights(len(popularity))

    def _couple(self) -> tuple[str, str]:
        return self.rng.choices(self.popular, weights=self.weights)[0]

    def _like(self, name: str) -> dict:
        vectors = self.local[name]
        user = self.rng.randrange(vectors.shape[0])
        dimension = self.rng.randrange(vectors.shape[1])
        vectors[user, dimension] += 1
        return {
            "name": name,
            "action": "record_like",
            "user_id": user,
            "dimension": dimension,
            "count": 1,
        }

    def next(self) -> Request:
        draw = self.rng.random()
        if draw < READ_SHARE:
            first, second = self._couple()
            return Request(
                "read",
                "join",
                {"first": first, "second": second, "epsilon": self.epsilon,
                 "method": "ex-minmax"},
            )
        if draw < READ_SHARE + MUTATE_SHARE:
            return Request("write", "mutate", self._like(self.rng.choice(self.names)))
        first, second = self._couple()
        target = first if self.rng.random() < 0.5 else second
        return Request(
            "write",
            "update",
            {"first": first, "second": second, "epsilon": self.epsilon,
             "mutation": self._like(target)},
        )

    def community(self, name: str) -> Community:
        return Community(name, self.local[name].copy())


@dataclass
class LoadResult:
    records: list[Record] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def rescale(self, speed: SpeedSamples) -> None:
        """Give every record the host speed at its completion."""
        for record in self.records:
            record.speed_factor = speed.factor_at(record.finished)

    @property
    def scaled_rate(self) -> float:
        """Requests per second at the nominal host speed."""
        mean_factor = sum(record.speed_factor for record in self.records) / len(self.records)
        return len(self.records) / (self.wall_s * mean_factor)


class _Sender:
    """Sends requests on one connection, opening spans when traced."""

    def __init__(self, client: AsyncServeClient, tag: str, tracer) -> None:
        self.client = client
        self.tag = tag
        self.tracer = tracer
        self.count = 0

    async def send(self, request: Request, result: LoadResult) -> bool:
        self.count += 1
        request_id = f"{self.tag}-{self.count}"
        line = encode_request(request.op, request.args, request_id=request_id)
        try:
            if self.tracer is None:
                payload = await self.client.send_raw(line)
            else:
                with self.tracer.span("bench.request", trace=request_id):
                    with self.tracer.span("serve.client"):
                        payload = await self.client.send_raw(line)
        except (OSError, asyncio.IncompleteReadError) as exc:
            result.errors.append(f"{request.op}: {exc}")
            return False
        if not payload.get("ok"):
            result.errors.append(f"{request.op}: {payload.get('error')}")
            return False
        return True


async def open_loop(
    senders: list[_Sender], load: MixedLoad, *, rate: float, seconds: float
) -> LoadResult:
    """Send ``rate`` requests per second, round-robin over the senders."""
    result = LoadResult()
    total = max(1, int(rate * seconds))
    requests = [load.next() for _ in range(total)]
    started = time.perf_counter()

    async def run(index: int) -> None:
        sender = senders[index]
        for number in range(index, total, len(senders)):
            due = started + number / rate
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
                # Lateness of the generator itself, not of a busy connection.
                result.late.append(max(0.0, time.perf_counter() - due))
            request = requests[number]
            ok = await sender.send(request, result)
            finished = time.perf_counter()
            result.records.append(Record(request.kind, finished - due, ok, finished))

    await asyncio.gather(*(run(index) for index in range(len(senders))))
    result.wall_s = time.perf_counter() - started
    return result


async def closed_loop(
    senders: list[_Sender], load: MixedLoad, *, seconds: float
) -> LoadResult:
    """Each connection sends its next request when the last one returns."""
    result = LoadResult()
    started = time.perf_counter()
    deadline = started + seconds

    async def run(sender: _Sender) -> None:
        while time.perf_counter() < deadline:
            request = load.next()
            sent = time.perf_counter()
            ok = await sender.send(request, result)
            finished = time.perf_counter()
            result.records.append(Record(request.kind, finished - sent, ok, finished))

    await asyncio.gather(*(run(sender) for sender in senders))
    result.wall_s = time.perf_counter() - started
    return result


async def sample_speed(speed: SpeedSamples) -> None:
    """Probe the host speed every ``SAMPLE_PERIOD_S`` until cancelled."""
    while True:
        speed.sample()
        await asyncio.sleep(SAMPLE_PERIOD_S)


async def connect(address: tuple[str, int], count: int, tracer, tag: str) -> list[_Sender]:
    return [
        _Sender(await AsyncServeClient.connect(*address), f"{tag}{index}", tracer)
        for index in range(count)
    ]


async def close(senders: list[_Sender]) -> None:
    for sender in senders:
        await sender.client.close()


def run_loop(coroutine):
    """Run ``coroutine`` on a ``select()`` event loop (microsecond timers)."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()
