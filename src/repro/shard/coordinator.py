"""Distributed all-pairs top-k over a fleet of CSJ shard servers.

The coordinator ranks through the single-host routine behind
:func:`repro.apps.top_k_pairs` (``_rank_pairs``), with the expensive
stages pushed onto shards:

1. **Candidate scan** — every shard answers ``candidates`` from its
   local envelope screen; the union (deduplicated across
   replicated components) equals the union catalog's surviving set,
   because the partitioner co-locates every candidate pair at plan
   epsilon.
2. **Screen and refine** — ``_rank_pairs`` merges the screened pairs
   with a lazy similarity-0 tail, cuts the refinement pool and
   synthesises the tail's zero scores exactly as it does in memory.
   Its two executors send each pair to its *owner* shard (the plan's
   pair→owner map for split hot components, the lowest common holder
   otherwise) in ``join_batch`` requests: the screen method returns
   similarities, the exact method full
   :class:`~repro.core.types.CSJResult` payloads (JSON floats
   round-trip exactly), so the final ranking — pairs, similarities,
   orientation, tie-breaks — is byte-identical to the single-host
   ranking on the union catalog.

Failure handling is honest rather than heroic: per-shard deadlines and
bounded reconnect-retries ride on the serve layer's admission and
:class:`~repro.serve.ReconnectingClient`; when a shard stays down, its
exclusively-held communities drop out of the ranking universe, pairs
it owned are re-routed to a live replica, pairs no surviving shard can
evaluate are reported as *lost* (never silently zero-scored), and the
response names the missing shards.  A killed distributed sweep resumes
from a JSON-lines checkpoint the coordinator writes as cells complete.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..algorithms import get_algorithm
from ..analysis.sweeps import SweepPoint
from ..apps.topk import PairScore, _joinable_mask, _rank_pairs, _same_dims, _validate, _zero_score
from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError, ReproError
from ..core.types import CSJResult
from ..core.validation import validate_epsilon
from ..engine.checkpoint import open_for_append
from ..engine.envelope import candidate_pairs as envelope_candidates
from ..engine.envelope import envelopes_separated
from ..obs import MetricsRegistry

# Submodule-direct import on purpose: repro.serve.server imports
# repro.shard.metrics, which runs this module via the package init
# while serve.server is still half-built.  serve.client is always
# complete by then (serve/__init__ loads it first), so only the
# client may be imported here at module scope; ShardFleet pulls in
# ServerThread and friends lazily inside start().
from ..serve.client import ReconnectingClient, ServeError
from .partition import PLAN_FILENAME, PartitionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.server import ServeConfig, ServerThread

__all__ = [
    "ShardError",
    "ShardUnavailableError",
    "ShardTopK",
    "ShardSweep",
    "ShardCoordinator",
    "ShardFleet",
]

#: Pairs per ``join_batch`` request; a shard's larger share is chunked.
_JOIN_BATCH_PAIRS = 4096


class ShardError(ReproError):
    """A distributed query could not be planned or completed."""


class ShardUnavailableError(ShardError):
    """Shards are down and the caller did not allow partial results."""

    def __init__(self, missing: Iterable[int]) -> None:
        self.missing = tuple(sorted(missing))
        super().__init__(
            f"shard(s) {list(self.missing)} unavailable after retries "
            "(pass allow_partial=True for a degraded ranking)"
        )


@dataclass(frozen=True)
class ShardTopK:
    """One distributed ranking, with its degradation honestly reported.

    ``missing`` names shards that stayed down; ``dropped_keys`` are
    communities every holder of which is missing (removed from the
    ranking universe); ``lost_pairs`` are ratio-eligible candidate
    pairs no surviving shard could evaluate (excluded from the ranking
    rather than scored zero).  A non-degraded response is
    byte-identical to the single-host ranking.
    """

    scores: tuple[PairScore, ...]
    k: int
    epsilon: int
    missing: tuple[int, ...] = ()
    dropped_keys: tuple[str, ...] = ()
    lost_pairs: tuple[tuple[str, str], ...] = ()
    stats: Mapping[str, object] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.dropped_keys or self.lost_pairs)


@dataclass(frozen=True)
class ShardSweep:
    """One distributed epsilon sweep over a set of couples."""

    curves: Mapping[tuple[str, str], tuple[SweepPoint, ...]]
    resumed_cells: int
    missing: tuple[int, ...] = ()
    lost_cells: tuple[tuple[str, str, int], ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.lost_cells)


class ShardCoordinator:
    """Fans ``topk`` / ``join`` / ``sweep`` over the shards of one plan.

    ``addresses[i]`` must serve shard ``i`` of ``plan`` (a CSJ server
    over that shard's catalog).  Each shard gets one
    :class:`~repro.serve.ReconnectingClient` with ``retries``
    redial-retries; ``deadline_ms`` is forwarded as the per-request
    latency budget so a wedged shard is bounded by the serve layer's
    deadline machinery rather than a coordinator-side timer.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        addresses: Sequence[tuple[str, int]],
        *,
        metrics: "MetricsRegistry | None" = None,
        deadline_ms: float | None = None,
        retries: int = 1,
        timeout: float | None = 30.0,
    ) -> None:
        if len(addresses) != plan.n_shards:
            raise ConfigurationError(
                f"plan has {plan.n_shards} shards but {len(addresses)} "
                "addresses were given"
            )
        self.plan = plan
        # A private registry when none is shared: .inc is then a no-op
        # nobody reads, and every call site stays unconditional.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.deadline_ms = deadline_ms
        self._clients = [
            ReconnectingClient(host, port, timeout=timeout, retries=retries)
            for host, port in addresses
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, plan.n_shards),
            thread_name_prefix="repro-shard",
        )

    # -- plumbing ------------------------------------------------------
    def _request(self, shard: int, op: str, args: dict) -> dict:
        """One shard RPC with request/retry/failure accounting."""
        client = self._clients[shard]
        before = client.reconnects
        self.metrics.inc("repro_shard_requests_total")
        try:
            return client.request(op, args, deadline_ms=self.deadline_ms)
        except (ServeError, OSError):
            self.metrics.inc("repro_shard_failures_total")
            raise
        finally:
            self.metrics.inc("repro_shard_retries_total", client.reconnects - before)

    def _fanout(
        self, op: str, args: dict, shards: Iterable[int]
    ) -> tuple[dict[int, dict], set[int]]:
        """Issue one op to many shards concurrently; collect failures."""
        targets = sorted(shards)
        futures = {
            shard: self._executor.submit(self._request, shard, op, dict(args))
            for shard in targets
        }
        responses: dict[int, dict] = {}
        failed: set[int] = set()
        for shard, future in futures.items():
            try:
                responses[shard] = future.result()
            except (ServeError, OSError):
                failed.add(shard)
        return responses, failed

    def _env_candidates(
        self, keys: Sequence[str], epsilon: int
    ) -> set[tuple[str, str]]:
        """Coordinator-side envelope screen from the plan's envelopes.

        The escape hatch for the two paths shard-local scans cannot
        cover: missing shards (whose pairs must be *identified* to be
        reported lost) and query epsilons above the plan epsilon
        (where co-location is no longer guaranteed).
        """
        return set(
            envelope_candidates(
                {key: self.plan.envelope_of(key) for key in keys}, epsilon
            )
        )

    def _check_keys(self, keys: Iterable[str]) -> None:
        for key in keys:
            if key not in self.plan.metadata:
                raise ShardError(f"community {key!r} is not in the plan")

    # -- join batches with re-routing ----------------------------------
    def _run_join_batches(
        self,
        pairs: list[tuple[str, str]],
        *,
        epsilon: int,
        method: str,
        options: Mapping[str, object],
        include_results: bool,
        missing: set[int],
    ) -> tuple[dict[tuple[str, str], dict], list[tuple[str, str]]]:
        """Run pairs on their live owners, re-routing around shard deaths.

        Returns every evaluated pair's ``join_batch`` entry, plus the
        pairs no live shard holds.  A shard that fails mid-phase joins
        ``missing`` (in place) and its unfinished pairs go round again.
        """
        entries: dict[tuple[str, str], dict] = {}
        lost: list[tuple[str, str]] = []
        while pairs:
            assignments: dict[int, list[tuple[str, str]]] = {}
            for pair in pairs:
                owner = self.plan.owner_of(*pair, missing=missing)
                if owner is None:
                    lost.append(pair)
                else:
                    assignments.setdefault(owner, []).append(pair)
            futures = {
                shard: self._executor.submit(
                    self._shard_batches,
                    shard,
                    owned,
                    epsilon=epsilon,
                    method=method,
                    options=options,
                    include_results=include_results,
                )
                for shard, owned in assignments.items()
            }
            pairs = []
            for shard, future in futures.items():
                answered, unprocessed = future.result()
                entries.update(
                    ((entry["first"], entry["second"]), entry) for entry in answered
                )
                if unprocessed:
                    missing.add(shard)
                    pairs.extend(unprocessed)
        return entries, lost

    def _shard_batches(
        self,
        shard: int,
        pairs: list[tuple[str, str]],
        *,
        epsilon: int,
        method: str,
        options: Mapping[str, object],
        include_results: bool,
    ) -> tuple[list[dict], list[tuple[str, str]]]:
        """All of one shard's chunks, stopping at the first failure."""
        entries: list[dict] = []
        for start in range(0, len(pairs), _JOIN_BATCH_PAIRS):
            chunk = pairs[start : start + _JOIN_BATCH_PAIRS]
            args: dict[str, object] = {
                "pairs": [[first, second] for first, second in chunk],
                "epsilon": epsilon,
                "method": method,
            }
            if options:
                args["options"] = dict(options)
            if include_results:
                args["include_results"] = True
            try:
                response = self._request(shard, "join_batch", args)
            except (ServeError, OSError):
                return entries, pairs[start:]
            entries.extend(response["pairs"])
        return entries, []

    # -- the distributed ranking ---------------------------------------
    def top_k(
        self,
        *,
        epsilon: int,
        k: int,
        screen_method: str = "ap-minmax",
        refine_method: str = "ex-minmax",
        screen_margin: float = 0.8,
        allow_partial: bool = False,
        **options: object,
    ) -> ShardTopK:
        """The k most similar pairs across the whole fleet.

        With every shard reachable the result is byte-identical —
        pairs, similarities, orientation, ranking order — to
        ``top_k_pairs(union_catalog, epsilon=..., k=...)``.  With
        shards down and ``allow_partial=True``, the degraded contract
        of :class:`ShardTopK` applies instead.
        """
        # The same entry checks as top_k_pairs, so a caller's mistake
        # raises its own error instead of reaching the shards, which
        # would answer ``invalid`` and look like an outage.
        epsilon = validate_epsilon(epsilon)
        for method in (screen_method, refine_method):
            get_algorithm(method, epsilon, **options)
        _validate([], k, screen_margin)
        _same_dims([n_dims for _, n_dims in self.plan.metadata.values()])

        responses, missing = self._fanout(
            "candidates", {"epsilon": epsilon}, range(self.plan.n_shards)
        )
        if missing and (not allow_partial or not responses):
            raise ShardUnavailableError(missing)
        dropped = tuple(
            sorted(
                key
                for key in self.plan.metadata
                if missing.issuperset(self.plan.shards_of(key))
            )
        )
        names = sorted(set(self.plan.metadata) - set(dropped))
        row = {key: index for index, key in enumerate(names)}
        sizes = [self.plan.size_of(key) for key in names]
        joinable = _joinable_mask(sizes)
        candidates = np.zeros_like(joinable)
        duplicates = 0
        for response in responses.values():
            for first, second in response["pairs"]:
                if first in row and second in row:
                    duplicates += int(candidates[row[first], row[second]])
                    candidates[row[first], row[second]] = True
        self.metrics.inc("repro_shard_pairs_deduped_total", duplicates)

        # Pairs shard-local scans cannot vouch for: identify losses
        # under missing shards, and verify co-location coverage for
        # epsilons above the plan epsilon.
        lost: set[tuple[str, str]] = set()
        if missing or epsilon > self.plan.epsilon:
            for first, second in self._env_candidates(names, epsilon):
                index = (row[first], row[second])
                if candidates[index] or not joinable[index]:
                    continue
                if self.plan.owner_of(first, second, missing=missing) is None:
                    if not missing:
                        raise ShardError(
                            f"candidate pair {(first, second)!r} at epsilon "
                            f"{epsilon} is not co-located on any shard: the "
                            f"plan was built for epsilon <= {self.plan.epsilon}; "
                            "repartition with a larger plan epsilon"
                        )
                    lost.add((first, second))
                    joinable[index] = False

        def run(
            pairs: list[tuple[int, int]], method: str, include_results: bool
        ) -> list[dict | None]:
            named = [(names[first], names[second]) for first, second in pairs]
            entries, unroutable = self._run_join_batches(
                named,
                epsilon=epsilon,
                method=method,
                options=options,
                include_results=include_results,
                missing=missing,
            )
            lost.update(unroutable)
            return [entries.get(pair) for pair in named]

        screened: list[float | None] = []

        def screen(pairs: list[tuple[int, int]]) -> list[float | None]:
            similarities = [
                None if entry is None else entry["similarity"]
                for entry in run(pairs, screen_method, False)
            ]
            screened.extend(similarities)
            return similarities

        def refine(pairs: list[tuple[int, int]]) -> list[CSJResult | None]:
            return [
                None if entry is None else CSJResult.from_dict(entry["result"])
                for entry in run(pairs, refine_method, True)
            ]

        scores, pool = _rank_pairs(
            names,
            sizes,
            joinable,
            joinable & candidates,
            screen,
            refine,
            epsilon=epsilon,
            k=k,
            refine_method=refine_method,
            screen_margin=screen_margin,
        )
        self.metrics.inc("repro_shard_pairs_merged_total", pool)
        unscreened = screened.count(None)

        missing_tuple = tuple(sorted(missing))
        lost_tuple = tuple(sorted(lost))
        if missing_tuple or lost_tuple or dropped:
            self.metrics.inc("repro_shard_degraded_total")
            if not allow_partial:
                raise ShardUnavailableError(missing_tuple)
        return ShardTopK(
            scores=tuple(scores),
            k=k,
            epsilon=epsilon,
            missing=missing_tuple,
            dropped_keys=dropped,
            lost_pairs=lost_tuple,
            stats={
                "communities": len(names),
                "candidate_pairs": int(candidates.sum()),
                "duplicates": duplicates,
                "executed_pairs": len(screened) - unscreened,
                "n_screened": int(joinable.sum()) - unscreened,
                "pool": pool,
            },
        )

    # -- single joins --------------------------------------------------
    def join(
        self,
        first: str,
        second: str,
        *,
        epsilon: int,
        method: str = "ex-minmax",
        options: Mapping[str, object] | None = None,
    ) -> dict:
        """Join one couple on its owner shard (``join`` endpoint shape).

        A couple the plan's envelopes prove separated at ``epsilon``
        needs no shard at all — the zero result is synthesised from
        plan metadata, exactly like the catalog ranking's screened
        pairs.
        """
        epsilon = validate_epsilon(epsilon)
        self._check_keys((first, second))
        # Refused before routing, so the error is the same wherever the
        # plan puts the two communities.
        _same_dims([self.plan.metadata[key][1] for key in (first, second)])
        owner = self.plan.owner_of(first, second)
        if owner is None:
            if envelopes_separated(
                self.plan.envelope_of(first),
                self.plan.envelope_of(second),
                epsilon,
            ):
                score = _zero_score(
                    (first, second),
                    (self.plan.size_of(first), self.plan.size_of(second)),
                    method=method,
                    epsilon=epsilon,
                )
                return {
                    "disposition": "screened",
                    "result": score.result.to_dict(),
                }
            raise ShardError(
                f"pair ({first!r}, {second!r}) is not co-located on any "
                f"shard (plan epsilon {self.plan.epsilon}, query epsilon "
                f"{epsilon}); repartition with a larger plan epsilon"
            )
        args: dict[str, object] = {
            "first": first,
            "second": second,
            "epsilon": epsilon,
            "method": method,
        }
        if options:
            args["options"] = dict(options)
        return self._request(owner, "join", args)

    # -- distributed sweeps --------------------------------------------
    def sweep(
        self,
        pairs: Sequence[tuple[str, str]],
        epsilons: Sequence[int],
        *,
        method: str = "ex-minmax",
        options: Mapping[str, object] | None = None,
        checkpoint: str | Path | None = None,
        allow_partial: bool = False,
    ) -> ShardSweep:
        """Epsilon sweeps over many couples, with resumable checkpoints.

        Mirrors :func:`~repro.analysis.sweeps.catalog_epsilon_sweep`
        per couple: plan envelopes separated at ``max(epsilons)``
        synthesise the whole zero curve from metadata; every other
        ``(pair, epsilon)`` cell routes to the pair's owner shard.
        With ``checkpoint`` set, completed cells append to a JSON-lines
        file as they finish (torn trailing lines are tolerated), and a
        re-run skips them — a killed sweep resumes where it died.
        """
        if not epsilons:
            raise ConfigurationError("sweep needs at least one epsilon")
        epsilons = [validate_epsilon(epsilon) for epsilon in epsilons]
        if sorted(epsilons) != epsilons:
            raise ConfigurationError("epsilons must be given in ascending order")
        self._check_keys(key for pair in pairs for key in pair)
        for pair in pairs:
            _same_dims([self.plan.metadata[key][1] for key in pair])
        completed = self._load_checkpoint(checkpoint)
        resumed = 0
        missing: set[int] = set()
        lost_cells: list[tuple[str, str, int]] = []
        curves: dict[tuple[str, str], tuple[SweepPoint, ...]] = {}
        checkpoint_file = (
            open_for_append(Path(checkpoint)) if checkpoint is not None else None
        )
        try:
            for first, second in pairs:
                if envelopes_separated(
                    self.plan.envelope_of(first),
                    self.plan.envelope_of(second),
                    max(epsilons),
                ):
                    curves[(first, second)] = tuple(
                        SweepPoint(
                            parameter=float(epsilon),
                            similarity_percent=0.0,
                            n_matched=0,
                            elapsed_seconds=0.0,
                        )
                        for epsilon in epsilons
                    )
                    continue
                points: list[SweepPoint] = []
                for epsilon in epsilons:
                    cell = (first, second, epsilon)
                    cached = completed.get(cell)
                    if cached is not None:
                        resumed += 1
                        points.append(cached)
                        continue
                    try:
                        response = self.join(
                            first,
                            second,
                            epsilon=epsilon,
                            method=method,
                            options=options,
                        )
                    except (ServeError, OSError):
                        owner = self.plan.owner_of(first, second, missing=missing)
                        if owner is not None:
                            missing.add(owner)
                        if not allow_partial:
                            raise
                        lost_cells.append(cell)
                        continue
                    result = response["result"]
                    point = SweepPoint(
                        parameter=float(epsilon),
                        similarity_percent=100.0 * float(result["similarity"]),
                        n_matched=len(result["pairs"]),
                        elapsed_seconds=float(result["elapsed_seconds"]),
                    )
                    points.append(point)
                    if checkpoint_file is not None:
                        checkpoint_file.write(
                            json.dumps(
                                {
                                    "first": first,
                                    "second": second,
                                    "epsilon": epsilon,
                                    "similarity_percent": point.similarity_percent,
                                    "n_matched": point.n_matched,
                                    "elapsed_seconds": point.elapsed_seconds,
                                },
                                separators=(",", ":"),
                            )
                            + "\n"
                        )
                        checkpoint_file.flush()
                curves[(first, second)] = tuple(points)
        finally:
            if checkpoint_file is not None:
                checkpoint_file.close()
        self.metrics.inc("repro_shard_resumed_total", resumed)
        if missing or lost_cells:
            self.metrics.inc("repro_shard_degraded_total")
        return ShardSweep(
            curves=curves,
            resumed_cells=resumed,
            missing=tuple(sorted(missing)),
            lost_cells=tuple(lost_cells),
        )

    @staticmethod
    def _load_checkpoint(
        checkpoint: str | Path | None,
    ) -> dict[tuple[str, str, int], SweepPoint]:
        completed: dict[tuple[str, str, int], SweepPoint] = {}
        if checkpoint is None or not Path(checkpoint).exists():
            return completed
        for line in Path(checkpoint).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line from a killed run
            try:
                cell = (
                    str(entry["first"]),
                    str(entry["second"]),
                    int(entry["epsilon"]),
                )
                completed[cell] = SweepPoint(
                    parameter=float(entry["epsilon"]),
                    similarity_percent=float(entry["similarity_percent"]),
                    n_matched=int(entry["n_matched"]),
                    elapsed_seconds=float(entry["elapsed_seconds"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed line: recompute that cell
        return completed

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._executor.shutdown(wait=True)
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class ShardFleet:
    """An in-process fleet of shard servers over a partition directory.

    The self-hosting path of ``repro-csj shard topk`` and the test /
    benchmark harness: one :class:`~repro.serve.ServerThread` per shard
    database, each backed by a lazy
    :class:`~repro.serve.CatalogBackedStore`.  ``stop_shard`` kills one
    server (its catalog included) to exercise the degraded paths.
    """

    def __init__(
        self,
        plan_dir: str | Path,
        *,
        config: "ServeConfig | None" = None,
    ) -> None:
        self.plan_dir = Path(plan_dir)
        self.plan = PartitionPlan.load(self.plan_dir / PLAN_FILENAME)
        self._config = config
        self._threads: "list[ServerThread | None]" = []
        self._catalogs: list[PersistentCatalog | None] = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> list[tuple[str, int]]:
        # Deferred import: see the module-scope note on the serve cycle.
        from ..serve.server import ServerThread
        from ..serve.store import CatalogBackedStore

        if self._threads:
            raise RuntimeError("fleet already started")
        for spec in self.plan.shards:
            catalog = PersistentCatalog(self.plan_dir / spec.db)
            store = CatalogBackedStore(catalog)
            thread = ServerThread(self._config, store=store)
            address = thread.start()
            self._catalogs.append(catalog)
            self._threads.append(thread)
            self.addresses.append(address)
        return list(self.addresses)

    def stop_shard(self, shard: int) -> None:
        """Kill one shard server (the shard-loss scenario)."""
        thread = self._threads[shard]
        if thread is not None:
            thread.stop()
            self._threads[shard] = None
        catalog = self._catalogs[shard]
        if catalog is not None:
            catalog.close()
            self._catalogs[shard] = None

    def stop(self) -> None:
        for shard in range(len(self._threads)):
            self.stop_shard(shard)
        self._threads = []
        self._catalogs = []
        self.addresses = []

    def coordinator(self, **kwargs: object) -> ShardCoordinator:
        """A coordinator bound to this fleet's addresses."""
        if not self.addresses:
            raise RuntimeError("fleet is not started")
        return ShardCoordinator(self.plan, self.addresses, **kwargs)  # type: ignore[arg-type]

    def __enter__(self) -> "ShardFleet":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
