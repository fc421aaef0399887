"""Batch execution of community-pair joins.

:class:`BatchEngine` evaluates an arbitrary list of :class:`PairJob`
descriptions over a fixed community collection.  Each job passes three
gates, cheapest first:

1. **Envelope pre-screen** — if the pair's per-dimension envelopes are
   separated by more than the job's epsilon, the similarity is provably
   zero and the job resolves to a ``SCREENED`` outcome without running
   the join.
2. **Join-result cache** — a content-addressed LRU lookup keyed by the
   oriented pair's fingerprints plus ``(epsilon, method, options)``;
   hits resolve to ``CACHED`` outcomes.
3. **Execution** — survivors run the actual join in-process, on the
   calling thread.  The pending jobs of one ``run`` call that share
   ``(method, epsilon, options)`` run as one batch, through one
   :meth:`~repro.algorithms.base.CSJAlgorithm.join_many` call (the
   MinMax numpy engines pair a whole batch in one band pass); outcomes
   keep input order.  A join that raises propagates to the caller; the
   shard fleet turns that into an ``internal`` response its coordinator
   re-routes or reports as lost.

Algorithm instances are built once per ``(method, epsilon, options)``
configuration, never per pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..algorithms import get_algorithm
from ..algorithms.registry import ALGORITHMS
from ..core.errors import UnknownAlgorithmError
from ..core.types import Community, CSJResult, EventCounts
from ..core.validation import validate_pair
from ..obs import JoinTelemetry, MetricsRegistry
from ..obs.timers import stage_timer
from .cache import JoinKey, JoinResultCache, canonical_options, decoded_options, join_key
from .checkpoint import CheckpointLog
from .envelope import Envelope, community_envelope, envelopes_separated
from .fingerprint import community_fingerprint

__all__ = ["Disposition", "PairJob", "PairOutcome", "BatchEngine"]

#: Label recorded in ``CSJResult.engine`` for screened-out pairs.
SCREEN_ENGINE = "envelope-screen"


def screened_result(
    method: str, epsilon: int, sizes: tuple[int, int], swapped: bool
) -> CSJResult:
    """The similarity-0 result of a pair the envelopes ruled out, from
    its user counts in the caller's order and whether that order is
    reversed to ``(B, A)``.  Every source of screened pairs builds it
    here, so rankings mixing computed and screened pairs sort alike."""
    algorithm_cls = ALGORITHMS[method.strip().lower()]
    size_b, size_a = sizes[::-1] if swapped else sizes
    return CSJResult(
        method=algorithm_cls.name,
        exact=algorithm_cls.exact,
        size_b=size_b,
        size_a=size_a,
        epsilon=int(epsilon),
        events=EventCounts(),
        elapsed_seconds=0.0,
        engine=SCREEN_ENGINE,
        swapped=swapped,
    )


class Disposition(enum.Enum):
    """How the engine resolved one job."""

    COMPUTED = "computed"  # the join actually ran
    SCREENED = "screened"  # envelopes proved similarity 0
    CACHED = "cached"  # served from the join-result cache


@dataclass(frozen=True)
class PairJob:
    """One community-pair join request.

    ``first``/``second`` index into the engine's community collection
    (order is preserved — orientation to the paper's ``(B, A)``
    convention happens inside the join exactly as in a direct call).
    ``options`` is a canonical tuple as produced by
    :func:`~repro.engine.cache.canonical_options`.
    """

    first: int
    second: int
    method: str
    epsilon: int
    options: tuple = ()

    @classmethod
    def build(
        cls,
        first: int,
        second: int,
        method: str,
        epsilon: int,
        options: Mapping[str, object] | None = None,
    ) -> "PairJob":
        """Convenience constructor canonicalising an options mapping."""
        return cls(
            first=first,
            second=second,
            method=method,
            epsilon=epsilon,
            options=canonical_options(options or {}),
        )


@dataclass
class PairOutcome:
    """The engine's answer to one :class:`PairJob`."""

    job: PairJob
    disposition: Disposition
    result: CSJResult

    @property
    def similarity(self) -> float:
        return self.result.similarity


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class BatchEngine:
    """Batch executor over a fixed community collection.

    Parameters
    ----------
    communities:
        The collection jobs index into.  Envelopes and fingerprints are
        computed lazily, once per community, across all ``run`` calls.
    screen:
        Enable the envelope pre-screen (sound: screened pairs have
        similarity exactly 0).
    cache:
        ``None`` disables caching; an ``int`` builds an LRU
        :class:`JoinResultCache` of that capacity; an existing cache
        instance is used as-is (and may be shared between engines).
    enforce_size_ratio:
        Forwarded to every join; jobs violating the CSJ size-ratio rule
        raise exactly as a direct ``join`` call would.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        given, the engine counts dispositions, times its phases, mirrors
        cache / envelope / event counters into the registry and emits
        one :class:`~repro.obs.JoinTelemetry` record per resolved job
        into :attr:`telemetry`.  ``None`` (default) keeps the whole
        pipeline on the uninstrumented fast path.
    checkpoint:
        Optional :class:`~repro.engine.checkpoint.CheckpointLog` (or a
        path to one).  Completed joins are durably appended; on
        construction the log is loaded into the join cache (created if
        necessary) so a resumed run recomputes no finished pair.
    """

    def __init__(
        self,
        communities: Sequence[Community],
        *,
        screen: bool = True,
        cache: JoinResultCache | int | None = None,
        enforce_size_ratio: bool = True,
        metrics: MetricsRegistry | None = None,
        checkpoint: CheckpointLog | str | Path | None = None,
    ) -> None:
        self.communities = list(communities)
        self.screen = bool(screen)
        if isinstance(cache, int):
            cache = JoinResultCache(max_entries=cache)
        self.cache = cache
        self.enforce_size_ratio = bool(enforce_size_ratio)
        self.metrics = metrics
        #: Per-job telemetry records, appended by every ``run`` call
        #: while a registry is attached (empty otherwise).
        self.telemetry: list[JoinTelemetry] = []
        self.screened_count = 0
        self.computed_count = 0
        self.cached_count = 0
        #: Joins restored from the checkpoint log at construction.
        self.resumed_count = 0
        self._envelopes: dict[int, Envelope] = {}
        self._fingerprints: dict[int, str] = {}
        self._algorithms: dict[tuple, object] = {}
        if checkpoint is not None and not isinstance(checkpoint, CheckpointLog):
            checkpoint = CheckpointLog(checkpoint)
        self._checkpoint = checkpoint
        if checkpoint is not None:
            entries = checkpoint.load()
            if self.cache is None:
                self.cache = JoinResultCache(
                    max_entries=max(256, 2 * len(entries) + 1)
                )
            for key, payload in entries.items():
                self.cache.put(key, CSJResult.from_dict(payload))
            self.resumed_count = len(entries)
        if metrics is not None and self.cache is not None and self.cache.metrics is None:
            self.cache.metrics = metrics

    # -- bookkeeping ---------------------------------------------------
    def envelope(self, index: int) -> Envelope:
        envelope = self._envelopes.get(index)
        if envelope is None:
            envelope = community_envelope(self.communities[index])
            self._envelopes[index] = envelope
        return envelope

    def fingerprint(self, index: int) -> str:
        fingerprint = self._fingerprints.get(index)
        if fingerprint is None:
            fingerprint = community_fingerprint(self.communities[index])
            self._fingerprints[index] = fingerprint
        return fingerprint

    def _execute(self, jobs: list[PairJob]) -> list[CSJResult]:
        """Join ``jobs`` on the calling thread, one ``join_many`` call per
        ``(method, epsilon, options)`` group; results in job order."""
        groups: dict[tuple, list[int]] = {}
        for index, job in enumerate(jobs):
            groups.setdefault((job.method, job.epsilon, job.options), []).append(index)
        results: list[CSJResult | None] = [None] * len(jobs)
        for key, members in groups.items():
            algorithm = self._algorithms.get(key)
            if algorithm is None:
                method, epsilon, options = key
                algorithm = get_algorithm(method, epsilon, **decoded_options(options))
                self._algorithms[key] = algorithm
            algorithm.metrics = self.metrics
            batch = algorithm.join_many(
                [
                    (self.communities[jobs[index].first], self.communities[jobs[index].second])
                    for index in members
                ],
                enforce_size_ratio=self.enforce_size_ratio,
            )
            for index, result in zip(members, batch):
                results[index] = result
        return results  # type: ignore[return-value]

    def _cache_key(self, job: PairJob) -> tuple[JoinKey, bool]:
        """Content key of the *oriented* pair plus the job's swap flag."""
        first = self.communities[job.first]
        second = self.communities[job.second]
        if first.n_users > second.n_users:
            oriented = (job.second, job.first)
            swapped = True
        else:
            oriented = (job.first, job.second)
            swapped = False
        key = join_key(
            self.fingerprint(oriented[0]),
            self.fingerprint(oriented[1]),
            job.epsilon,
            job.method,
            job.options,
        )
        return key, swapped

    # -- execution -----------------------------------------------------
    def run(self, jobs: Iterable[PairJob]) -> list[PairOutcome]:
        """Resolve every job, preserving input order in the output.

        The computed jobs that share ``(method, epsilon, options)`` run
        as one batch (see :meth:`_execute`); screening, the cache, the
        checkpoint lines and the telemetry records stay per job.
        """
        jobs = list(jobs)
        outcomes: list[PairOutcome | None] = [None] * len(jobs)
        pending: list[tuple[int, PairJob, JoinKey | None]] = []
        with stage_timer(self.metrics, "batch.plan"):
            for position, job in enumerate(jobs):
                first = self.communities[job.first]
                second = self.communities[job.second]
                # Raise dimension/size-ratio errors exactly like a direct join.
                _, _, swapped = validate_pair(
                    first, second, enforce_size_ratio=self.enforce_size_ratio
                )
                if job.method.strip().lower() not in ALGORITHMS:
                    raise UnknownAlgorithmError(job.method, tuple(ALGORITHMS))
                if self.screen:
                    separated = envelopes_separated(
                        self.envelope(job.first),
                        self.envelope(job.second),
                        job.epsilon,
                        metrics=self.metrics,
                    )
                    if separated:
                        self.screened_count += 1
                        outcomes[position] = PairOutcome(
                            job,
                            Disposition.SCREENED,
                            screened_result(
                                job.method,
                                job.epsilon,
                                (first.n_users, second.n_users),
                                swapped,
                            ),
                        )
                        continue
                key: JoinKey | None = None
                if self.cache is not None:
                    key, _ = self._cache_key(job)
                    cached = self.cache.get(key)
                    if cached is not None:
                        # The stored result is oriented; only the swap flag
                        # depends on the order this job named the pair in.
                        cached.swapped = swapped
                        self.cached_count += 1
                        outcomes[position] = PairOutcome(
                            job, Disposition.CACHED, cached
                        )
                        continue
                pending.append((position, job, key))

        if pending:
            with stage_timer(self.metrics, "batch.execute"):
                results = self._execute([job for _, job, _ in pending])
            for (position, job, key), result in zip(pending, results):
                self.computed_count += 1
                if self.cache is not None and key is not None:
                    self.cache.put(key, result)
                if self._checkpoint is not None and key is not None:
                    self._checkpoint.append(key, result)
                outcomes[position] = PairOutcome(job, Disposition.COMPUTED, result)
        assert all(outcome is not None for outcome in outcomes)
        if self.metrics is not None:
            for outcome in outcomes:
                self._observe(outcome)  # type: ignore[arg-type]
        return outcomes  # type: ignore[return-value]

    def _observe(self, outcome: PairOutcome) -> None:
        """Record one resolved job into the registry and telemetry log."""
        metrics = self.metrics
        assert metrics is not None
        job, result = outcome.job, outcome.result
        disposition = outcome.disposition.value
        metrics.inc("repro_engine_jobs_total", 1, disposition=disposition)
        self.telemetry.append(
            JoinTelemetry(
                first=job.first,
                second=job.second,
                method=job.method,
                epsilon=job.epsilon,
                disposition=disposition,
                similarity=result.similarity,
                n_matched=result.n_matched,
                size_b=result.size_b,
                size_a=result.size_a,
                swapped=result.swapped,
                screened=outcome.disposition is Disposition.SCREENED,
                cache_hit=outcome.disposition is Disposition.CACHED,
                events=result.events.as_dict(),
                pairs_examined=result.events.total,
                comparisons=result.events.comparisons,
                stage_seconds=dict(result.stage_seconds),
                elapsed_seconds=result.elapsed_seconds,
                engine=result.engine,
            )
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close the checkpoint log, if any."""
        if self._checkpoint is not None:
            self._checkpoint.close()

    def stats(self) -> dict[str, object]:
        """Dispositions plus cache counters, for reports and logs."""
        stats: dict[str, object] = {
            "computed": self.computed_count,
            "screened": self.screened_count,
            "cached": self.cached_count,
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self._checkpoint is not None:
            stats["resumed"] = self.resumed_count
        return stats

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
