"""Top-k most-similar community pairs.

The paper's broadcast scenario (Section 1.2, ii.b) has the platform
apply CSJ "to a variety of community pairs" and act on the results in
priority order; Section 3 prescribes the economical execution: a fast
approximate method screens all pairs, then the exact method refines
only the survivors.  :func:`top_k_pairs` packages that pipeline over an
arbitrary community collection.

Filtering and verification are separate steps.  The per-dimension
envelope screen first proves most pairs' similarity 0 without a join;
only the pairs it cannot rule out become
:class:`~repro.engine.PairJob` entries on the
:class:`~repro.engine.BatchEngine` (which brings the join-result cache
and multi-process execution, ``n_jobs``), and the proven-zero pairs
are ranked from a lazy similarity-0 tail.  ``top_k_pairs_reference``
preserves the pre-engine serial loop as a differential-testing oracle
and as the baseline the engine benchmarks measure against.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..algorithms import ALGORITHMS, get_algorithm
from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError, DimensionMismatchError
from ..core.types import Community, CSJResult, EventCounts
from ..core.validation import validate_epsilon
from ..engine import (
    BatchEngine,
    CheckpointLog,
    FaultPolicy,
    JoinResultCache,
    PairJob,
    canonical_options,
)
from ..engine.batch import SCREEN_ENGINE
from ..engine.envelope import community_envelope, separation_matrix, stack_envelopes
from ..obs import JoinTelemetry, MetricsRegistry
from ..sketch import SketchPrefilter

__all__ = ["PairScore", "top_k_pairs", "top_k_pairs_reference"]


@dataclass(frozen=True)
class PairScore:
    """One scored community pair."""

    name_b: str
    name_a: str
    similarity: float
    result: CSJResult

    @property
    def label(self) -> str:
        return f"<{self.name_b}, {self.name_a}>"


def _ratio_ok(n_first: int, n_second: int) -> bool:
    small, large = sorted((n_first, n_second))
    return small * 2 >= large


def _joinable(first: Community, second: Community) -> bool:
    return _ratio_ok(len(first), len(second))


def _joinable_mask(sizes: Sequence[int]) -> np.ndarray:
    """Upper-triangular ``(C, C)`` mask of the size-ratio-joinable pairs."""
    n = np.asarray(sizes, dtype=np.int64)
    return np.triu((2 * n[:, None] >= n[None, :]) & (2 * n[None, :] >= n[:, None]), 1)


def _validate(communities: list[Community], k: int, screen_margin: float) -> None:
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not 0.0 < screen_margin <= 1.0:
        raise ConfigurationError(
            f"screen_margin must be within (0, 1], got {screen_margin}"
        )
    names = [community.name for community in communities]
    if len(set(names)) != len(names):
        raise ConfigurationError("community names must be unique for ranking")


def _pool_size(n_screened: int, k: int, screen_margin: float) -> int:
    return min(n_screened, max(k, int(round(k / screen_margin))))


def top_k_pairs(
    communities: "list[Community] | PersistentCatalog",
    *,
    epsilon: int,
    k: int,
    screen_method: str = "ap-minmax",
    refine_method: str = "ex-minmax",
    screen_margin: float = 0.8,
    n_jobs: int = 1,
    cache: JoinResultCache | int | None = None,
    envelope_screen: bool = True,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    fault_policy: FaultPolicy | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
    prefilter: SketchPrefilter | None = None,
    keys: list[str] | None = None,
    **options: object,
) -> list[PairScore]:
    """The k most similar pairs among ``communities``.

    Every unordered pair satisfying the CSJ size-ratio rule is ranked.
    With ``envelope_screen`` (the default), pairs whose per-dimension
    min/max envelopes prove a zero similarity are ranked at 0 without
    a join; every other pair is screened with the approximate method.
    The best ``k / screen_margin`` entries of that ranking form the
    refinement pool: its envelope survivors are joined exactly, and
    the top ``k`` refined pairs are returned sorted by descending
    similarity (name tie-break).  Turning the envelope screen off
    joins every pair and leaves the ranking unchanged.

    ``screen_margin`` < 1 widens the refinement pool to protect against
    approximate underestimation promoting the wrong pairs.

    ``n_jobs`` > 1 distributes the joins across worker processes and
    ``cache`` (an :class:`~repro.engine.JoinResultCache`, or an int
    capacity) memoises joins across calls; both leave the returned
    ranking identical to the serial computation.  With ``metrics``
    attached, the engine's per-join records for both phases are
    appended to ``telemetry`` (when given); envelope-ruled-out pairs
    never reach the engine and have no record.  ``fault_policy``
    supervises both phases (timeouts / retries / quarantine) and
    ``checkpoint`` makes completed joins durable so a killed ranking
    resumes without recomputing finished pairs.

    ``prefilter`` (a :class:`~repro.sketch.SketchPrefilter`) gates both
    phases through the sketch tier's candidate generator; with a lossy
    tier (``target_recall < 1``) the measured recall is folded into
    every surviving result's ``p``, so the ranking's similarities carry
    the candidate-generation error honestly (see ``docs/approx.md``).

    ``communities`` may also be a
    :class:`~repro.catalog.PersistentCatalog` (optionally restricted to
    ``keys``): the envelope screen then runs as the catalog's indexed
    window query and only the surviving communities' vectors are loaded
    from disk, so a sweep over thousands of on-disk communities touches
    O(survivors) vector rows.  Communities are ranked under their
    catalog keys (keys are unique; stored display names may not be).
    The returned ranking is identical to loading everything and calling
    this function with the in-memory list.
    """
    epsilon = validate_epsilon(epsilon)
    # Building both methods once checks their names and options whatever
    # the data, even when no pair survives the screen to be joined.
    for method in (screen_method, refine_method):
        get_algorithm(method, epsilon, **options)
    if isinstance(communities, PersistentCatalog):
        _validate([], k, screen_margin)
        catalog = communities
        names = sorted(set(keys)) if keys is not None else catalog.keys()
        sizes = [catalog.metadata(key).n_users for key in names]
        joinable = _joinable_mask(sizes)
        live = joinable
        if envelope_screen:
            row = {key: index for index, key in enumerate(names)}
            candidates = np.zeros_like(joinable)
            for first, second in catalog.candidate_pairs(epsilon, keys=names):
                candidates[row[first], row[second]] = True
            live = joinable & candidates
        # The only vector loads of the whole ranking: one per live community.
        needed = np.flatnonzero(live.any(axis=0) | live.any(axis=1)).tolist()
        roster = []
        for index in needed:
            community = catalog.get(names[index])
            if community.name != names[index]:
                community = dataclasses.replace(community, name=names[index])
            roster.append(community)
        slots: Mapping[int, int] | Sequence[int] = {
            index: slot for slot, index in enumerate(needed)
        }
    else:
        if keys is not None:
            raise ConfigurationError(
                "keys= only applies when ranking from a PersistentCatalog"
            )
        _validate(communities, k, screen_margin)
        for community in communities[1:]:
            if community.n_dims != communities[0].n_dims:
                raise DimensionMismatchError(communities[0].n_dims, community.n_dims)
        names = [community.name for community in communities]
        sizes = [community.n_users for community in communities]
        joinable = _joinable_mask(sizes)
        live = joinable
        if envelope_screen and joinable.any():
            mins, maxs = stack_envelopes(
                [community_envelope(community) for community in communities]
            )
            live = joinable & ~separation_matrix(mins, maxs, epsilon)
            if metrics is not None:
                tested = int(joinable.sum())
                metrics.inc("repro_engine_envelope_tests_total", tested)
                metrics.inc(
                    "repro_engine_envelope_separations_total", tested - int(live.sum())
                )
        roster, slots = communities, range(len(communities))
    with BatchEngine(
        roster,
        n_jobs=n_jobs,
        screen=False,
        cache=cache,
        metrics=metrics,
        fault_policy=fault_policy,
        checkpoint=checkpoint,
        prefilter=prefilter,
    ) as engine:
        scores = _rank_pairs(
            names,
            sizes,
            joinable,
            live,
            engine,
            slots,
            epsilon=epsilon,
            k=k,
            screen_method=screen_method,
            refine_method=refine_method,
            screen_margin=screen_margin,
            job_options=canonical_options(options),
        )
        if telemetry is not None:
            telemetry.extend(engine.telemetry)
    return scores


def _rank_pairs(
    names: Sequence[str],
    sizes: Sequence[int],
    joinable: np.ndarray,
    live: np.ndarray,
    engine: BatchEngine,
    slots: Mapping[int, int] | Sequence[int],
    *,
    epsilon: int,
    k: int,
    screen_method: str,
    refine_method: str,
    screen_margin: float,
    job_options: tuple,
) -> list[PairScore]:
    """Screen, merge and refine one source's pairs.

    Pair ``(i, j)`` with ``i < j`` indexes ``names``/``sizes`` in source
    order; ``joinable`` and ``live`` are upper-triangular masks over
    those indices, and job index ``slots[i]`` names community ``i`` in
    the engine (needed only when it belongs to a live pair).  Live
    pairs alone become engine jobs.  Their screened ranking merges with
    a lazy similarity-0 tail of the other joinable pairs, the
    refinement pool's live pairs are joined exactly, and its tail pairs
    become :func:`_zero_score` results.
    """

    def run(pairs: list[tuple[int, int]], method: str) -> list[CSJResult]:
        jobs = [
            PairJob(slots[first], slots[second], method, epsilon, job_options)
            for first, second in pairs
        ]
        return [outcome.result for outcome in engine.run(jobs)] if jobs else []

    def rank(entry: tuple[float, int, int]) -> tuple[float, str, str]:
        return (-entry[0], names[entry[1]], names[entry[2]])

    firsts, seconds = np.nonzero(live)
    live_pairs = list(zip(firsts.tolist(), seconds.tolist()))
    screen_results = run(live_pairs, screen_method)
    screened = sorted(
        (
            (result.similarity, first, second)
            for (first, second), result in zip(live_pairs, screen_results)
        ),
        key=rank,
    )
    merged = heapq.merge(screened, _zero_tail(names, joinable & ~live), key=rank)
    pool_size = _pool_size(int(joinable.sum()), k, screen_margin)
    pool = list(itertools.islice(merged, pool_size))
    refine_pairs = [(first, second) for _, first, second in pool if live[first, second]]
    refined = dict(zip(refine_pairs, run(refine_pairs, refine_method)))
    scores: list[PairScore] = []
    for _, first, second in pool:
        result = refined.get((first, second))
        if result is None:
            scores.append(
                _zero_score(
                    (names[first], names[second]),
                    (sizes[first], sizes[second]),
                    method=refine_method,
                    epsilon=epsilon,
                )
            )
        else:
            b, a = (second, first) if result.swapped else (first, second)
            scores.append(PairScore(names[b], names[a], result.similarity, result))
    scores.sort(key=lambda score: (-score.similarity, score.name_b, score.name_a))
    return scores[:k]


def _zero_tail(
    names: Sequence[str], tail: np.ndarray
) -> Iterator[tuple[float, int, int]]:
    """``(0.0, i, j)`` for every pair ``tail`` marks, lazily, in name order.

    Pair ``(i, j)`` with ``i < j`` is named ``(names[i], names[j])``;
    the entries come out sorted on those names, the order the ranking
    merges on, even when the source order is not name order.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    by_name = tail[:, order]
    for first in order:
        for column in np.flatnonzero(by_name[first]):
            yield (0.0, first, order[column])


def _zero_score(
    names: tuple[str, str],
    sizes: tuple[int, int],
    *,
    method: str,
    epsilon: int,
) -> PairScore:
    """The similarity-0 score of a pair the envelopes ruled out.

    Built from the pair's names and sizes alone, it mirrors the
    engine's screened-result convention exactly (method name,
    exactness, orientation, the ``envelope-screen`` engine label) so
    rankings mixing computed and screened pairs sort identically
    whichever source produced them.
    """
    algorithm_cls = ALGORITHMS[method.strip().lower()]
    swapped = sizes[0] > sizes[1]
    b, a = (1, 0) if swapped else (0, 1)
    result = CSJResult(
        method=algorithm_cls.name,
        exact=algorithm_cls.exact,
        size_b=sizes[b],
        size_a=sizes[a],
        epsilon=int(epsilon),
        pairs=[],
        events=EventCounts(),
        elapsed_seconds=0.0,
        engine=SCREEN_ENGINE,
        swapped=swapped,
    )
    return PairScore(names[b], names[a], 0.0, result)


def top_k_pairs_reference(
    communities: list[Community],
    *,
    epsilon: int,
    k: int,
    screen_method: str = "ap-minmax",
    refine_method: str = "ex-minmax",
    screen_margin: float = 0.8,
    **options: object,
) -> list[PairScore]:
    """Pre-engine serial implementation, kept as an oracle and baseline.

    Joins every pair in-process with no envelope screen and no cache
    (algorithm instances are still built once per phase).  The engine
    tests assert :func:`top_k_pairs` matches this ranking exactly, and
    ``benchmarks/bench_engine_batch.py`` measures the engine against it.
    """
    _validate(communities, k, screen_margin)
    screener = get_algorithm(screen_method, epsilon, **options)
    screened: list[tuple[float, Community, Community]] = []
    for first, second in itertools.combinations(communities, 2):
        if not _joinable(first, second):
            continue
        result = screener.join(first, second)
        screened.append((result.similarity, first, second))
    screened.sort(key=lambda entry: (-entry[0], entry[1].name, entry[2].name))

    refiner = get_algorithm(refine_method, epsilon, **options)
    refined: list[PairScore] = []
    for _, first, second in screened[: _pool_size(len(screened), k, screen_margin)]:
        result = refiner.join(first, second)
        oriented = (first, second) if not result.swapped else (second, first)
        refined.append(
            PairScore(
                name_b=oriented[0].name,
                name_a=oriented[1].name,
                similarity=result.similarity,
                result=result,
            )
        )
    refined.sort(key=lambda score: (-score.similarity, score.name_b, score.name_a))
    return refined[:k]
