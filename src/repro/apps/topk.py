"""Top-k most-similar community pairs.

The paper's broadcast scenario (Section 1.2, ii.b) has the platform
apply CSJ "to a variety of community pairs" and act on the results in
priority order; Section 3 prescribes the economical execution: a fast
approximate method screens all pairs, then the exact method refines
only the survivors.  :func:`top_k_pairs` packages that pipeline over an
arbitrary community collection.

Filtering and verification are separate steps.  The per-dimension
envelope screen (one sort-and-sweep for every source) first proves
most pairs' similarity 0 without a join, and the proven-zero pairs are
ranked from a lazy similarity-0 tail.  One routine, ``_rank_pairs``,
ranks every source: it hands the pairs the screen cannot rule out to a
``screen`` and a ``refine`` executor.  For a list or a
:class:`~repro.catalog.PersistentCatalog` those run
:class:`~repro.engine.PairJob` entries in-process on a
:class:`~repro.engine.BatchEngine` (which brings the join-result cache
and the checkpoint log); the shard coordinator passes executors that
run ``join_batch`` requests on the pairs' owner shards.
``top_k_pairs_reference`` preserves the pre-engine serial loop as a
differential-testing oracle and as the baseline the engine benchmarks
measure against.  Every source, the oracle included, enumerates a pair
as (lower name, higher name), so a ranking does not depend on the
order of its input.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..algorithms import get_algorithm
from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError, DimensionMismatchError
from ..core.types import Community, CSJResult
from ..core.validation import validate_epsilon
from ..engine import (
    BatchEngine,
    CheckpointLog,
    JoinResultCache,
    PairJob,
    canonical_options,
)
from ..engine.batch import screened_result
from ..engine.envelope import community_envelope, stack_envelopes, surviving_pairs
from ..obs import JoinTelemetry, MetricsRegistry

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
    if isinstance(k, bool) or not isinstance(k, int):
        raise ConfigurationError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not 0.0 < screen_margin <= 1.0:
        raise ConfigurationError(
            f"screen_margin must be within (0, 1], got {screen_margin}"
        )
    names = [community.name for community in communities]
    if len(set(names)) != len(names):
        raise ConfigurationError("community names must be unique for ranking")


def _in_name_order(communities: Sequence[Community]) -> list[Community]:
    """Ap-MinMax is order-sensitive on equal-size pairs: fix the order."""
    return sorted(communities, key=lambda community: community.name)


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
    cache: JoinResultCache | int | None = None,
    envelope_screen: bool = True,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
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

    ``cache`` (an :class:`~repro.engine.JoinResultCache`, or an int
    capacity) memoises joins across calls and leaves the returned
    ranking unchanged.  With ``metrics`` attached, the engine's per-join
    records for both phases are appended to ``telemetry`` (when given);
    envelope-ruled-out pairs never reach the engine and have no record.
    ``checkpoint`` makes completed joins durable so a killed ranking
    resumes without recomputing finished pairs.  A join that raises
    propagates: no ranking is returned.

    ``communities`` may also be a
    :class:`~repro.catalog.PersistentCatalog` (optionally restricted to
    ``keys``): the envelope screen then runs on the catalog's stored
    envelopes and only the surviving communities' vectors are loaded
    from disk, so a sweep over thousands of on-disk communities touches
    O(survivors) vector rows.  Communities are ranked under their
    catalog keys (keys are unique; stored display names may not be).
    The returned ranking is identical to loading everything and calling
    this function with the in-memory list, in any order: every source
    enumerates a pair as (lower name, higher name).
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
        slots: dict[int, int] | range = {
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
        communities = _in_name_order(communities)
        names = [community.name for community in communities]
        sizes = [community.n_users for community in communities]
        joinable = _joinable_mask(sizes)
        live = joinable
        if envelope_screen and joinable.any():
            mins, maxs = stack_envelopes(
                [community_envelope(community) for community in communities]
            )
            survives = np.zeros_like(joinable)
            survives[surviving_pairs(mins, maxs, epsilon)] = True
            live = joinable & survives
            if metrics is not None:
                tested = int(joinable.sum())
                metrics.inc("repro_engine_envelope_tests_total", tested)
                metrics.inc(
                    "repro_engine_envelope_separations_total", tested - int(live.sum())
                )
        roster, slots = communities, range(len(communities))
    with BatchEngine(
        roster,
        screen=False,
        cache=cache,
        metrics=metrics,
        checkpoint=checkpoint,
    ) as engine:
        job_options = canonical_options(options)

        def run(pairs: list[tuple[int, int]], method: str) -> list[CSJResult]:
            jobs = [
                PairJob(slots[first], slots[second], method, epsilon, job_options)
                for first, second in pairs
            ]
            return [outcome.result for outcome in engine.run(jobs)] if jobs else []

        scores, _ = _rank_pairs(
            names,
            sizes,
            joinable,
            live,
            lambda pairs: [result.similarity for result in run(pairs, screen_method)],
            lambda pairs: run(pairs, refine_method),
            epsilon=epsilon,
            k=k,
            refine_method=refine_method,
            screen_margin=screen_margin,
        )
        if telemetry is not None:
            telemetry.extend(engine.telemetry)
    return scores


def _rank_pairs(
    names: Sequence[str],
    sizes: Sequence[int],
    joinable: np.ndarray,
    live: np.ndarray,
    screen: Callable[[list[tuple[int, int]]], Sequence[float | None]],
    refine: Callable[[list[tuple[int, int]]], Sequence[CSJResult | None]],
    *,
    epsilon: int,
    k: int,
    refine_method: str,
    screen_margin: float,
) -> tuple[list[PairScore], int]:
    """Screen, merge and refine one source's pairs.

    Pair ``(i, j)`` with ``i < j`` indexes ``names``/``sizes``, which
    are in name order; ``joinable`` and ``live`` (a subset of it) are
    upper-triangular masks over those indices.  Live pairs alone reach
    the executors: ``screen(pairs)`` returns each pair's screened
    similarity and ``refine(pairs)`` its exact result, or ``None`` for
    a pair no executor could evaluate.  The screened ranking merges
    with a lazy similarity-0 tail of the other joinable pairs, the
    refinement pool's live pairs are refined, and its tail pairs become
    :func:`_zero_score` results.  A pair screened ``None`` leaves the
    ranking and the pool count; a pair refined ``None`` leaves the
    pool.  Neither is ever scored.  Returns the top ``k`` scores and
    the size of the refinement pool.
    """

    def rank(entry: tuple[float, int, int]) -> tuple[float, str, str]:
        return (-entry[0], names[entry[1]], names[entry[2]])

    firsts, seconds = np.nonzero(live)
    live_pairs = list(zip(firsts.tolist(), seconds.tolist()))
    screened = sorted(
        (
            (similarity, first, second)
            for (first, second), similarity in zip(live_pairs, screen(live_pairs))
            if similarity is not None
        ),
        key=rank,
    )
    merged = heapq.merge(screened, _zero_tail(joinable & ~live), key=rank)
    n_ranked = int(joinable.sum()) - len(live_pairs) + len(screened)
    pool = list(itertools.islice(merged, _pool_size(n_ranked, k, screen_margin)))
    refine_pairs = [(first, second) for _, first, second in pool if live[first, second]]
    refined = dict(zip(refine_pairs, refine(refine_pairs)))
    scores: list[PairScore] = []
    for _, first, second in pool:
        if not live[first, second]:
            scores.append(
                _zero_score(
                    (names[first], names[second]),
                    (sizes[first], sizes[second]),
                    method=refine_method,
                    epsilon=epsilon,
                )
            )
        elif (result := refined[(first, second)]) is not None:
            b, a = (second, first) if result.swapped else (first, second)
            scores.append(PairScore(names[b], names[a], result.similarity, result))
    scores.sort(key=lambda score: (-score.similarity, score.name_b, score.name_a))
    return scores[:k], len(pool)


def _zero_tail(tail: np.ndarray) -> Iterator[tuple[float, int, int]]:
    """``(0.0, i, j)`` for every pair ``tail`` marks, lazily, row by row.

    Sources index their communities in name order, so this is the name
    order the ranking merges on.
    """
    for first, row in enumerate(tail):
        for second in np.flatnonzero(row).tolist():
            yield (0.0, first, second)


def _zero_score(
    names: tuple[str, str],
    sizes: tuple[int, int],
    *,
    method: str,
    epsilon: int,
) -> PairScore:
    """The similarity-0 score of a pair the envelopes ruled out, built
    from the pair's names and sizes alone (see :func:`screened_result`)."""
    swapped = sizes[0] > sizes[1]
    name_b, name_a = names[::-1] if swapped else names
    return PairScore(
        name_b, name_a, 0.0, screened_result(method, epsilon, sizes, swapped)
    )


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
    for first, second in itertools.combinations(_in_name_order(communities), 2):
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
