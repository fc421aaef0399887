"""Common driver shared by every CSJ algorithm.

:class:`CSJAlgorithm` owns the cross-cutting concerns — input
validation, the ``B``/``A`` orientation convention, wall-clock timing,
event tracing and result packaging — so the concrete algorithms
(baseline, MinMax, SuperEGO) only implement the pairing itself.

Every algorithm offers two engines:

``python``
    A faithful, line-by-line transcription of the paper's pseudo-code.
    It emits all five pairing events and can record full Figure 2/3-style
    traces.  Intended for study, testing and small inputs.
``numpy``
    A vectorised implementation that returns the *same* matching (the
    tests assert this) but runs orders of magnitude faster.  Bulk pruning
    means only NO MATCH / MATCH events are counted.
"""

from __future__ import annotations

import abc
import copy
import time
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.events import EventTrace
from ..core.types import Community, CSJResult, EventCounts, community_envelope, pairs_from_tuples
from ..core.validation import validate_epsilon, validate_pair

__all__ = ["CSJAlgorithm", "ENGINES"]

ENGINES = ("python", "numpy")

#: An engine's matching: ``(pairs_b, pairs_a)`` id arrays that the
#: engine owns, as every numpy engine returns, or ``(b, a)`` tuples.
Picks = tuple[np.ndarray, np.ndarray] | list[tuple[int, int]]


def largest_counter(community_b: Community, community_a: Community) -> int:
    """The largest counter of a pair, read from its memoised envelopes."""
    return max(community_envelope(community_b).largest, community_envelope(community_a).largest)


class CSJAlgorithm(abc.ABC):
    """Abstract base of the six CSJ methods.

    Parameters
    ----------
    epsilon:
        Per-dimension absolute-difference threshold (kept minimal in
        practice: 1 for the VK dataset, 15000 for the Synthetic one).
    engine:
        ``"python"`` (faithful reference) or ``"numpy"`` (vectorised).
    record_trace:
        When true, the python engine records every pairing event; the
        trace of the last join is available as :attr:`last_trace`.

    Attributes
    ----------
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        set (by the batch engine or directly), every join mirrors its
        pairing events into the registry, times its stages, and stamps
        the per-stage wall times onto the result's ``stage_seconds``.
        ``None`` (the default) keeps the join on the uninstrumented
        fast path.
    """

    #: registry name, e.g. ``"ap-minmax"`` — set by subclasses.
    name: str = ""
    #: whether the method computes the maximum-matching similarity.
    exact: bool = False
    #: observability registry; assign to enable instrumentation.
    metrics = None

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
    ) -> None:
        self.epsilon = validate_epsilon(epsilon)
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
            )
        self.engine = engine
        self.record_trace = bool(record_trace)
        self.last_trace: EventTrace | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def join(
        self,
        first: Community,
        second: Community,
        *,
        auto_orient: bool = True,
        enforce_size_ratio: bool = True,
    ) -> CSJResult:
        """Run the CSJ join and return a :class:`CSJResult`.

        Inputs may be passed in either order; with ``auto_orient`` the
        smaller community takes the paper's ``B`` role and the result's
        ``swapped`` flag records a reversal.  Matched pair indices always
        refer to the oriented ``(B, A)`` pair.
        """
        metrics = self.metrics
        trace = EventTrace(
            record=self.record_trace and self.engine == "python",
            metrics=metrics,
        )
        with trace.stage("join"):
            with trace.stage("validate"):
                community_b, community_a, swapped = validate_pair(
                    first,
                    second,
                    auto_orient=auto_orient,
                    enforce_size_ratio=enforce_size_ratio,
                )
                kernel = self._bounded(community_b, community_a)
            started = time.perf_counter()
            with trace.stage("pairing"):
                picks = kernel._join(community_b, community_a, trace)
            elapsed = time.perf_counter() - started
        self.last_trace = trace
        return self._result(
            community_b,
            community_a,
            swapped,
            picks,
            trace.counts,
            elapsed,
            trace.stage_seconds,
        )

    def join_many(
        self,
        pairs: Sequence[tuple[Community, Community]],
        *,
        enforce_size_ratio: bool = True,
    ) -> list[CSJResult]:
        """Join every ``(first, second)`` of ``pairs``; results in input order.

        Each result equals what ``join(first, second)`` returns, timings
        aside.  Here it is a plain loop over :meth:`join`; the MinMax
        numpy engines override it to pair the whole batch in one band
        pass.
        """
        return [
            self.join(first, second, enforce_size_ratio=enforce_size_ratio)
            for first, second in pairs
        ]

    def similarity(self, first: Community, second: Community, **kwargs: object) -> float:
        """Convenience wrapper returning only the Eq. (1) fraction."""
        return self.join(first, second, **kwargs).similarity  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # engine dispatch
    # ------------------------------------------------------------------
    def _result(
        self,
        community_b: Community,
        community_a: Community,
        swapped: bool,
        picks: Picks,
        events: EventCounts,
        elapsed: float,
        stage_seconds: dict[str, float],
    ) -> CSJResult:
        """Package one oriented pair's matching, counting the join in
        :attr:`metrics` when a registry is attached.

        Picks given as arrays become the result's, frozen in place; a
        tuple list is converted here.
        """
        if isinstance(picks, list):
            pairs_b, pairs_a = pairs_from_tuples(picks)
        else:
            pairs_b, pairs_a = picks
            pairs_b.setflags(write=False)
            pairs_a.setflags(write=False)
        if self.metrics is not None:
            self.metrics.inc(
                "repro_algo_joins_total", 1, method=self.name, engine=self.engine
            )
            self.metrics.observe("repro_algo_join_seconds", elapsed, method=self.name)
        return CSJResult(
            method=self.name,
            exact=self.exact,
            size_b=community_b.n_users,
            size_a=community_a.n_users,
            epsilon=self.epsilon,
            pairs_b=pairs_b,
            pairs_a=pairs_a,
            events=events,
            elapsed_seconds=elapsed,
            engine=self.engine,
            swapped=swapped,
            stage_seconds=stage_seconds,
        )

    def _bounded(self, community_b: Community, community_a: Community) -> "CSJAlgorithm":
        """This algorithm, or a copy whose epsilon is the pair's largest
        counter + 1 where the caller's is larger.

        Counters are non-negative, so any epsilon above the largest
        counter admits every pair on every dimension: the copy pairs
        exactly as ``self`` would, while every kernel's ``counter +
        epsilon`` sums stay inside int64.  The result keeps the caller's
        epsilon.  The largest counters come from the memoised envelopes.
        """
        bound = 1 + largest_counter(community_b, community_a)
        if self.epsilon <= bound:
            return self
        kernel = copy.copy(self)
        kernel.epsilon = bound
        return kernel

    def _join(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        """Pair the oriented communities with the configured engine.

        MinMax overrides this hook to hand its engines the memoised
        encodings; every other method pairs the raw vectors.
        """
        engine = self._join_python if self.engine == "python" else self._join_numpy
        return engine(community_b.vectors, community_a.vectors, trace)

    @abc.abstractmethod
    def _join_python(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> Picks:
        """Faithful reference engine; must emit pairing events."""

    @abc.abstractmethod
    def _join_numpy(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> Picks:
        """Vectorised engine returning the identical matching."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon}, engine={self.engine!r})"
        )
