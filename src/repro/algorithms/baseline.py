"""The Baseline competitor methods (Section 5.1).

``Ap-Baseline`` is a nested-loop join: for every ``b`` it scans ``A`` in
order and commits to the first user within per-dimension epsilon, then
moves on (first-fit greedy).  ``skip``/``offset`` bookkeeping — here the
offset simply advances over the leading already-matched ``a`` entries —
speeds up the scan exactly as in Ap-MinMax.

``Ex-Baseline`` first materialises *all* matches between ``B`` and ``A``
with a nested loop, then builds the four structures ``matched_B``,
``matched_A``, ``sortedM_B``, ``sortedM_A`` and calls the CSF function
once (Section 5.1), i.e. it solves the same join without any encoding-
based pruning.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import (
    build_adjacency,
    candidate_edges,
    get_matcher,
    linf_match,
    linf_match_mask,
    match_edges,
)
from .base import CSJAlgorithm, Picks

__all__ = ["ApBaseline", "ExBaseline"]


class ApBaseline(CSJAlgorithm):
    """Approximate Baseline: first-fit greedy nested-loop join."""

    name = "ap-baseline"
    exact = False

    def _join_python(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        n_b, n_a = len(vectors_b), len(vectors_a)
        used_a = np.zeros(n_a, dtype=bool)
        offset = 0
        pairs: list[tuple[int, int]] = []
        for b_index in range(n_b):
            while offset < n_a and used_a[offset]:
                offset += 1
            for a_index in range(offset, n_a):
                if used_a[a_index]:
                    continue
                if linf_match(vectors_b[b_index], vectors_a[a_index], self.epsilon):
                    trace.emit(
                        EventType.MATCH, f"b{b_index + 1}", f"a{a_index + 1}"
                    )
                    pairs.append((b_index, a_index))
                    used_a[a_index] = True
                    break
                trace.emit(EventType.NO_MATCH, f"b{b_index + 1}", f"a{a_index + 1}")
        return pairs

    def _join_numpy(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> Picks:
        n_a = len(vectors_a)
        used_a = np.zeros(n_a, dtype=bool)
        offset = 0
        # Per b, the a it took (-1: none).
        picked = np.full(len(vectors_b), -1)
        for b_index, vector_b in enumerate(vectors_b):
            while offset < n_a and used_a[offset]:
                offset += 1
            mask = linf_match_mask(vector_b, vectors_a, self.epsilon)
            mask &= ~used_a
            candidates = np.flatnonzero(mask)
            if candidates.size:
                a_index = int(candidates[0])
                # The python engine scans free slots in order and fails
                # on every free a before the first fit.
                trace.emit_bulk(
                    EventType.NO_MATCH, int(np.count_nonzero(~used_a[offset:a_index]))
                )
                used_a[a_index] = True
                picked[b_index] = a_index
                trace.emit_bulk(EventType.MATCH, 1)
            else:
                trace.emit_bulk(
                    EventType.NO_MATCH, int(np.count_nonzero(~used_a[offset:]))
                )
        chosen = np.flatnonzero(picked >= 0)
        return chosen, picked[chosen]


class ExBaseline(CSJAlgorithm):
    """Exact Baseline: full nested-loop join followed by one CSF call."""

    name = "ex-baseline"
    exact = True

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        matcher: str = "csf",
        block_size: int = 512,
    ) -> None:
        super().__init__(epsilon, engine=engine, record_trace=record_trace)
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def _join_python(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        raw_pairs: list[tuple[int, int]] = []
        for b_index in range(len(vectors_b)):
            for a_index in range(len(vectors_a)):
                if linf_match(vectors_b[b_index], vectors_a[a_index], self.epsilon):
                    trace.emit(
                        EventType.MATCH, f"b{b_index + 1}", f"a{a_index + 1}"
                    )
                    raw_pairs.append((b_index, a_index))
                else:
                    trace.emit(
                        EventType.NO_MATCH, f"b{b_index + 1}", f"a{a_index + 1}"
                    )
        return self._select(raw_pairs, trace)

    def _join_numpy(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> Picks:
        with trace.stage("enumerate"):
            rows_b, rows_a = candidate_edges(
                vectors_b,
                vectors_a,
                self.epsilon,
                block_size=self.block_size,
                metrics=trace.metrics,
            )
        trace.emit_bulk(EventType.MATCH, rows_b.size)
        trace.emit_bulk(EventType.NO_MATCH, len(vectors_b) * len(vectors_a) - rows_b.size)
        if not rows_b.size:
            return rows_b, rows_a
        with trace.stage("matching"):
            return match_edges(rows_b, rows_a, self.matcher_name)

    def _select(
        self, raw_pairs: list[tuple[int, int]], trace: EventTrace
    ) -> list[tuple[int, int]]:
        """Build matched_B / matched_A and call the matcher once."""
        if not raw_pairs:
            return []
        with trace.stage("matching"):
            matched_b, matched_a = build_adjacency(raw_pairs)
            trace.note(f"CSF over {len(raw_pairs)} candidate pairs")
            return self._matcher(matched_b, matched_a)
