"""The MinMax-SuperEGO hybrid the paper theorises (Section 6.2).

The paper's experimental conclusion ends with a claim it never builds:

    "even if there was a way SuperEGO to work for numeric
    (non-normalized) data, a combined algorithm MinMax-SuperEGO would be
    faster than SuperEGO itself ... that replaced NestedLoopJoin part is
    notably slower than the encoded nested loop join used in MinMax."

This module implements exactly that combination so the claim can be
evaluated: the divide-and-conquer skeleton and EGO-Strategy pruning of
(raw, per-dimension) SuperEGO, with every leaf's nested loop replaced by
the MinMax *encoded* join — the Figure 1 window and part/range filters,
computed once globally and sliced per leaf.

Both variants are provided: ``ap-hybrid`` commits first-fit like
Ap-MinMax, ``ex-hybrid`` collects all leaf candidates and runs one CSF
(or Hopcroft–Karp) call, so its matching is identical to Ex-Baseline's.
The hybrid operates on raw integers with the true per-dimension
condition throughout — no normalisation, no accuracy loss.
"""

from __future__ import annotations

import numpy as np

from ..core.encoding import MinMaxEncoder
from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import build_adjacency, get_matcher
from .base import CSJAlgorithm
from .superego import ego_sort, ego_walk

__all__ = ["ApHybrid", "ExHybrid"]


class _HybridBase(CSJAlgorithm):
    """SuperEGO recursion + MinMax-encoded leaves (raw integers)."""

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        t: int = 64,
        n_parts: int = 4,
    ) -> None:
        super().__init__(epsilon, engine=engine, record_trace=record_trace)
        if t < 2:
            raise ConfigurationError(f"threshold t must be >= 2, got {t}")
        if n_parts < 1:
            raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
        self.t = int(t)
        self.n_parts = int(n_parts)

    # ------------------------------------------------------------------
    def _prepare(self, vectors_b: np.ndarray, vectors_a: np.ndarray) -> dict:
        """EGO-sort both sides and attach the global MinMax encoding.

        The encoded arrays are computed once over the full inputs and
        permuted into EGO order, so every leaf slices them for free.
        """
        order_b, order_a, _ = ego_sort(vectors_b, vectors_a, self.epsilon)
        encoder = MinMaxEncoder(
            self.epsilon, min(self.n_parts, vectors_b.shape[1])
        )
        targets = encoder.encode_targets(vectors_b)
        candidates = encoder.encode_candidates(vectors_a)
        # Buffer row k encodes original row real_ids[k], so argsort of
        # real_ids gives each original row's buffer row.
        at_b = np.argsort(targets.real_ids)[order_b]
        at_a = np.argsort(candidates.real_ids)[order_a]
        return {
            "raw_b": vectors_b[order_b],
            "raw_a": vectors_a[order_a],
            "order_b": order_b,
            "order_a": order_a,
            "encoded_id": targets.encoded_id[at_b],
            "parts_b": targets.parts[at_b],
            "range_min": candidates.range_min[at_a],
            "range_max": candidates.range_max[at_a],
            "encoded_min": candidates.encoded_min[at_a],
            "encoded_max": candidates.encoded_max[at_a],
        }

    def _leaves(self, state: dict, trace: EventTrace) -> list[list[int]]:
        """Raw SuperEGO's surviving leaves, in its depth-first order."""
        leaves, pruned = ego_walk(
            state["raw_b"], state["raw_a"], self.t, self.epsilon, aggregate=False
        )
        trace.emit_bulk(EventType.MIN_PRUNE, pruned)
        return leaves.tolist()

    def _leaf_candidates(
        self, state: dict, lo_b: int, hi_b: int, lo_a: int, hi_a: int,
        trace: EventTrace,
    ) -> list[tuple[int, int]]:
        """The encoded nested loop join of one leaf rectangle.

        Applies the window test (encoded ID within [Min, Max]), then the
        part/range overlap test, and only then the full d-dimensional
        comparison — the MinMax pipeline, restricted to the leaf.
        Returns EGO-order index pairs.
        """
        encoded_id = state["encoded_id"][lo_b:hi_b]
        encoded_min = state["encoded_min"][lo_a:hi_a]
        encoded_max = state["encoded_max"][lo_a:hi_a]
        window = (encoded_id[:, None] >= encoded_min[None, :]) & (
            encoded_id[:, None] <= encoded_max[None, :]
        )
        if not window.any():
            trace.emit_bulk(EventType.NO_OVERLAP, int(window.size))
            return []
        parts_b = state["parts_b"][lo_b:hi_b]
        range_min = state["range_min"][lo_a:hi_a]
        range_max = state["range_max"][lo_a:hi_a]
        overlap = (
            (parts_b[:, None, :] >= range_min[None, :, :])
            & (parts_b[:, None, :] <= range_max[None, :, :])
        ).all(axis=2)
        survivors = window & overlap
        trace.emit_bulk(EventType.NO_OVERLAP, int(window.sum() - survivors.sum()))
        rows, cols = np.nonzero(survivors)
        if rows.size == 0:
            return []
        rows += lo_b
        cols += lo_a
        full = (
            np.abs(state["raw_b"][rows] - state["raw_a"][cols]) <= self.epsilon
        ).all(axis=1)
        matches = int(np.count_nonzero(full))
        trace.emit_bulk(EventType.MATCH, matches)
        trace.emit_bulk(EventType.NO_MATCH, rows.size - matches)
        return list(zip(rows[full].tolist(), cols[full].tolist()))

    # Engines share the implementation (the leaf filters are already
    # vectorised; a pure-python replica would add nothing but time).
    def _join_python(self, vectors_b, vectors_a, trace):
        return self._join_common(vectors_b, vectors_a, trace)

    def _join_numpy(self, vectors_b, vectors_a, trace):
        return self._join_common(vectors_b, vectors_a, trace)

    def _join_common(self, vectors_b, vectors_a, trace):
        raise NotImplementedError


class ApHybrid(_HybridBase):
    """Approximate hybrid: first-fit greedy over encoded leaves."""

    name = "ap-hybrid"
    exact = False

    def _join_common(self, vectors_b, vectors_a, trace):
        state = self._prepare(vectors_b, vectors_a)
        used_b = np.zeros(len(vectors_b), dtype=bool)
        used_a = np.zeros(len(vectors_a), dtype=bool)
        pairs = []
        for leaf in self._leaves(state, trace):
            for i, j in self._leaf_candidates(state, *leaf, trace):
                if used_b[i] or used_a[j]:
                    continue
                used_b[i] = True
                used_a[j] = True
                pairs.append((i, j))
        order_b, order_a = state["order_b"], state["order_a"]
        return [(int(order_b[i]), int(order_a[j])) for i, j in pairs]


class ExHybrid(_HybridBase):
    """Exact hybrid: collect all encoded-leaf candidates, one CSF call."""

    name = "ex-hybrid"
    exact = True

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        t: int = 64,
        n_parts: int = 4,
        matcher: str = "csf",
    ) -> None:
        super().__init__(
            epsilon,
            engine=engine,
            record_trace=record_trace,
            t=t,
            n_parts=n_parts,
        )
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)

    def _join_common(self, vectors_b, vectors_a, trace):
        state = self._prepare(vectors_b, vectors_a)
        pairs = [
            pair
            for leaf in self._leaves(state, trace)
            for pair in self._leaf_candidates(state, *leaf, trace)
        ]
        order_b, order_a = state["order_b"], state["order_a"]
        raw_pairs = [(int(order_b[i]), int(order_a[j])) for i, j in pairs]
        if not raw_pairs:
            return []
        matched_b, matched_a = build_adjacency(raw_pairs)
        trace.note(f"CSF over {len(raw_pairs)} candidate pairs")
        return self._matcher(matched_b, matched_a)
