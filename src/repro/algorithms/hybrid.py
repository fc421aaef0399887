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
from .superego import ego_order, grid_cells

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
        cells_b = grid_cells(vectors_b, self.epsilon)
        cells_a = grid_cells(vectors_a, self.epsilon)
        spread = np.maximum(
            cells_b.max(axis=0) - cells_b.min(axis=0),
            cells_a.max(axis=0) - cells_a.min(axis=0),
        )
        dim_order = np.argsort(-spread, kind="stable")
        order_b = ego_order(cells_b, dim_order)
        order_a = ego_order(cells_a, dim_order)

        encoder = MinMaxEncoder(
            self.epsilon, min(self.n_parts, vectors_b.shape[1])
        )
        parts_b = encoder.part_sums(vectors_b)
        encoded_id = parts_b.sum(axis=1)
        lowered = np.maximum(vectors_a - self.epsilon, 0)
        raised = vectors_a + self.epsilon
        slices = encoder.part_slices(vectors_a.shape[1])
        range_min = np.stack([lowered[:, sl].sum(axis=1) for sl in slices], axis=1)
        range_max = np.stack([raised[:, sl].sum(axis=1) for sl in slices], axis=1)

        return {
            "raw_b": vectors_b[order_b],
            "raw_a": vectors_a[order_a],
            "order_b": order_b,
            "order_a": order_a,
            "encoded_id": encoded_id[order_b],
            "parts_b": parts_b[order_b],
            "range_min": range_min[order_a],
            "range_max": range_max[order_a],
            "encoded_min": range_min[order_a].sum(axis=1),
            "encoded_max": range_max[order_a].sum(axis=1),
        }

    def _ego_strategy_prunes(self, raw_b: np.ndarray, raw_a: np.ndarray) -> bool:
        """Value-space bounding-box gap test (per-dimension condition)."""
        gaps = np.maximum(
            raw_b.min(axis=0) - raw_a.max(axis=0),
            raw_a.min(axis=0) - raw_b.max(axis=0),
        )
        return bool((gaps > self.epsilon).any())

    def _recurse(
        self, state: dict, lo_b: int, hi_b: int, lo_a: int, hi_a: int,
        trace: EventTrace,
    ) -> None:
        if lo_b >= hi_b or lo_a >= hi_a:
            return
        if self._ego_strategy_prunes(
            state["raw_b"][lo_b:hi_b], state["raw_a"][lo_a:hi_a]
        ):
            trace.emit_bulk(EventType.MIN_PRUNE, 1)
            return
        len_b, len_a = hi_b - lo_b, hi_a - lo_a
        if len_b < self.t and len_a < self.t:
            self._leaf_join(state, lo_b, hi_b, lo_a, hi_a, trace)
            return
        if len_b < self.t:
            mid_a = lo_a + len_a // 2
            self._recurse(state, lo_b, hi_b, lo_a, mid_a, trace)
            self._recurse(state, lo_b, hi_b, mid_a, hi_a, trace)
            return
        if len_a < self.t:
            mid_b = lo_b + len_b // 2
            self._recurse(state, lo_b, mid_b, lo_a, hi_a, trace)
            self._recurse(state, mid_b, hi_b, lo_a, hi_a, trace)
            return
        mid_b = lo_b + len_b // 2
        mid_a = lo_a + len_a // 2
        self._recurse(state, lo_b, mid_b, lo_a, mid_a, trace)
        self._recurse(state, lo_b, mid_b, mid_a, hi_a, trace)
        self._recurse(state, mid_b, hi_b, lo_a, mid_a, trace)
        self._recurse(state, mid_b, hi_b, mid_a, hi_a, trace)

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
        block_b = state["raw_b"][lo_b:hi_b]
        block_a = state["raw_a"][lo_a:hi_a]
        pairs: list[tuple[int, int]] = []
        matches = 0
        for i, j in zip(rows.tolist(), cols.tolist()):
            diff = np.abs(block_b[i] - block_a[j])
            if int(diff.max(initial=0)) <= self.epsilon:
                pairs.append((lo_b + i, lo_a + j))
                matches += 1
        trace.emit_bulk(EventType.MATCH, matches)
        trace.emit_bulk(EventType.NO_MATCH, rows.size - matches)
        return pairs

    def _leaf_join(
        self, state: dict, lo_b: int, hi_b: int, lo_a: int, hi_a: int,
        trace: EventTrace,
    ) -> None:
        raise NotImplementedError

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
        state["used_b"] = np.zeros(len(vectors_b), dtype=bool)
        state["used_a"] = np.zeros(len(vectors_a), dtype=bool)
        state["pairs"] = []
        self._recurse(state, 0, len(vectors_b), 0, len(vectors_a), trace)
        order_b, order_a = state["order_b"], state["order_a"]
        return [(int(order_b[i]), int(order_a[j])) for i, j in state["pairs"]]

    def _leaf_join(self, state, lo_b, hi_b, lo_a, hi_a, trace):
        used_b, used_a = state["used_b"], state["used_a"]
        for i, j in self._leaf_candidates(state, lo_b, hi_b, lo_a, hi_a, trace):
            if used_b[i] or used_a[j]:
                continue
            used_b[i] = True
            used_a[j] = True
            state["pairs"].append((i, j))


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
        state["pairs"] = []
        self._recurse(state, 0, len(vectors_b), 0, len(vectors_a), trace)
        order_b, order_a = state["order_b"], state["order_a"]
        raw_pairs = [(int(order_b[i]), int(order_a[j])) for i, j in state["pairs"]]
        if not raw_pairs:
            return []
        matched_b, matched_a = build_adjacency(raw_pairs)
        trace.note(f"CSF over {len(raw_pairs)} candidate pairs")
        return self._matcher(matched_b, matched_a)

    def _leaf_join(self, state, lo_b, hi_b, lo_a, hi_a, trace):
        state["pairs"].extend(
            self._leaf_candidates(state, lo_b, hi_b, lo_a, hi_a, trace)
        )
