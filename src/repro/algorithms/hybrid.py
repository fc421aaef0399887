"""The MinMax-SuperEGO hybrid the paper theorises (Section 6.2).

The paper's experimental conclusion ends with a claim it never builds:

    "even if there was a way SuperEGO to work for numeric
    (non-normalized) data, a combined algorithm MinMax-SuperEGO would be
    faster than SuperEGO itself ... that replaced NestedLoopJoin part is
    notably slower than the encoded nested loop join used in MinMax."

This module implements exactly that combination so the claim can be
evaluated: raw SuperEGO (``use_normalized=False``: the divide-and-conquer
walk and EGO-Strategy pruning on raw integers, with the true
per-dimension condition, so no accuracy is lost) whose leaf cells must
first pass the MinMax *encoded* screen — the Figure 1 window, then the
part/range test, on the ``Encd_B``/``Encd_A`` buffers MinMax memoises
on each community — before the per-dimension test runs on them.

Both variants are provided: ``ap-hybrid`` runs Ap-SuperEGO's first fit
over the leaf hits, ``ex-hybrid`` Ex-SuperEGO's one CSF (or
Hopcroft–Karp) call, so its matching is identical to Ex-Baseline's.
The encoded screen only rejects cells that cannot match, so each hybrid
returns raw SuperEGO's pairs in the same order; the python engine is
raw SuperEGO's recursion, the reference the numpy engine is tested
against.  What the hybrid adds is its event accounting: MIN PRUNE per
pruned node pair, NO OVERLAP per cell the screen rejects, MATCH / NO
MATCH per cell it passes — in both variants.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.encoding import MinMaxEncoder
from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import get_matcher
from ..core.types import Community
from .minmax import parts_inside
from .superego import ApSuperEGO, ExSuperEGO, _SuperEGOBase, _tile_positions

__all__ = ["ApHybrid", "ExHybrid"]


class _Hybrid(_SuperEGOBase):
    """Raw SuperEGO whose leaf cells pass the MinMax screen first."""

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        t: int = 64,
        n_parts: int = 4,
    ) -> None:
        super().__init__(
            epsilon, engine=engine, record_trace=record_trace, t=t, use_normalized=False
        )
        if n_parts < 1:
            raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
        self.n_parts = int(n_parts)

    # Both variants count each tested cell as MATCH or NO MATCH, where
    # Ap-SuperEGO counts only its picks.
    _count = _SuperEGOBase._count

    # The encoded screen compacts each tile before any dimension is
    # tested.
    _tile_dims = 0

    def _encode(self, community_b: Community, community_a: Community) -> dict:
        """Raw SuperEGO's state plus both sides' MinMax buffers, read from
        the memo on each community as MinMax reads them, in EGO order,
        the parts and ranges laid out by part."""
        state = super()._encode(community_b, community_a)
        encoder = MinMaxEncoder(self.epsilon, min(self.n_parts, community_b.n_dims))
        targets = encoder.targets_of(community_b)
        candidates = encoder.candidates_of(community_a)
        # Buffer row k encodes input row real_ids[k], so argsort of
        # real_ids gives each input row's buffer row.
        at_b = np.argsort(targets.real_ids)[state["order_b"]]
        at_a = np.argsort(candidates.real_ids)[state["order_a"]]
        state.update(
            encoded_id=targets.encoded_id[at_b],
            parts=targets.parts[at_b].T.copy(),
            encoded_min=candidates.encoded_min[at_a],
            encoded_max=candidates.encoded_max[at_a],
            range_min=candidates.range_min[at_a].T.copy(),
            range_max=candidates.range_max[at_a].T.copy(),
        )
        return state

    def _collect(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> tuple[dict, np.ndarray, np.ndarray, int]:
        """Raw SuperEGO's leaf hits, counting the screen's NO OVERLAP
        events; the cells tested are those that passed the screen."""
        state, hits_b, hits_a, _ = super()._collect(community_b, community_a, trace)
        trace.emit_bulk(EventType.NO_OVERLAP, state["no_overlap"])
        return state, hits_b, hits_a, state["tested"]

    def _leaf_hits(
        self, state: dict, leaves: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Raw SuperEGO's leaf kernel behind the encoded screen of
        :meth:`_tile_cells`.

        A leaf none of whose cells passes the window counts all of its
        cells as NO OVERLAP; any other leaf counts its cells that pass
        the window but fail the part/range test.
        """
        cells = (leaves[:, 1] - leaves[:, 0]) * (leaves[:, 3] - leaves[:, 2])
        state.update(windowed=np.zeros(cells.size, dtype=bool), no_overlap=0, tested=0)
        yield from super()._leaf_hits(state, leaves)
        state["no_overlap"] += int(cells[~state["windowed"]].sum())

    def _tile_cells(
        self,
        state: dict,
        leaf: np.ndarray,
        rows_b: np.ndarray,
        rows_a: np.ndarray,
        real: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tile's real cells whose encoded ID lies in the window
        ``[encoded_Min, encoded_Max]``, tested on the whole tile, and
        then whose every part lies in its range; no dimension is tested
        yet.  Marks the leaves that hold a window-passing cell."""
        encoded_id = state["encoded_id"][rows_b][:, :, None]
        window = encoded_id >= state["encoded_min"][rows_a][:, None, :]
        window &= encoded_id <= state["encoded_max"][rows_a][:, None, :]
        window &= real
        state["windowed"][leaf[window.any(axis=(1, 2))]] = True
        flat, b_pos, a_pos = _tile_positions(window, rows_b, rows_a)
        b_pos, a_pos = parts_inside(
            state["parts"], state["range_min"], state["range_max"], b_pos, a_pos
        )
        state["no_overlap"] += flat.size - b_pos.size
        state["tested"] += b_pos.size
        return b_pos, a_pos, np.zeros(b_pos.size, dtype=state["columns_b"].dtype)


class ApHybrid(_Hybrid, ApSuperEGO):
    """Approximate hybrid: Ap-SuperEGO's first fit over encoded leaves."""

    name = "ap-hybrid"


class ExHybrid(_Hybrid, ExSuperEGO):
    """Exact hybrid: Ex-SuperEGO's one CSF call over encoded leaves."""

    name = "ex-hybrid"

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
            epsilon, engine=engine, record_trace=record_trace, t=t, n_parts=n_parts
        )
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)
