"""The MinMax methods (Section 4) — the paper's primary contribution.

Both variants encode community ``B`` into the sorted ``Encd_B`` buffer
(encoded ID + part sums) and community ``A`` into the sorted ``Encd_A``
buffer (encoded Min/Max + part ranges), then pair entries with a
double loop that exploits the sort orders:

* ``MIN PRUNE`` — once ``eB.encd_ID < eA.encd_Min`` no later ``eA`` can
  match either (``Encd_A`` ascends on ``encd_Min``), so the scan for the
  current ``b`` stops;
* ``MAX PRUNE`` — while ``skip`` is still active, every leading ``eA``
  with ``encd_Max < eB.encd_ID`` can be skipped for *all* later ``b``
  too (``Encd_B`` ascends on ``encd_ID``), operated via ``offset``;
* ``NO OVERLAP`` — the cheap part/range test fails, skipping the full
  d-dimensional comparison.

``Ap-MinMax`` (Algorithm Ap-MinMax) commits to the first match per ``b``.
``Ex-MinMax`` (Algorithm Ex-MinMax) instead records *all* matches of the
current ``b`` and tracks ``maxV`` — the largest ``encoded_Max`` among the
matched ``a``'s.  When the current ``b`` is min-pruned and the *next*
``b``'s encoded ID exceeds ``maxV``, no future user can touch the
accumulated matches (a segment boundary), so the CSF function is called
on the segment and the structures reset.  Segments are vertex-disjoint
unions of connected components of the candidate graph, which is why
per-segment CSF selects exactly the same pairs as one global CSF call —
the cross-method tests assert this equality against Ex-Baseline.

The numpy engines replace the double loop with one vectorised band pass
per join (``_MinMaxBase._band``) that finds the same candidates in the
same order, so both engines return identical matchings.

Both buffers are fetched once per join, in ``_MinMaxBase._join``, from
the memo on each community (:meth:`MinMaxEncoder.targets_of` and
:meth:`MinMaxEncoder.candidates_of`), so the engines receive them ready.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.encoding import EncodedCandidates, EncodedTargets, MinMaxEncoder
from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import build_adjacency, get_matcher, linf_match
from ..core.types import Community
from .base import CSJAlgorithm

__all__ = ["ApMinMax", "ExMinMax"]

#: Most ``(b, a)`` band pairs the numpy engines expand at once, which
#: bounds a join's working memory at about this many d-vectors.
_BAND_BLOCK_PAIRS = 4096


class _MinMaxBase(CSJAlgorithm):
    """Shared construction and helpers for both MinMax variants."""

    def __init__(
        self,
        epsilon: int,
        *,
        n_parts: int = 4,
        engine: str = "numpy",
        record_trace: bool = False,
    ) -> None:
        super().__init__(epsilon, engine=engine, record_trace=record_trace)
        if n_parts < 1:
            raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
        self.n_parts = int(n_parts)

    def _encoder(self, n_dims: int) -> MinMaxEncoder:
        # The paper fixes 4 parts for d = 27; for lower-dimensional data
        # the segmentation degrades gracefully to at most one part per
        # dimension.
        return MinMaxEncoder(self.epsilon, min(self.n_parts, n_dims))

    def _join(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> list[tuple[int, int]]:
        with trace.stage("encode"):
            encoder = self._encoder(community_b.n_dims)
            targets = encoder.targets_of(community_b)
            candidates = encoder.candidates_of(community_a)
        engine = self._join_python if self.engine == "python" else self._join_numpy
        return engine(
            targets, candidates, community_b.vectors, community_a.vectors, trace
        )

    def _band(
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The part/range survivors of the sort-merge band, block by block.

        Every window is at most ``2·d·ε`` wide, so the ``a`` whose window
        can hold ``b``'s ID form one ``Encd_A`` slice, ``encoded_Min`` in
        ``[ID - widest window, ID]``.  The slices of consecutive ``b`` are
        expanded into ``(b, a)`` pairs in blocks of at most
        ``_BAND_BLOCK_PAIRS`` (one wider row is its own block).  Parts
        inside their ranges sum to an ID inside ``[encoded_Min,
        encoded_Max]``, so the window's upper edge needs no test: the
        part/range test runs one part at a time on the previous part's
        survivors.  Yields ``(b_pos, a_pos, full)`` per non-empty block:
        the survivors' ``Encd_B`` and ``Encd_A`` positions, in ``b`` then
        ``a`` order as the paper's scan visits them, and their full
        d-dimensional test outcomes.
        """
        encoded_id = targets.encoded_id
        widest = int((candidates.encoded_max - candidates.encoded_min).max(initial=0))
        lo = np.searchsorted(candidates.encoded_min, encoded_id - widest, side="left")
        counts = np.searchsorted(candidates.encoded_min, encoded_id, side="right") - lo
        ends = np.cumsum(counts)
        part_sums = targets.parts.T.copy()
        range_min = candidates.range_min.T.copy()
        range_max = candidates.range_max.T.copy()
        start = 0
        while start < targets.n_users:
            base = int(ends[start] - counts[start])
            stop = max(
                int(np.searchsorted(ends, base + _BAND_BLOCK_PAIRS, side="right")),
                start + 1,
            )
            rows = counts[start:stop]
            # Pair k of row b is a = lo[b] + k - (the row's first pair).
            b_pos = np.repeat(np.arange(start, stop), rows)
            a_pos = np.arange(int(ends[stop - 1]) - base) + np.repeat(
                lo[start:stop] - (ends[start:stop] - rows - base), rows
            )
            start = stop
            for part, low, high in zip(part_sums, range_min, range_max):
                inside = part[b_pos]
                inside = (inside >= low[a_pos]) & (inside <= high[a_pos])
                b_pos, a_pos = b_pos[inside], a_pos[inside]
            if b_pos.size == 0:
                continue
            diff = np.abs(
                vectors_a[candidates.real_ids[a_pos]]
                - vectors_b[targets.real_ids[b_pos]]
            )
            yield b_pos, a_pos, (diff <= self.epsilon).all(axis=1)


class ApMinMax(_MinMaxBase):
    """Approximate MinMax (Algorithm Ap-MinMax)."""

    name = "ap-minmax"
    exact = False

    # ------------------------------------------------------------------
    # faithful reference engine
    # ------------------------------------------------------------------
    def _join_python(  # type: ignore[override]
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
        trace: EventTrace,
    ) -> list[tuple[int, int]]:
        n_a = candidates.n_users
        used = np.zeros(n_a, dtype=bool)
        offset = 0
        pairs: list[tuple[int, int]] = []
        for i in range(targets.n_users):
            while offset < n_a and used[offset]:
                offset += 1
            encoded_id = int(targets.encoded_id[i])
            b_label = targets.entry_label(i)
            skip = True
            j = offset
            while j < n_a:
                if used[j]:
                    j += 1
                    continue
                a_label = candidates.entry_label(j)
                if encoded_id < candidates.encoded_min[j]:
                    trace.emit(EventType.MIN_PRUNE, b_label, a_label)
                    break
                if encoded_id <= candidates.encoded_max[j]:
                    skip = False
                    if not MinMaxEncoder.parts_overlap(
                        targets.parts[i],
                        candidates.range_min[j],
                        candidates.range_max[j],
                    ):
                        trace.emit(EventType.NO_OVERLAP, b_label, a_label)
                        j += 1
                        continue
                    b_real = int(targets.real_ids[i])
                    a_real = int(candidates.real_ids[j])
                    if linf_match(vectors_b[b_real], vectors_a[a_real], self.epsilon):
                        trace.emit(EventType.MATCH, b_label, a_label)
                        pairs.append((b_real, a_real))
                        used[j] = True
                        break
                    trace.emit(EventType.NO_MATCH, b_label, a_label)
                    j += 1
                    continue
                # encoded_id > encoded_Max: this a can never match a later
                # (larger) b either, but only while skip is still active
                # may the global offset advance past it.
                if skip:
                    trace.emit(EventType.MAX_PRUNE, b_label, a_label)
                    offset = j + 1
                j += 1
        return pairs

    # ------------------------------------------------------------------
    # vectorised engine (identical matching)
    # ------------------------------------------------------------------
    def _join_numpy(  # type: ignore[override]
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
        trace: EventTrace,
    ) -> list[tuple[int, int]]:
        n_b, n_a = targets.n_users, candidates.n_users
        # Per b, the a position it took (n_a: none); per a, the b that
        # took it (n_b: still free).
        picked = np.full(n_b, n_a)
        taken_by = np.full(n_a, n_b)
        no_match = 0
        for b_pos, a_pos, full in self._band(targets, candidates, vectors_b, vectors_a):
            # First fit: each b takes its first hit in a order that is
            # still free, then skips the rest of its row.
            hit_b, hit_a = b_pos[full], a_pos[full]
            free = taken_by[hit_a] == n_b
            hit_b, hit_a = hit_b[free], hit_a[free]
            row_end = np.searchsorted(hit_b, hit_b, side="right").tolist()
            hit_b, hit_a = hit_b.tolist(), hit_a.tolist()
            rows: list[int] = []
            columns: list[int] = []
            taken: set[int] = set()
            k = 0
            while k < len(hit_a):
                if hit_a[k] in taken:
                    k += 1
                    continue
                taken.add(hit_a[k])
                rows.append(hit_b[k])
                columns.append(hit_a[k])
                k = row_end[k]
            picked[rows] = columns
            taken_by[columns] = rows
            # NO MATCH: the survivors a b scanned before its pick (or all
            # of them), skipping the ones an earlier b had taken.
            no_match += int(
                np.count_nonzero(
                    ~full & (a_pos < picked[b_pos]) & (taken_by[a_pos] > b_pos)
                )
            )
        chosen = np.flatnonzero(picked < n_a)
        trace.emit_bulk(EventType.MATCH, chosen.size)
        trace.emit_bulk(EventType.NO_MATCH, no_match)
        return list(
            zip(
                targets.real_ids[chosen].tolist(),
                candidates.real_ids[picked[chosen]].tolist(),
            )
        )


class ExMinMax(_MinMaxBase):
    """Exact MinMax (Algorithm Ex-MinMax) with maxV segmentation."""

    name = "ex-minmax"
    exact = True

    def __init__(
        self,
        epsilon: int,
        *,
        n_parts: int = 4,
        engine: str = "numpy",
        record_trace: bool = False,
        matcher: str = "csf",
    ) -> None:
        super().__init__(
            epsilon, n_parts=n_parts, engine=engine, record_trace=record_trace
        )
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)

    # ------------------------------------------------------------------
    # faithful reference engine
    # ------------------------------------------------------------------
    def _join_python(  # type: ignore[override]
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
        trace: EventTrace,
    ) -> list[tuple[int, int]]:
        n_a = candidates.n_users
        matched_b: dict[int, set[int]] = {}
        matched_a: dict[int, set[int]] = {}
        offset = 0
        max_v = 0
        pairs: list[tuple[int, int]] = []

        def flush_segment() -> None:
            nonlocal matched_b, matched_a, max_v
            if matched_b:
                segment_pairs = self._matcher(matched_b, matched_a)
                trace.note(
                    "CSF("
                    + ", ".join(
                        f"<b{b + 1}, a{a + 1}>"
                        for b in sorted(matched_b)
                        for a in sorted(matched_b[b])
                    )
                    + ")"
                )
                pairs.extend(segment_pairs)
            matched_b, matched_a = {}, {}
            max_v = 0

        for i in range(targets.n_users):
            encoded_id = int(targets.encoded_id[i])
            b_label = targets.entry_label(i)
            skip = True
            j = offset
            while j < n_a:
                a_label = candidates.entry_label(j)
                if encoded_id < candidates.encoded_min[j]:
                    trace.emit(EventType.MIN_PRUNE, b_label, a_label)
                    next_id = (
                        int(targets.encoded_id[i + 1])
                        if i + 1 < targets.n_users
                        else None
                    )
                    if next_id is None or next_id > max_v:
                        # MAX PRUNE applies to every match of the current
                        # segment: no later b can reach them.
                        flush_segment()
                    break
                if encoded_id <= candidates.encoded_max[j]:
                    skip = False
                    if not MinMaxEncoder.parts_overlap(
                        targets.parts[i],
                        candidates.range_min[j],
                        candidates.range_max[j],
                    ):
                        trace.emit(EventType.NO_OVERLAP, b_label, a_label)
                        j += 1
                        continue
                    b_real = int(targets.real_ids[i])
                    a_real = int(candidates.real_ids[j])
                    if linf_match(vectors_b[b_real], vectors_a[a_real], self.epsilon):
                        matched_b.setdefault(b_real, set()).add(a_real)
                        matched_a.setdefault(a_real, set()).add(b_real)
                        if candidates.encoded_max[j] > max_v:
                            max_v = int(candidates.encoded_max[j])
                        trace.emit(
                            EventType.MATCH, b_label, a_label, f"maxV = {max_v}"
                        )
                    else:
                        trace.emit(EventType.NO_MATCH, b_label, a_label)
                    j += 1
                    continue
                if skip:
                    trace.emit(EventType.MAX_PRUNE, b_label, a_label)
                    offset = j + 1
                j += 1
            else:
                # The scan exhausted Encd_A without a MIN PRUNE; the
                # same safety test applies (Figure 3, instance 4): once
                # the next b overshoots maxV, the segment is closed.
                next_id = (
                    int(targets.encoded_id[i + 1])
                    if i + 1 < targets.n_users
                    else None
                )
                if next_id is None or next_id > max_v:
                    flush_segment()
        # Whatever accumulated without hitting a safe boundary is
        # flushed at the end.
        flush_segment()
        return pairs

    # ------------------------------------------------------------------
    # vectorised engine (identical matching via one global CSF)
    # ------------------------------------------------------------------
    def _join_numpy(  # type: ignore[override]
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
        trace: EventTrace,
    ) -> list[tuple[int, int]]:
        hits_b: list[np.ndarray] = []
        hits_a: list[np.ndarray] = []
        examined = 0
        for b_pos, a_pos, full in self._band(targets, candidates, vectors_b, vectors_a):
            examined += full.size
            hits_b.append(b_pos[full])
            hits_a.append(a_pos[full])
        matched = sum(hits.size for hits in hits_b)
        trace.emit_bulk(EventType.MATCH, matched)
        trace.emit_bulk(EventType.NO_MATCH, examined - matched)
        if not matched:
            return []
        raw_pairs = zip(
            targets.real_ids[np.concatenate(hits_b)].tolist(),
            candidates.real_ids[np.concatenate(hits_a)].tolist(),
        )
        with trace.stage("matching"):
            matched_b, matched_a = build_adjacency(raw_pairs)
            return self._matcher(matched_b, matched_a)
