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
(``_Band``) that finds the same candidates in the same order, so both
engines return identical matchings.  The pass runs over a batch of
oriented pairs laid end to end (:meth:`_MinMaxBase.join_many`); a
single join is a batch of one.

Both buffers are fetched from the memo on each community
(:meth:`MinMaxEncoder.targets_of` and
:meth:`MinMaxEncoder.candidates_of`) in the ``encode`` stage, so the
engines receive them ready.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Iterator, Sequence

import numpy as np

from ..core.encoding import EncodedCandidates, EncodedTargets, MinMaxEncoder
from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import get_matcher, linf_match, match_edges
from ..core.types import Community, CSJResult, EventCounts
from ..core.validation import validate_pair
from .base import CSJAlgorithm

__all__ = ["ApMinMax", "ExMinMax"]

#: Most ``(b, a)`` band pairs the numpy engines expand at once, which
#: bounds a band's working memory at about this many d-vectors.
_BAND_BLOCK_PAIRS = 4096

#: Most users (``|B| + |A|`` summed over its pairs) one band lays out;
#: a larger batch runs as several bands, which bounds the layout's
#: memory near a mid-size join's.  A larger pair is a band of its own.
_BAND_USERS = 1024

_INT64_MAX = int(np.iinfo(np.int64).max)

#: One pair's numpy-engine outcome: its matching and its events.
_Paired = tuple[list[tuple[int, int]], EventCounts]


def _end_to_end(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` concatenated; a lone array is returned uncopied."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


def _by_part(arrays: list[np.ndarray]) -> np.ndarray:
    """``(n_k, p)`` part arrays as one contiguous ``(p, sum n_k)`` array."""
    if len(arrays) == 1:
        return arrays[0].T.copy()
    return np.concatenate([array.T for array in arrays], axis=1)


def parts_inside(
    parts: np.ndarray,
    range_min: np.ndarray,
    range_max: np.ndarray,
    b_pos: np.ndarray,
    a_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(b_pos, a_pos)`` cells each of whose part sums lies inside
    its range, in order; the by-part ``(p, n)`` arrays are tested one
    part at a time on the previous part's survivors."""
    for part, low, high in zip(parts, range_min, range_max):
        inside = part[b_pos]
        inside = (inside >= low[a_pos]) & (inside <= high[a_pos])
        b_pos, a_pos = b_pos[inside], a_pos[inside]
    return b_pos, a_pos


class _Band:
    """The oriented pairs of one batch laid end to end, and their band pass.

    Pair ``k``'s ``Encd_B`` entries take the global positions
    ``b_start[k]:b_start[k + 1]`` and its ``Encd_A`` entries
    ``a_start[k]:a_start[k + 1]``.  A buffer holds every user of its
    community once, so the stacked vectors of ``B`` and ``A`` start at
    the same offsets.  Pairs are disjoint on both sides, so a global
    position names one user of one pair, and every per-pair step of a
    single join (windows, first fit, CSF) runs unchanged on global
    positions.  All pairs share ``d``; each keeps its own capped epsilon.
    """

    def __init__(
        self,
        oriented: Sequence[tuple[Community, Community]],
        epsilons: Sequence[int],
        n_parts: int,
    ) -> None:
        encoders: dict[int, MinMaxEncoder] = {}
        targets: list[EncodedTargets] = []
        candidates: list[EncodedCandidates] = []
        for (community_b, community_a), epsilon in zip(oriented, epsilons):
            encoder = encoders.get(epsilon)
            if encoder is None:
                encoder = encoders[epsilon] = MinMaxEncoder(epsilon, n_parts)
            targets.append(encoder.targets_of(community_b))
            candidates.append(encoder.candidates_of(community_a))
        self.n_pairs = len(targets)
        sizes_b = [buffer.n_users for buffer in targets]
        sizes_a = [buffer.n_users for buffer in candidates]
        self.b_start = np.array([0, *itertools.accumulate(sizes_b)])
        self.a_start = np.array([0, *itertools.accumulate(sizes_a)])
        self.n_b, self.n_a = int(self.b_start[-1]), int(self.a_start[-1])
        self.encoded_id = _end_to_end([buffer.encoded_id for buffer in targets])
        self.parts = _by_part([buffer.parts for buffer in targets])
        self.encoded_min = _end_to_end([buffer.encoded_min for buffer in candidates])
        self.encoded_max = _end_to_end([buffer.encoded_max for buffer in candidates])
        self.range_min = _by_part([buffer.range_min for buffer in candidates])
        self.range_max = _by_part([buffer.range_max for buffer in candidates])
        self.vectors_b = _end_to_end([community_b.vectors for community_b, _ in oriented])
        self.vectors_a = _end_to_end([community_a.vectors for _, community_a in oriented])
        # Each position's user as a global row: its own id plus its
        # pair's offset, so pair k's rows are b_start[k]:b_start[k + 1].
        self.b_rows = _end_to_end([buffer.real_ids for buffer in targets])
        self.a_rows = _end_to_end([buffer.real_ids for buffer in candidates])
        self.epsilon: int | np.ndarray = epsilons[0]
        if self.n_pairs > 1:
            self.b_rows = self.b_rows + np.repeat(self.b_start[:-1], sizes_b)
            self.a_rows = self.a_rows + np.repeat(self.a_start[:-1], sizes_a)
            if len(encoders) > 1:
                self.epsilon = np.repeat(np.array(epsilons, dtype=np.int64), sizes_b)

    @functools.cached_property
    def pair_of_b(self) -> np.ndarray:
        """The pair of each global ``b`` position."""
        return np.repeat(np.arange(self.n_pairs), np.diff(self.b_start))

    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each ``b``'s band: its first ``Encd_A`` position and length.

        Every window of a pair is at most that pair's widest, so the
        ``a`` whose window can hold ``b``'s ID form one slice of its
        pair's ``Encd_A``: ``encoded_Min`` in ``[ID - widest, ID]``.
        To find every slice with one ``searchsorted``, each pair's
        values are shifted to sit just above the previous pair's; a
        pair whose shifted values would pass int64 starts a new run
        with no shift.  A batch of one is never shifted.
        """
        widest = np.maximum.reduceat(
            self.encoded_max - self.encoded_min, self.a_start[:-1]
        )
        keys, high = self.encoded_min, self.encoded_id
        if self.n_pairs == 1:
            low, runs = high - widest, [0, 1]
        else:
            keys, low, high, runs = self._shifted(keys, high - widest[self.pair_of_b], high)
        if len(runs) == 2:
            lo = np.searchsorted(keys, low, side="left")
            return lo, np.searchsorted(keys, high, side="right") - lo
        starts: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for first, stop in zip(runs, runs[1:]):
            b_run = slice(self.b_start[first], self.b_start[stop])
            a_first = self.a_start[first]
            run_keys = keys[a_first : self.a_start[stop]]
            lo = np.searchsorted(run_keys, low[b_run], side="left")
            counts.append(np.searchsorted(run_keys, high[b_run], side="right") - lo)
            starts.append(lo + a_first)
        return np.concatenate(starts), np.concatenate(counts)

    def _shifted(
        self, keys: np.ndarray, low: np.ndarray, high: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """``keys`` and the bands' ``low``/``high`` ends, each pair's
        shifted above the previous pair's, and the pairs that start a
        run (plus ``n_pairs``)."""
        bottoms = np.minimum(low[self.b_start[:-1]], keys[self.a_start[:-1]]).tolist()
        tops = np.maximum(high[self.b_start[1:] - 1], keys[self.a_start[1:] - 1]).tolist()
        runs, shifts = [0], [0]
        top = tops[0]
        for pair, (bottom, pair_top) in enumerate(zip(bottoms[1:], tops[1:]), start=1):
            shift = top + 1 - bottom
            if pair_top + shift > _INT64_MAX:
                runs.append(pair)
                shift = 0
            shifts.append(shift)
            top = pair_top + shift
        shift = np.array(shifts, dtype=np.int64)
        shift_b = shift[self.pair_of_b]
        keys = keys + np.repeat(shift, np.diff(self.a_start))
        return keys, low + shift_b, high + shift_b, runs + [self.n_pairs]

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The part/range survivors of the band, block by block.

        The bands of consecutive ``b`` are expanded into ``(b, a)``
        pairs in blocks of at most ``_BAND_BLOCK_PAIRS`` (one wider row
        is its own block); a block may span pairs.  Parts inside their
        ranges sum to an ID inside ``[encoded_Min, encoded_Max]``, so
        the window's upper edge needs no test: the part/range test runs
        one part at a time on the previous part's survivors.  Yields
        ``(b_pos, a_pos, full)`` per non-empty block: the survivors'
        global positions, in ``b`` then ``a`` order as the paper's scan
        visits them, and their full d-dimensional test outcomes.
        """
        lo, counts = self.windows()
        ends = np.cumsum(counts)
        start = 0
        while start < self.n_b:
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
            b_pos, a_pos = parts_inside(self.parts, self.range_min, self.range_max, b_pos, a_pos)
            if b_pos.size == 0:
                continue
            diff = np.abs(self.vectors_a[self.a_rows[a_pos]] - self.vectors_b[self.b_rows[b_pos]])
            epsilon = self.epsilon
            if isinstance(epsilon, np.ndarray):
                epsilon = epsilon[b_pos, None]
            yield b_pos, a_pos, (diff <= epsilon).all(axis=1)

    def per_pair(self, positions: np.ndarray) -> np.ndarray | int:
        """How many of the global ``b`` positions fall in each pair."""
        if self.n_pairs == 1:
            return positions.size
        return np.bincount(self.pair_of_b[positions], minlength=self.n_pairs)

    def split(
        self, rows_b: np.ndarray, rows_a: np.ndarray
    ) -> Iterator[list[tuple[int, int]]]:
        """Per pair, in pair order, the pairs of global rows ``(rows_b,
        rows_a)`` that belong to it, as its own ``(b, a)`` ids and in
        their order here.  Pair ``k``'s rows span its positions, so
        ``pair_of_b`` names a row's pair too."""
        if self.n_pairs == 1:
            yield list(zip(rows_b.tolist(), rows_a.tolist()))
            return
        pair = self.pair_of_b[rows_b]
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        rows_b = (rows_b[order] - self.b_start[pair]).tolist()
        rows_a = (rows_a[order] - self.a_start[pair]).tolist()
        bounds = np.searchsorted(pair, np.arange(self.n_pairs + 1)).tolist()
        for first, stop in zip(bounds, bounds[1:]):
            yield list(zip(rows_b[first:stop], rows_a[first:stop]))


class _MinMaxBase(CSJAlgorithm):
    """Shared construction, batching and encoding for both MinMax variants."""

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

    def join_many(
        self,
        pairs: Sequence[tuple[Community, Community]],
        *,
        enforce_size_ratio: bool = True,
    ) -> list[CSJResult]:
        """Join every pair with one band pass per ``n_dims`` group (per
        ``_BAND_USERS`` users of it).

        Each result's pairs (in order), events, ``swapped`` flag and
        similarity equal a separate :meth:`join`'s.  The batch is timed
        once; each pair's ``elapsed_seconds`` and ``stage_seconds`` are
        its share of the batch's times, in proportion to its user count
        ``|B| + |A|``, so the shares of one batch sum to the batch.  The
        python engine, and a batch of one, run :meth:`join` per pair.
        """
        pairs = list(pairs)
        if self.engine == "python" or len(pairs) < 2:
            return super().join_many(pairs, enforce_size_ratio=enforce_size_ratio)
        trace = EventTrace(metrics=self.metrics)
        with trace.stage("join"):
            with trace.stage("validate"):
                oriented = [
                    validate_pair(first, second, enforce_size_ratio=enforce_size_ratio)
                    for first, second in pairs
                ]
                epsilons = [self._bounded(b, a).epsilon for b, a, _ in oriented]
            started = time.perf_counter()
            with trace.stage("pairing"):
                paired = self._pair_batch([(b, a) for b, a, _ in oriented], epsilons, trace)
            elapsed = time.perf_counter() - started
        weights = [b.n_users + a.n_users for b, a, _ in oriented]
        total = sum(weights)
        results = []
        for (community_b, community_a, swapped), (matched, events), weight in zip(
            oriented, paired, weights
        ):
            trace.emit_bulk(EventType.MATCH, events.match)
            trace.emit_bulk(EventType.NO_MATCH, events.no_match)
            share = weight / total
            results.append(
                self._result(
                    community_b,
                    community_a,
                    swapped,
                    matched,
                    events,
                    elapsed * share,
                    {path: seconds * share for path, seconds in trace.stage_seconds.items()},
                )
            )
        self.last_trace = trace
        return results

    def _join(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> list[tuple[int, int]]:
        if self.engine == "numpy":
            [(pairs, events)] = self._pair_batch(
                [(community_b, community_a)], [self.epsilon], trace
            )
            trace.emit_bulk(EventType.MATCH, events.match)
            trace.emit_bulk(EventType.NO_MATCH, events.no_match)
            return pairs
        with trace.stage("encode"):
            encoder = self._encoder(community_b.n_dims)
            targets = encoder.targets_of(community_b)
            candidates = encoder.candidates_of(community_a)
        return self._join_python(
            targets, candidates, community_b.vectors, community_a.vectors, trace
        )

    def _pair_batch(
        self,
        oriented: Sequence[tuple[Community, Community]],
        epsilons: Sequence[int],
        trace: EventTrace,
    ) -> list[_Paired]:
        """The numpy engine over oriented ``(B, A)`` pairs, each at its
        capped epsilon: one :class:`_Band` per ``n_dims`` group, or
        several when the group holds more than ``_BAND_USERS`` users
        (its memo fetches and layout are the ``encode`` stage), then the
        variant's pass over each band."""
        groups: dict[int, list[list[int]]] = {}
        users: dict[int, int] = {}
        for index, (community_b, community_a) in enumerate(oriented):
            n_dims, size = community_b.n_dims, community_b.n_users + community_a.n_users
            bands = groups.setdefault(n_dims, [[]])
            if bands[-1] and users[n_dims] + size > _BAND_USERS:
                bands.append([])
                users[n_dims] = 0
            bands[-1].append(index)
            users[n_dims] = users.get(n_dims, 0) + size
        paired: dict[int, _Paired] = {}
        for n_dims, bands in groups.items():
            for members in bands:
                with trace.stage("encode"):
                    band = _Band(
                        [oriented[index] for index in members],
                        [epsilons[index] for index in members],
                        min(self.n_parts, n_dims),
                    )
                paired.update(zip(members, self._join_numpy(band, trace)))
        return [paired[index] for index in range(len(oriented))]


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
        self, band: _Band, trace: EventTrace
    ) -> list[_Paired]:
        n_b, n_a = band.n_b, band.n_a
        # Per b, the a position it took (n_a: none); per a, the b that
        # took it (n_b: still free).  Pairs are disjoint on both sides,
        # so first fit over global positions is first fit per pair.
        picked = np.full(n_b, n_a)
        taken_by = np.full(n_a, n_b)
        no_match = np.zeros(band.n_pairs, dtype=np.int64)
        blocks = band.blocks()
        while True:
            with trace.stage("enumerate"):
                block = next(blocks, None)
            if block is None:
                break
            b_pos, a_pos, full = block
            with trace.stage("matching"):
                # First fit: each b takes its first hit in a order that
                # is still free, then skips the rest of its row.
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
                # NO MATCH: the survivors a b scanned before its pick (or
                # all of them), skipping the ones an earlier b had taken.
                scanned = ~full & (a_pos < picked[b_pos]) & (taken_by[a_pos] > b_pos)
                no_match += band.per_pair(b_pos[scanned])
        with trace.stage("matching"):
            chosen = np.flatnonzero(picked < n_a)
            return [
                (pairs, EventCounts(no_match=missed, match=len(pairs)))
                for pairs, missed in zip(
                    band.split(band.b_rows[chosen], band.a_rows[picked[chosen]]),
                    no_match.tolist(),
                )
            ]


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
    # vectorised engine (identical matching via one CSF call per band)
    # ------------------------------------------------------------------
    def _join_numpy(  # type: ignore[override]
        self, band: _Band, trace: EventTrace
    ) -> list[_Paired]:
        hits_b: list[np.ndarray] = []
        hits_a: list[np.ndarray] = []
        examined = np.zeros(band.n_pairs, dtype=np.int64)
        with trace.stage("enumerate"):
            for b_pos, a_pos, full in band.blocks():
                examined += band.per_pair(b_pos)
                hits_b.append(b_pos[full])
                hits_a.append(a_pos[full])
        with trace.stage("matching"):
            # The pairs are disjoint components of the band's graph, so
            # one call picks for each what a separate join would, in order.
            hit_b, hit_a = _end_to_end(hits_b), _end_to_end(hits_a)
            picks = band.split(
                *match_edges(band.b_rows[hit_b], band.a_rows[hit_a], self.matcher_name)
            )
            found = np.zeros(band.n_pairs, dtype=np.int64)
            found += band.per_pair(hit_b)
            return [
                (pairs, EventCounts(no_match=scanned - matched, match=matched))
                for pairs, scanned, matched in zip(picks, examined.tolist(), found.tolist())
            ]
