"""The SuperEGO competitor methods (Section 5.2), adapted for CSJ.

SuperEGO [Kalashnikov, VLDBJ 2013] is the state of the art for the
classic epsilon-join.  The paper adapts it to CSJ as follows:

* all data is **normalised** into ``[0, 1]^d`` ("since else the
  algorithm does not work"), and epsilon becomes an **aggregate**
  distance over all d dimensions: ``27 * (1/152532)`` for VK and
  ``27 * (15000/500000)`` for Synthetic — i.e. the join condition turns
  into ``sum_i |b_i - a_i| <= d * eps / max`` instead of the CSJ
  per-dimension test;
* the framework stays a divide-and-conquer recursion: the
  ``EGO-Strategy`` prunes a ``<B, A>`` rectangle when it provably holds
  no joinable pair, segments smaller than the predefined threshold ``t``
  fall through to a nested-loop join, and larger segments split in half;
* ``Ap-SuperEGO`` swaps the leaf nested loop for the Ap-Baseline one
  (first-fit greedy with globally shared "used" flags); ``Ex-SuperEGO``
  collects all leaf matches and calls CSF once at the end.

Why SuperEGO loses accuracy (the paper's Tables 3–6 vs 7–10): every true
CSJ pair satisfies the aggregate condition (``|b_i - a_i| <= eps`` for
every ``i`` implies the sum is at most ``d * eps``), but the aggregate
condition also admits pairs that violate the per-dimension test.  Such
*false candidates* participate in the one-to-one matching and consume
users; since they are not genuinely similar they do not count towards
Eq. (1), so the reported similarity drops.  On the skewed VK data false
candidates are plentiful (many low-activity users sit within a small
aggregate distance of each other) and the loss is visible; on the
uniform Synthetic data the aggregate ball is so selective that false
candidates essentially never appear, and the exact variant agrees with
Ex-Baseline/Ex-MinMax to the last pair — both effects exactly as the
paper reports.

Pass ``use_normalized=False`` for the "theoretic case" the paper's
conclusion discusses — SuperEGO running directly on numeric data with
the true per-dimension condition (no conversion, no accuracy loss).

Implementation notes (see DESIGN.md): rows are sorted in **epsilon grid
order** (dimensions reordered by cell spread, lexicographic by cell);
the EGO-Strategy prunes a rectangle from the segments' value-space
bounding boxes — per-dimension gap above epsilon in raw mode, summed
gaps above ``d * epsilon`` in aggregate mode — which is exactly the
active join condition, so no joinable pair is ever lost.  Pruned
rectangles are counted as MIN PRUNE events.

The python engine runs the recursion as written (``_recurse``).  The
numpy engine walks the same recursion tree level by level
(:func:`ego_walk`) and tests the leaves' cells as padded tiles of
bounded size (:func:`_leaf_tiles`), rejecting most of them on a few
integer dimensions before the join condition runs; both engines return
the same pairs and events.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.errors import ConfigurationError
from ..core.events import EventTrace, EventType
from ..core.matching import build_adjacency, first_fit, get_matcher, linf_match_mask, match_edges
from ..core.types import Community
from .base import CSJAlgorithm, Picks, largest_counter

__all__ = ["ApSuperEGO", "ExSuperEGO", "ego_order", "ego_sort", "ego_walk", "grid_cells"]

#: Most leaf cells (``(b, a)`` pairs) the numpy engine tests at once,
#: padding included, which bounds a join's working memory whatever
#: ``t`` is.
_LEAF_BLOCK_CELLS = 16384

#: float32 unit roundoff.
_UNIT_ROUNDOFF = 2.0**-24


def grid_cells(vectors: np.ndarray, cell_width: int) -> np.ndarray:
    """Epsilon-grid cell coordinates of integer counter vectors.

    The width is clamped at 1 so a zero epsilon degenerates to one cell
    per counter value, keeping the pruning sound.
    """
    width = max(int(cell_width), 1)
    return vectors // width


def ego_order(cells: np.ndarray, dim_order: np.ndarray) -> np.ndarray:
    """Row order sorting by grid cells, most selective dimension first.

    The stable lexicographic order of the non-negative int64 ``cells``
    columns in ``dim_order``.  Consecutive dimensions' cell offsets are packed
    into one int64 key for as long as the product of their spans fits,
    so the sort runs over a few keys instead of one per dimension.
    ``numpy.lexsort`` sorts by the *last* key first, so the key list is
    reversed.
    """
    offsets = cells.T[dim_order]
    offsets -= offsets.min(axis=1, keepdims=True)
    keys: list[np.ndarray] = []
    room = 0
    for offset, top in zip(offsets, offsets.max(axis=1).tolist()):
        span = top + 1
        if keys and room * span < 2**63:
            keys[-1] *= span
            keys[-1] += offset
            room *= span
        else:
            keys.append(offset)
            room = span
    return np.lexsort(keys[::-1])


def ego_sort(
    vectors_b: np.ndarray, vectors_a: np.ndarray, epsilon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EGO row orders of both sides and the dimension order behind them.

    Grid cells only order the rows (locality), so the epsilon-wide grid
    is right in every mode.  Dimensions come most selective first:
    widest spread in grid cells over both sides.
    """
    cells_b = grid_cells(vectors_b, epsilon)
    cells_a = grid_cells(vectors_a, epsilon)
    spread = np.maximum(
        cells_b.max(axis=0) - cells_b.min(axis=0),
        cells_a.max(axis=0) - cells_a.min(axis=0),
    )
    dim_order = np.argsort(-spread, kind="stable")
    return ego_order(cells_b, dim_order), ego_order(cells_a, dim_order), dim_order


def _halve(starts: np.ndarray, lengths: np.ndarray, t: int):
    """One level of a side's split tree.

    A segment of at least ``t`` rows splits at ``length // 2``, a
    shorter one stays whole.  Returns the split mask, the next level's
    index of each segment's first child, and the next level's starts
    and lengths.
    """
    split = lengths >= t
    children = 1 + split
    first = np.cumsum(children) - children
    next_starts = np.repeat(starts, children)
    next_starts[first[split] + 1] += lengths[split] // 2
    next_lengths = np.diff(next_starts, append=starts[-1] + lengths[-1])
    return split, first, next_starts, next_lengths


def ego_walk(
    raw_b: np.ndarray, raw_a: np.ndarray, t: int, epsilon: int, *, aggregate: bool
) -> tuple[np.ndarray, int]:
    """The leaves SuperEGO's recursion reaches, found level by level.

    A segment splits iff it has at least ``t`` rows, whatever it is
    paired with, so each side's split tree is fixed and the recursion
    visits node pairs of the two trees: a pair splits every side that
    splits, and is a leaf once neither does.  Each level computes every
    segment's bounding box with one ``reduceat`` per side and tests all
    of the level's node pairs at once.  ``aggregate`` picks the prune
    rule: the summed bounding-box gaps exceed ``d·ε`` (normalised
    SuperEGO), or some gap exceeds ``ε`` (raw SuperEGO and the hybrid).

    Returns ``(leaves, pruned)``: the surviving leaves as an ``(L, 4)``
    array of ``[lo_b, hi_b)`` x ``[lo_a, hi_a)`` row rectangles in the
    recursion's depth-first order, and the number of pruned node pairs
    (its MIN PRUNE events).  Both sides must be non-empty.
    """
    n_dims = raw_b.shape[1]
    starts_b, lengths_b = np.zeros(1, dtype=np.intp), np.array([len(raw_b)])
    starts_a, lengths_a = np.zeros(1, dtype=np.intp), np.array([len(raw_a)])
    # The live node pairs, as segment indices into the current level,
    # and their depth-first path: two bits per level, the child index
    # 2·b_child + a_child.  A side of n rows has at most log2(n) levels,
    # so the 62 bits of 31 levels cover any feasible input.
    seg_b = seg_a = paths = np.zeros(1, dtype=np.int64)
    found: list[tuple[int, np.ndarray, np.ndarray]] = []
    pruned = 0
    depth = 0
    while paths.size:
        min_b = np.minimum.reduceat(raw_b, starts_b, axis=0)
        max_b = np.maximum.reduceat(raw_b, starts_b, axis=0)
        min_a = np.minimum.reduceat(raw_a, starts_a, axis=0)
        max_a = np.maximum.reduceat(raw_a, starts_a, axis=0)
        gaps = np.maximum(min_b[seg_b] - max_a[seg_a], min_a[seg_a] - max_b[seg_b])
        if aggregate:
            alive = np.maximum(gaps, 0).sum(axis=1) <= n_dims * epsilon
        else:
            alive = (gaps <= epsilon).all(axis=1)
        pruned += int(alive.size - np.count_nonzero(alive))
        seg_b, seg_a, paths = seg_b[alive], seg_a[alive], paths[alive]
        split_b, first_b, starts_b_next, lengths_b_next = _halve(starts_b, lengths_b, t)
        split_a, first_a, starts_a_next, lengths_a_next = _halve(starts_a, lengths_a, t)
        leaf = ~split_b[seg_b] & ~split_a[seg_a]
        if leaf.any():
            leaf_b, leaf_a = seg_b[leaf], seg_a[leaf]
            rect = np.stack(
                [
                    starts_b[leaf_b],
                    starts_b[leaf_b] + lengths_b[leaf_b],
                    starts_a[leaf_a],
                    starts_a[leaf_a] + lengths_a[leaf_a],
                ],
                axis=1,
            )
            found.append((depth, paths[leaf], rect))
        inner = ~leaf
        seg_b, seg_a, paths = seg_b[inner], seg_a[inner], paths[inner]
        # Children of each inner pair, in the recursion's order: every
        # b child (one unless b splits) with every a child.
        wide_a = 1 + split_a[seg_a]
        counts = (1 + split_b[seg_b]) * wide_a
        parent = np.repeat(np.arange(paths.size), counts)
        child = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        child_b, child_a = np.divmod(child, wide_a[parent])
        seg_b = first_b[seg_b[parent]] + child_b
        seg_a = first_a[seg_a[parent]] + child_a
        paths = paths[parent] * 4 + 2 * child_b + child_a
        starts_b, lengths_b = starts_b_next, lengths_b_next
        starts_a, lengths_a = starts_a_next, lengths_a_next
        depth += 1
    if not found:
        return np.zeros((0, 4), dtype=np.int64), pruned
    # A leaf's path is no prefix of another, so padding every path to
    # the full depth sorts the leaves depth-first.
    keys = np.concatenate([path << (2 * (depth - level)) for level, path, _ in found])
    leaves = np.concatenate([rect for _, _, rect in found])
    return leaves[np.argsort(keys)], pruned


def _leaf_tiles(
    leaves: np.ndarray, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The leaves' cells as padded tiles of at most ``cap`` cells.

    A tile holds as many leaves as fit in ``cap`` cells when padded to
    the join's tallest and widest leaf, and pads them only to its own
    tallest and widest one, so a tile of ``n`` leaves is an ``(n, h, w)``
    block whose cell ``(i, y, x)`` pairs row ``rows_b[i, y]`` with row
    ``rows_a[i, x]``; in C order its cells run in (leaf, b, a) order.
    A padded leaf larger than ``cap`` is cut into bands of whole rows,
    and a row wider than ``cap`` into pieces of ``cap`` cells; each band
    or piece then stands for a leaf, so no tile, padding included,
    exceeds ``cap``.  Yields ``(leaf, rows_b, rows_a, real)``: the leaf
    index of each of the tile's ``n`` leaves or pieces, their rows
    (padding repeats the last real row) and the ``(n, h, w)`` mask of
    real cells.  Only each piece's first rows and size are kept for the
    whole join; a tile's arrays are built when it is yielded, so working
    memory stays within a few caps however large the leaves are.
    """
    heights = leaves[:, 1] - leaves[:, 0]
    widths = leaves[:, 3] - leaves[:, 2]
    width = min(int(widths.max()), cap)
    height = min(int(heights.max()), cap // width)
    bands = -(-heights // height)
    chunks = -(-widths // width)
    pieces = bands * chunks
    leaf = np.repeat(np.arange(len(leaves)), pieces)
    band, chunk = np.divmod(
        np.arange(leaf.size) - np.repeat(np.cumsum(pieces) - pieces, pieces),
        chunks[leaf],
    )
    first_b, first_a = leaves[leaf, 0] + band * height, leaves[leaf, 2] + chunk * width
    tall = np.minimum(leaves[leaf, 1] - first_b, height)[:, None]
    wide = np.minimum(leaves[leaf, 3] - first_a, width)[:, None]
    step = cap // (height * width)
    for start in range(0, leaf.size, step):
        tile = slice(start, start + step)
        down, across = np.arange(tall[tile].max()), np.arange(wide[tile].max())
        real = (down < tall[tile])[:, :, None] & (across < wide[tile])[:, None, :]
        rows_b = first_b[tile, None] + np.minimum(down, tall[tile] - 1)
        rows_a = first_a[tile, None] + np.minimum(across, wide[tile] - 1)
        yield leaf[tile], rows_b, rows_a, real


def _tile_positions(
    mask: np.ndarray, rows_b: np.ndarray, rows_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat indices of a tile's true cells, in order, and the ``b``
    and ``a`` rows they pair (see :func:`_leaf_tiles`)."""
    flat = np.flatnonzero(mask)
    _, height, width = mask.shape
    # numpy divides by a scalar quickly; it has no such remainder.
    row = flat // width
    column = flat // (height * width) * width + (flat - row * width)
    return flat, rows_b.ravel()[row], rows_a.ravel()[column]


class _SuperEGOBase(CSJAlgorithm):
    """Shared recursion framework of both SuperEGO variants."""

    #: Dimensions the numpy engine tests on each leaf tile as a whole
    #: before compacting its surviving cells.
    _tile_dims = 4

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        t: int = 32,
        max_value: int | None = None,
        use_normalized: bool = True,
    ) -> None:
        super().__init__(epsilon, engine=engine, record_trace=record_trace)
        if t < 2:
            raise ConfigurationError(f"threshold t must be >= 2, got {t}")
        # Counters are int64, and a larger divisor would push the
        # normalised values below float32's normal range.
        if max_value is not None and (
            isinstance(max_value, bool)
            or not isinstance(max_value, int)
            or not 1 <= max_value < 2**63
        ):
            raise ConfigurationError(
                f"max_value must be an integer in [1, 2**63), got {max_value!r}"
            )
        self.t = int(t)
        self.max_value = max_value
        self.use_normalized = bool(use_normalized)

    # -- preparation ---------------------------------------------------
    def _prepare(self, community_b: Community, community_a: Community) -> dict:
        """Sort both sides in EGO order and build the leaf-test arrays."""
        vectors_b, vectors_a = community_b.vectors, community_a.vectors
        n_dims = vectors_b.shape[1]
        order_b, order_a, dim_order = ego_sort(vectors_b, vectors_a, self.epsilon)
        largest = largest_counter(community_b, community_a)
        if self.use_normalized:
            max_value = self.max_value
            if max_value is None:
                max_value = max(largest, 1)
            values_b = (vectors_b / max_value).astype(np.float32)
            values_a = (vectors_a / max_value).astype(np.float32)
            threshold = np.float32(n_dims * self.epsilon / max_value)
        else:
            values_b = vectors_b
            values_a = vectors_a
            threshold = self.epsilon
        return {
            "raw_b": vectors_b[order_b],
            "raw_a": vectors_a[order_a],
            "values_b": values_b[order_b],
            "values_a": values_a[order_a],
            "order_b": order_b,
            "order_a": order_a,
            "dim_order": dim_order,
            "largest": largest,
            "threshold": threshold,
        }

    # -- python engine: the recursion as written -------------------------
    def _condition_row(
        self, value_b: np.ndarray, block_a: np.ndarray, threshold: object
    ) -> np.ndarray:
        """Join condition of one ``b`` against a block of ``a`` rows."""
        if self.use_normalized:
            return np.abs(block_a - value_b).sum(axis=1) <= threshold
        return linf_match_mask(value_b, block_a, self.epsilon)

    def _ego_strategy_prunes(self, raw_b: np.ndarray, raw_a: np.ndarray) -> bool:
        """True when the two segments are provably non-joinable.

        Computes the per-dimension gap between the segments' value-space
        bounding boxes: any pair drawn from the two segments differs by
        at least that gap in that dimension.  In raw mode the rectangle
        is dead once some gap exceeds epsilon; in the normalised
        (aggregate) mode once the *sum* of gaps exceeds ``d * epsilon``
        — the exact counterpart of the active join condition, so the
        pruning never loses a joinable pair.
        """
        min_b = raw_b.min(axis=0)
        max_b = raw_b.max(axis=0)
        min_a = raw_a.min(axis=0)
        max_a = raw_a.max(axis=0)
        gaps = np.maximum(min_b - max_a, min_a - max_b)
        np.maximum(gaps, 0, out=gaps)
        if self.use_normalized:
            return bool(gaps.sum() > raw_b.shape[1] * self.epsilon)
        return bool((gaps > self.epsilon).any())

    def _recurse(
        self,
        state: dict,
        lo_b: int,
        hi_b: int,
        lo_a: int,
        hi_a: int,
        trace: EventTrace,
    ) -> None:
        if lo_b >= hi_b or lo_a >= hi_a:
            return
        if self._ego_strategy_prunes(
            state["raw_b"][lo_b:hi_b], state["raw_a"][lo_a:hi_a]
        ):
            trace.emit_bulk(EventType.MIN_PRUNE, 1)
            return
        len_b = hi_b - lo_b
        len_a = hi_a - lo_a
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

    def _leaf_join(
        self,
        state: dict,
        lo_b: int,
        hi_b: int,
        lo_a: int,
        hi_a: int,
        trace: EventTrace,
    ) -> None:
        raise NotImplementedError

    def _run(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> dict:
        """The python engine: recurse, collecting leaf pairs in ``state``."""
        state = self._prepare(community_b, community_a)
        n_b, n_a = community_b.n_users, community_a.n_users
        state["pairs"] = []
        state["used_b"] = np.zeros(n_b, dtype=bool)
        state["used_a"] = np.zeros(n_a, dtype=bool)
        self._recurse(state, 0, n_b, 0, n_a, trace)
        return state

    # -- numpy engine: level-by-level walk + leaf tiles ------------------
    def _join(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        """Both engines receive the communities, whose memoised envelopes
        give the largest counter."""
        engine = self._join_python if self.engine == "python" else self._join_numpy
        return engine(community_b, community_a, trace)  # type: ignore[arg-type]

    def _encode(self, community_b: Community, community_a: Community) -> dict:
        """The numpy engine's state, built in its ``encode`` stage: the
        recursion's; the hybrid adds its MinMax buffers."""
        return self._prepare(community_b, community_a)

    def _collect(
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> tuple[dict, np.ndarray, np.ndarray, int]:
        """Every leaf cell that meets the join condition.

        Returns the prepared state, the matching cells' EGO-order
        ``b`` and ``a`` positions in (leaf, b, a) order — the order the
        recursion tests them — and the number of cells tested.
        """
        with trace.stage("encode"):
            state = self._encode(community_b, community_a)
        with trace.stage("enumerate"):
            leaves, pruned = ego_walk(
                state["raw_b"],
                state["raw_a"],
                self.t,
                self.epsilon,
                aggregate=self.use_normalized,
            )
            trace.emit_bulk(EventType.MIN_PRUNE, pruned)
            cells = int(
                ((leaves[:, 1] - leaves[:, 0]) * (leaves[:, 3] - leaves[:, 2])).sum()
            )
            hits = list(self._leaf_hits(state, leaves))
        if not hits:
            empty = np.zeros(0, dtype=np.intp)
            return state, empty, empty, cells
        hits_b, hits_a = (np.concatenate(side) for side in zip(*hits))
        return state, hits_b, hits_a, cells

    def _leaf_hits(
        self, state: dict, leaves: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The join condition over the leaf cells, tile by tile.

        Cells are screened in integers one dimension at a time, widest
        spread first, accumulating each cell's L1 distance (normalised
        mode) or L-infinity distance (raw mode); a cell leaves once its
        partial distance exceeds ``limit``.  Each tile of
        :func:`_leaf_tiles` tests its first dimensions whole
        (:meth:`_tile_cells`); the survivors of consecutive tiles are
        held until they number at least a tile's cap, then :meth:`_test`
        runs the rest on them.  In raw mode the screen *is* the join
        condition.  In normalised mode the survivors then run the
        float32 condition exactly as the python engine does: one
        contiguous row per pair in the original dimension order, so
        both engines round alike.

        Why the normalised ``limit = d·ε + ⌈4·d·u·(V + d·ε)⌉`` drops no
        match, with ``u`` the float32 unit roundoff, ``V`` the largest
        counter and ``M`` the divisor: each value ``x = b/M`` is rounded
        twice (float64, then float32), so it is off by at most ``u'·b/M``
        with ``u' < 1.01·u``; the float32 difference of two values is
        then at least ``(|b − a| − 2·u'·V)/M · (1 − u)``, and summing
        ``d`` non-negative terms in float32 loses at most a factor
        ``(1 − u)^(d−1)`` in any order.  The float32 sum is thus at least
        ``(1 − u)^d · (L1 − 2·d·u'·V)/M``, while the threshold is at most
        ``d·ε/M · (1 + u')``, so the condition fails once ``L1 >
        2·d·u'·V + d·ε·(1 + u')·(1 + 2·d·u)``, which ``limit`` exceeds.
        The margin matters: with counters up to 10⁷ and ε = 15,000,
        pairs at ``L1 = d·ε + 1 … d·ε + 5`` still pass in float32.
        """
        if not len(leaves):
            return
        raw_b, raw_a = state["raw_b"], state["raw_a"]
        n_dims = raw_b.shape[1]
        largest = state["largest"]
        if self.use_normalized:
            margin = 4 * n_dims * _UNIT_ROUNDOFF * (largest + n_dims * self.epsilon)
            limit = n_dims * self.epsilon + int(np.ceil(margin))
        else:
            limit = self.epsilon
        # int32 holds every partial distance when d·V fits.
        dtype = np.int32 if n_dims * largest < 2**31 else np.int64
        dims = state["dim_order"]
        state.update(
            columns_b=np.ascontiguousarray(raw_b[:, dims].T, dtype=dtype),
            columns_a=np.ascontiguousarray(raw_a[:, dims].T, dtype=dtype),
            limit=limit,
        )
        held: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        count = 0
        for tile in _leaf_tiles(leaves, _LEAF_BLOCK_CELLS):
            held.append(self._tile_cells(state, *tile))
            count += held[-1][0].size
            if count >= _LEAF_BLOCK_CELLS:
                yield self._test(state, *(np.concatenate(side) for side in zip(*held)))
                held, count = [], 0
        if held:
            yield self._test(state, *(np.concatenate(side) for side in zip(*held)))

    def _tile_cells(
        self,
        state: dict,
        leaf: np.ndarray,
        rows_b: np.ndarray,
        rows_a: np.ndarray,
        real: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The real cells of one tile that pass its first
        :attr:`_tile_dims` dimensions, in (leaf, b, a) order, with their
        partial distances.

        Each dimension is tested on the whole tile at once, by
        broadcasting every leaf's gathered ``b`` rows against its ``a``
        rows; the survivors are compacted once, into the flat ``b`` and
        ``a`` positions :meth:`_test` takes.  The hybrid screens the
        tile on its MinMax encoding here instead.
        """
        accumulate = np.add if self.use_normalized else np.maximum
        columns_b, columns_a = state["columns_b"], state["columns_a"]
        for k in range(min(self._tile_dims, len(columns_b))):
            gap = columns_b[k][rows_b][:, :, None] - columns_a[k][rows_a][:, None, :]
            np.abs(gap, out=gap)
            partial = gap if k == 0 else accumulate(partial, gap, out=partial)
        keep = partial <= state["limit"]
        keep &= real
        flat, b_pos, a_pos = _tile_positions(keep, rows_b, rows_a)
        return b_pos, a_pos, partial.ravel()[flat]

    def _test(
        self, state: dict, b_pos: np.ndarray, a_pos: np.ndarray, partial: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cells ``(b_pos, a_pos)`` that meet the join condition, in
        order, given their ``partial`` distances over the first
        :attr:`_tile_dims` dimensions.

        Each further dimension is gathered per cell; survivors are
        compacted whenever the dimensions tested reach a power of two,
        and after the last.  In normalised mode the float32 condition
        then runs on them.
        """
        accumulate = np.add if self.use_normalized else np.maximum
        columns_b, columns_a = state["columns_b"], state["columns_a"]
        n_dims = len(columns_b)
        for k in range(min(self._tile_dims, n_dims), n_dims):
            if not b_pos.size:
                break
            gap = columns_b[k][b_pos]
            gap -= columns_a[k][a_pos]
            np.abs(gap, out=gap)
            accumulate(partial, gap, out=partial)
            if 0 < k and k & (k + 1) == 0 or k == n_dims - 1:
                # Gathers at the kept indices beat three boolean masks.
                keep = np.flatnonzero(partial <= state["limit"])
                b_pos, a_pos, partial = b_pos[keep], a_pos[keep], partial[keep]
        if self.use_normalized and b_pos.size:
            rows_b = np.take(state["values_b"], b_pos, axis=0)
            rows_a = np.take(state["values_a"], a_pos, axis=0)
            keep = np.abs(rows_a - rows_b).sum(axis=1) <= state["threshold"]
            b_pos, a_pos = b_pos[keep], a_pos[keep]
        return b_pos, a_pos

    def _count(self, trace: EventTrace, tested: int, hits: int, picks: int) -> None:
        """The numpy engine's events: each tested cell is one MATCH or
        one NO MATCH, as in the recursion's leaves."""
        trace.emit_bulk(EventType.MATCH, hits)
        trace.emit_bulk(EventType.NO_MATCH, tested - hits)

    def _verify_pairs(
        self,
        rows_b: np.ndarray,
        rows_a: np.ndarray,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The matched pairs ``(rows_b[k], rows_a[k])``, in order, that
        satisfy the true per-dimension condition, as two id arrays.

        The method matched them under its aggregate condition, but only
        genuinely similar pairs count towards Eq. (1); users consumed by
        false candidates are simply lost — the source of SuperEGO's
        accuracy gap.  In raw (non-normalised) mode the join condition is
        already exact and every pair is kept.
        """
        if self.use_normalized:
            keep = (np.abs(vectors_b[rows_b] - vectors_a[rows_a]) <= self.epsilon).all(
                axis=1
            )
            rows_b, rows_a = rows_b[keep], rows_a[keep]
        return rows_b, rows_a


class ApSuperEGO(_SuperEGOBase):
    """Approximate SuperEGO: first-fit greedy leaves, shared used flags."""

    name = "ap-superego"
    exact = False

    def _leaf_join(
        self,
        state: dict,
        lo_b: int,
        hi_b: int,
        lo_a: int,
        hi_a: int,
        trace: EventTrace,
    ) -> None:
        values_b = state["values_b"]
        values_a = state["values_a"]
        used_b = state["used_b"]
        used_a = state["used_a"]
        threshold = state["threshold"]
        for i in range(lo_b, hi_b):
            if used_b[i]:
                continue
            for j in range(lo_a, hi_a):
                if used_a[j]:
                    continue
                row = values_a[j : j + 1]
                if bool(self._condition_row(values_b[i], row, threshold)[0]):
                    trace.emit(EventType.MATCH, f"b#{i}", f"a#{j}")
                    used_b[i] = True
                    used_a[j] = True
                    state["pairs"].append((i, j))
                    break
                trace.emit(EventType.NO_MATCH, f"b#{i}", f"a#{j}")

    def _join_python(  # type: ignore[override]
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        state = self._run(community_b, community_a, trace)
        rows = np.array(state["pairs"], dtype=np.intp).reshape(-1, 2)
        return self._verify_pairs(
            state["order_b"][rows[:, 0]],
            state["order_a"][rows[:, 1]],
            community_b.vectors,
            community_a.vectors,
        )

    def _join_numpy(  # type: ignore[override]
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        state, hits_b, hits_a, cells = self._collect(community_b, community_a, trace)
        with trace.stage("matching"):
            # First fit over the hits in the order the recursion tests
            # them: a b takes its first hit whose a is still free.
            taken = first_fit(hits_b, hits_a)
            self._count(trace, cells, hits_b.size, taken.size)
            return self._verify_pairs(
                state["order_b"][hits_b[taken]],
                state["order_a"][hits_a[taken]],
                community_b.vectors,
                community_a.vectors,
            )

    def _count(self, trace: EventTrace, tested: int, hits: int, picks: int) -> None:
        """Each pick is one MATCH, as in the recursion; which cells a
        ``b`` tests before its pick is not tracked, so NO MATCH is not
        counted."""
        trace.emit_bulk(EventType.MATCH, picks)


class ExSuperEGO(_SuperEGOBase):
    """Exact SuperEGO: collect all leaf matches, then one CSF call."""

    name = "ex-superego"
    exact = True

    def __init__(
        self,
        epsilon: int,
        *,
        engine: str = "numpy",
        record_trace: bool = False,
        t: int = 32,
        max_value: int | None = None,
        use_normalized: bool = True,
        matcher: str = "csf",
    ) -> None:
        super().__init__(
            epsilon,
            engine=engine,
            record_trace=record_trace,
            t=t,
            max_value=max_value,
            use_normalized=use_normalized,
        )
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)

    def _leaf_join(
        self,
        state: dict,
        lo_b: int,
        hi_b: int,
        lo_a: int,
        hi_a: int,
        trace: EventTrace,
    ) -> None:
        values_b = state["values_b"]
        values_a = state["values_a"]
        threshold = state["threshold"]
        for i in range(lo_b, hi_b):
            for j in range(lo_a, hi_a):
                row = values_a[j : j + 1]
                if bool(self._condition_row(values_b[i], row, threshold)[0]):
                    trace.emit(EventType.MATCH, f"b#{i}", f"a#{j}")
                    state["pairs"].append((i, j))
                else:
                    trace.emit(EventType.NO_MATCH, f"b#{i}", f"a#{j}")

    def _join_python(  # type: ignore[override]
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        state = self._run(community_b, community_a, trace)
        if not state["pairs"]:
            return []
        order_b, order_a = state["order_b"], state["order_a"]
        raw_pairs = [(int(order_b[i]), int(order_a[j])) for i, j in state["pairs"]]
        trace.note(f"CSF over {len(raw_pairs)} candidate pairs")
        matched = np.array(self._matcher(*build_adjacency(raw_pairs)), dtype=np.intp)
        return self._verify_pairs(
            matched[:, 0], matched[:, 1], community_b.vectors, community_a.vectors
        )

    def _join_numpy(  # type: ignore[override]
        self, community_b: Community, community_a: Community, trace: EventTrace
    ) -> Picks:
        state, hits_b, hits_a, cells = self._collect(community_b, community_a, trace)
        with trace.stage("matching"):
            picks = self._verify_pairs(
                *match_edges(state["order_b"][hits_b], state["order_a"][hits_a], self.matcher_name),
                community_b.vectors,
                community_a.vectors,
            )
        self._count(trace, cells, hits_b.size, picks[0].size)
        return picks
