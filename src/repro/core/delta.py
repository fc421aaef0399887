"""Incremental delta-join maintenance over live like-streams.

The paper defines CSJ similarity over static profile snapshots, but the
counters it joins are *living* aggregates (Section 1.1): every like
bumps one cell of one user vector.  Re-running the full join after each
like throws away almost all of the previous run's work — a single
counter delta can only flip the epsilon status of pairs involving the
touched user, and it can change the maximum-matching size by at most
one in each direction.

:class:`DeltaJoinMaintainer` exploits both facts.  It holds the last
committed join state for one couple — the candidate bipartite graph
(every pair within per-dimension epsilon) and a maximum one-to-one
matching over it — and, on a counter delta:

1. **Window gate** — a like moving ``b[t]`` from ``v`` to ``v + c``
   changes dimension-``t`` status only for partners whose value lies in
   the symmetric difference of the windows ``[v - eps, v + eps]`` and
   ``[v + c - eps, v + c + eps]``.  If that difference misses the other
   community's per-dimension value range entirely, the candidate graph
   is untouched and the delta costs O(1).
2. **Row recheck** — otherwise only the touched user's row is
   rechecked: one O(n) column scan finds the partners whose dim-``t``
   status flipped, and only those few pairs pay the full O(d)
   comparison.
3. **Augmenting-path repair** — edge insertions/removals around one
   vertex leave the maintained matching within two augmentations of
   maximum, so a couple of Hopcroft–Karp phases (each O(V + E), started
   from the *current* matching) restore it.  A full join would pay the
   O(|B|·|A|·d) candidate enumeration again.

Equivalence contract
--------------------

The maintained state is, after every delta, *byte-identical* to a fresh
full join of the current snapshots in every path-independent field:
``similarity``, ``n_matched`` (maximum-matching cardinality), ``events``
(MATCH = candidate edges, NO MATCH = the rest — exactly the accounting
of the ``ex-baseline`` numpy engine), ``size_b``/``size_a``/``p``.  The
reference computation is::

    ExBaseline(epsilon, matcher="hopcroft_karp").join(first, second)

The matched *pairs* are one maximum matching among possibly many, so
pair lists may legitimately differ between the delta and full paths;
the differential harness in ``tests/test_delta.py`` pins down exactly
this contract on replayed mutation streams.

Structural changes (subscribe / unsubscribe) re-shape the matrices and
can flip the ``B``/``A`` orientation, so they are handled by
:meth:`DeltaJoinMaintainer.rebuild` — the serving layer discards and
rebuilds maintainers when a community's membership changes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .types import Community, CSJResult, EventCounts
from .validation import validate_epsilon, validate_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["DeltaJoinMaintainer", "DeltaStats"]

#: Sides accepted by :meth:`DeltaJoinMaintainer.record_like`, named after
#: the constructor arguments (not the oriented B/A roles).
_SIDES = ("first", "second")

_FREE = -1


class DeltaStats:
    """Counters of one maintainer's life: what the delta path saved."""

    __slots__ = (
        "updates",
        "skipped",
        "pairs_rechecked",
        "edges_added",
        "edges_removed",
        "augment_phases",
        "rebuilds",
        "repair_seconds",
    )

    def __init__(self) -> None:
        self.updates = 0
        self.skipped = 0
        self.pairs_rechecked = 0
        self.edges_added = 0
        self.edges_removed = 0
        self.augment_phases = 0
        self.rebuilds = 0
        self.repair_seconds = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "updates": self.updates,
            "skipped": self.skipped,
            "pairs_rechecked": self.pairs_rechecked,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "augment_phases": self.augment_phases,
            "rebuilds": self.rebuilds,
            "repair_seconds": round(self.repair_seconds, 6),
        }


class DeltaJoinMaintainer:
    """Maintains one couple's exact CSJ join under counter deltas.

    Parameters
    ----------
    first / second:
        The couple, in caller order; orientation to the paper's
        ``(B, A)`` convention happens internally (``swapped`` records a
        reversal, exactly as in a full join).
    epsilon:
        Per-dimension absolute-difference threshold.
    enforce_size_ratio:
        Apply the ``ceil(|A|/2) <= |B| <= |A|`` rule at (re)build time.

    Attributes
    ----------
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when set,
        deltas emit the ``repro_delta_*`` family.  Assignment follows
        the :class:`~repro.algorithms.base.CSJAlgorithm` convention:
        ``None`` (the default) keeps the fast path uninstrumented.
    """

    metrics: "MetricsRegistry | None" = None

    def __init__(
        self,
        first: Community,
        second: Community,
        epsilon: int,
        *,
        enforce_size_ratio: bool = True,
    ) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self.enforce_size_ratio = bool(enforce_size_ratio)
        self.stats = DeltaStats()
        self.rebuild(first, second)

    # ------------------------------------------------------------------
    # (re)build
    # ------------------------------------------------------------------
    def rebuild(self, first: Community, second: Community) -> None:
        """Recompute the full join state from fresh snapshots.

        The fallback for structural changes: subscriptions and
        unsubscriptions re-shape the matrices (and may flip the B/A
        orientation), so local repair does not apply.  The candidate
        graph comes from one MinMax band pass, in ``(b, a)`` order.
        """
        from ..algorithms.minmax import band_edges  # repro.algorithms imports repro.core

        community_b, community_a, swapped = validate_pair(
            first,
            second,
            auto_orient=True,
            enforce_size_ratio=self.enforce_size_ratio,
        )
        self.swapped = swapped
        # Mutable working copies owned by the maintainer; the source
        # snapshots stay frozen.
        self._vectors_b = community_b.vectors.astype(np.int64, copy=True)
        self._vectors_a = community_a.vectors.astype(np.int64, copy=True)
        self.names = (first.name, second.name)
        n_b, n_a = len(self._vectors_b), len(self._vectors_a)
        self._adj_b: list[set[int]] = [set() for _ in range(n_b)]
        self._adj_a: list[set[int]] = [set() for _ in range(n_a)]
        rows_b, rows_a = band_edges(community_b, community_a, self.epsilon)
        for b_index, a_index in zip(rows_b.tolist(), rows_a.tolist()):
            self._adj_b[b_index].add(a_index)
            self._adj_a[a_index].add(b_index)
        self._n_edges = sum(len(partners) for partners in self._adj_b)
        # Stale-bound envelopes for the window gate: counters only grow,
        # so the recorded minimum stays a sound lower bound forever and
        # the maximum is maintained on every delta.
        self._mins_b = self._vectors_b.min(axis=0)
        self._maxs_b = self._vectors_b.max(axis=0)
        self._mins_a = self._vectors_a.min(axis=0)
        self._maxs_a = self._vectors_a.max(axis=0)
        self._match_of_b = [_FREE] * n_b
        self._match_of_a = [_FREE] * n_a
        self._n_matched = 0
        self._augment_to_maximum()
        self.stats.rebuilds += 1
        if self.metrics is not None:
            self.metrics.inc("repro_delta_rebuilds_total")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def size_b(self) -> int:
        return len(self._vectors_b)

    @property
    def size_a(self) -> int:
        return len(self._vectors_a)

    @property
    def n_matched(self) -> int:
        """Cardinality of the maintained maximum matching."""
        return self._n_matched

    @property
    def n_edges(self) -> int:
        """Candidate-graph edge count (pairs within epsilon)."""
        return self._n_edges

    @property
    def similarity(self) -> float:
        """Eq. (1) over the maintained maximum matching (p = 1)."""
        if self.size_b == 0:
            return 0.0
        return self._n_matched / self.size_b

    @property
    def events(self) -> EventCounts:
        """Pairing events of the equivalent full ``ex-baseline`` run.

        The numpy engine emits one MATCH per candidate edge and one NO
        MATCH for every other ``(b, a)`` combination — both are pure
        functions of the candidate graph, so the maintained counts stay
        byte-identical to a recompute.
        """
        return EventCounts(
            match=self._n_edges,
            no_match=self.size_b * self.size_a - self._n_edges,
        )

    def result(self) -> CSJResult:
        """Package the maintained state as a :class:`CSJResult`.

        ``method``/``exact``/``similarity``/``events`` mirror the
        reference ``ExBaseline(matcher="hopcroft_karp")`` join;
        ``engine`` is ``"delta"`` so provenance stays visible.  The
        pairs are the maintained matching in ``b`` order.
        """
        match_of_b = np.array(self._match_of_b, dtype=np.int64)
        pairs_b = np.flatnonzero(match_of_b != _FREE)
        return CSJResult(
            method="ex-baseline",
            exact=True,
            size_b=self.size_b,
            size_a=self.size_a,
            epsilon=self.epsilon,
            pairs_b=pairs_b,
            pairs_a=match_of_b[pairs_b],
            events=self.events,
            elapsed_seconds=self.stats.repair_seconds,
            engine="delta",
            swapped=self.swapped,
        )

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def record_like(
        self, side: str, row: int, dimension: int, count: int = 1
    ) -> bool:
        """Absorb one like delta; returns True when edges changed.

        ``side`` names the constructor argument (``"first"`` or
        ``"second"``) the touched user belongs to; ``row`` is the user's
        row index in that community's snapshot matrix.  ``count`` must
        be positive — counters are aggregates and never decrease, and a
        zero delta is a caller bug (see
        :meth:`~repro.core.incremental.IncrementalCommunity.record_like`).
        """
        if side not in _SIDES:
            raise ValidationError(
                f"side must be one of {_SIDES}, got {side!r}"
            )
        if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
            raise ValidationError(
                f"like delta count must be a positive integer, got {count!r}"
            )
        touched_b = (side == "first") != self.swapped
        vectors = self._vectors_b if touched_b else self._vectors_a
        others = self._vectors_a if touched_b else self._vectors_b
        if not 0 <= row < len(vectors):
            raise ValidationError(
                f"row {row} out of range [0, {len(vectors)}) on side {side!r}"
            )
        if not 0 <= dimension < vectors.shape[1]:
            raise ValidationError(
                f"dimension {dimension} out of range [0, {vectors.shape[1]})"
            )
        started = time.perf_counter()
        self.stats.updates += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("repro_delta_updates_total")
        epsilon = self.epsilon
        old = int(vectors[row, dimension])
        new = old + count
        changed = self._apply_value(
            touched_b, row, dimension, old, new, others, epsilon
        )
        elapsed = time.perf_counter() - started
        self.stats.repair_seconds += elapsed
        if metrics is not None:
            metrics.observe("repro_delta_repair_seconds", elapsed)
        return changed

    def _apply_value(
        self,
        touched_b: bool,
        row: int,
        dimension: int,
        old: int,
        new: int,
        others: np.ndarray,
        epsilon: int,
    ) -> bool:
        vectors = self._vectors_b if touched_b else self._vectors_a
        maxs = self._maxs_b if touched_b else self._maxs_a
        other_mins = self._mins_a if touched_b else self._mins_b
        other_maxs = self._maxs_a if touched_b else self._maxs_b

        vectors[row, dimension] = new
        if new > maxs[dimension]:
            maxs[dimension] = new

        # Window gate: partners lose dim status on [old-e, new-e-1] and
        # gain it on [old+e+1, new+e].  When neither interval meets the
        # other side's (conservative) value range, no pair status can
        # flip anywhere and the graph is provably unchanged.
        lost_lo, lost_hi = old - epsilon, new - epsilon - 1
        gain_lo, gain_hi = old + epsilon + 1, new + epsilon
        range_lo = int(other_mins[dimension])
        range_hi = int(other_maxs[dimension])
        if (lost_hi < range_lo or lost_lo > range_hi) and (
            gain_hi < range_lo or gain_lo > range_hi
        ):
            self.stats.skipped += 1
            if self.metrics is not None:
                self.metrics.inc("repro_delta_skips_total")
            return False

        # Column scan: only partners inside the symmetric difference of
        # the two windows flipped their dim-`dimension` status.
        column = others[:, dimension]
        affected = np.flatnonzero(
            ((column >= lost_lo) & (column <= lost_hi))
            | ((column >= gain_lo) & (column <= gain_hi))
        )
        if affected.size == 0:
            self.stats.skipped += 1
            if self.metrics is not None:
                self.metrics.inc("repro_delta_skips_total")
            return False

        # Full per-dimension recheck, but only for the flipped partners.
        self.stats.pairs_rechecked += int(affected.size)
        if self.metrics is not None:
            self.metrics.inc(
                "repro_delta_pairs_rechecked_total", int(affected.size)
            )
        profile = vectors[row]
        now_within = (
            np.abs(others[affected] - profile) <= epsilon
        ).all(axis=1)

        adjacency = self._adj_b[row] if touched_b else self._adj_a[row]
        added: list[int] = []
        removed: list[int] = []
        for partner, within in zip(affected.tolist(), now_within.tolist()):
            if within and partner not in adjacency:
                added.append(partner)
            elif not within and partner in adjacency:
                removed.append(partner)
        if not added and not removed:
            return False

        if touched_b:
            self._update_edges(row, added, removed)
        else:
            for b_row in removed:
                self._update_edges(b_row, [], [row])
            for b_row in added:
                self._update_edges(b_row, [row], [])
        self._augment_to_maximum()
        return True

    def _update_edges(
        self, b_row: int, added: list[int], removed: list[int]
    ) -> None:
        """Apply edge changes around one B vertex, dropping dead matches."""
        for a_row in removed:
            self._adj_b[b_row].discard(a_row)
            self._adj_a[a_row].discard(b_row)
            self._n_edges -= 1
            if self._match_of_b[b_row] == a_row:
                self._match_of_b[b_row] = _FREE
                self._match_of_a[a_row] = _FREE
                self._n_matched -= 1
        for a_row in added:
            self._adj_b[b_row].add(a_row)
            self._adj_a[a_row].add(b_row)
            self._n_edges += 1
        if self.metrics is not None:
            if added:
                self.metrics.inc("repro_delta_edges_added_total", len(added))
            if removed:
                self.metrics.inc(
                    "repro_delta_edges_removed_total", len(removed)
                )
        self.stats.edges_added += len(added)
        self.stats.edges_removed += len(removed)

    # ------------------------------------------------------------------
    # augmenting-path repair
    # ------------------------------------------------------------------
    def _augment_to_maximum(self) -> None:
        """Hopcroft–Karp phases from the *current* matching.

        Unlike the from-scratch variant in :mod:`repro.core.matching`,
        this starts from whatever matching survived the delta.  After a
        single-vertex edge change the matching is within two
        augmentations of maximum, so the loop runs at most three phases
        (the last one proving maximality) — each O(V + E).
        """
        match_of_b = self._match_of_b
        match_of_a = self._match_of_a
        adj_b = self._adj_b
        n_b = len(adj_b)
        infinity = float("inf")
        while True:
            self.stats.augment_phases += 1
            if self.metrics is not None:
                self.metrics.inc("repro_delta_augment_phases_total")
            # BFS layering from every free B vertex at once.
            distances = [infinity] * n_b
            queue: deque[int] = deque()
            for b in range(n_b):
                if match_of_b[b] == _FREE:
                    distances[b] = 0
                    queue.append(b)
            reachable_free = False
            while queue:
                b = queue.popleft()
                for a in adj_b[b]:
                    partner = match_of_a[a]
                    if partner == _FREE:
                        reachable_free = True
                    elif distances[partner] == infinity:
                        distances[partner] = distances[b] + 1
                        queue.append(partner)
            if not reachable_free:
                return

            def dfs(b: int) -> bool:
                for a in adj_b[b]:
                    partner = match_of_a[a]
                    if partner == _FREE or (
                        distances[partner] == distances[b] + 1 and dfs(partner)
                    ):
                        match_of_b[b] = a
                        match_of_a[a] = b
                        return True
                distances[b] = infinity
                return False

            for b in range(n_b):
                if match_of_b[b] == _FREE and dfs(b):
                    self._n_matched += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaJoinMaintainer(couple={self.names!r}, "
            f"epsilon={self.epsilon}, edges={self._n_edges}, "
            f"matched={self._n_matched})"
        )
