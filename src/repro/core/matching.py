"""Matching substrate: the CSF heuristic and exact maximum matching.

The exact CSJ methods first collect the full candidate bipartite graph
(every pair ``<b, a>`` within per-dimension epsilon) and then select
one-to-one pairs.  The paper's selector is the **CSF** function
(*CoverSmallestFirst*): repeatedly cover the user with the smallest
number of remaining matches, pairing it with its neighbour that itself
has the smallest number of matches.  Covering small users first leaves
the largest pool of options for the rest, which is the classic
minimum-degree greedy heuristic for maximum bipartite matching.

CSF is a heuristic; it is not guaranteed to return a *maximum* matching.
This module therefore also ships a from-scratch Hopcroft–Karp
implementation (and a networkx cross-check used by the tests) so the
library can quantify how far CSF is from the optimum — see the matcher
ablation benchmark.

The matchers take the candidate graph as dict-of-set adjacency
(:func:`build_adjacency`), the form the python engines build.  The numpy
engines hand theirs over as two edge arrays to :func:`match_edges`,
whose CSF picks exactly what :func:`cover_smallest_first` picks, in the
same order: the isolated edges in bulk, the rest over CSR arrays with a
degree bucket queue.  Their first fit is :func:`first_fit` over an edge
sequence, which walks only the edges that share an end.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "linf_match",
    "linf_match_mask",
    "candidate_edges",
    "build_adjacency",
    "cover_smallest_first",
    "match_edges",
    "first_fit",
    "hopcroft_karp",
    "greedy_first_fit",
    "get_matcher",
    "MATCHERS",
]

Pairs = list[tuple[int, int]]
Adjacency = dict[int, set[int]]

_INT64_MAX = int(np.iinfo(np.int64).max)


def linf_match(vector_b: np.ndarray, vector_a: np.ndarray, epsilon: int) -> bool:
    """Per-dimension epsilon test for a single pair (the CSJ condition)."""
    diff = np.abs(
        vector_b.astype(np.int64, copy=False) - vector_a.astype(np.int64, copy=False)
    )
    return bool(diff.max(initial=0) <= epsilon)


def linf_match_mask(
    vector_b: np.ndarray, matrix_a: np.ndarray, epsilon: int
) -> np.ndarray:
    """Vectorised CSJ condition of one ``b`` against many ``a`` rows."""
    diff = np.abs(matrix_a.astype(np.int64, copy=False) - vector_b.astype(np.int64))
    return (diff <= epsilon).all(axis=1)


def candidate_edges(
    vectors_b: np.ndarray,
    vectors_a: np.ndarray,
    epsilon: int | Sequence[int] | np.ndarray,
    *,
    block_size: int = 512,
    metrics: "MetricsRegistry | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All candidate pairs within per-dimension epsilon, blockwise.

    ``epsilon`` is one threshold for every dimension or one per
    dimension.  Accumulates the condition one dimension at a time over
    ``(block, |A|)`` planes, so peak memory is independent of ``d``.
    Returns the pairs' ``b`` and ``a`` rows as two integer arrays, in
    ``(b, a)`` order.  Used by Ex-Baseline and as the exhaustive
    reference of the vector-epsilon join.  With
    ``metrics`` attached, the pairs examined and the candidates found
    are counted into the ``repro_core_candidate_pairs_examined_total`` /
    ``repro_core_candidate_pairs_found_total`` counters.
    """
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    found_b = [np.zeros(0, dtype=np.intp)]
    found_a = [np.zeros(0, dtype=np.intp)]
    # Same int64 widening as linf_match/linf_match_mask: narrow unsigned
    # or small-int dtypes would otherwise wrap around in the subtraction.
    vectors_b = vectors_b.astype(np.int64, copy=False)
    vectors_a = vectors_a.astype(np.int64, copy=False)
    n_b, n_dims = vectors_b.shape
    n_a = len(vectors_a)
    epsilons = np.broadcast_to(epsilon, (n_dims,))
    for start in range(0, n_b, block_size):
        block = vectors_b[start : start + block_size]
        mask = np.ones((len(block), n_a), dtype=bool)
        for dim in range(n_dims):
            diff = np.abs(block[:, dim : dim + 1] - vectors_a[None, :, dim])
            mask &= diff <= epsilons[dim]
            if not mask.any():
                break
        rows, cols = np.nonzero(mask)
        found_b.append(rows + start)
        found_a.append(cols)
    rows_b, rows_a = np.concatenate(found_b), np.concatenate(found_a)
    if metrics is not None:
        metrics.inc("repro_core_candidate_pairs_examined_total", n_b * n_a)
        metrics.inc("repro_core_candidate_pairs_found_total", rows_b.size)
    return rows_b, rows_a


def build_adjacency(pairs: Iterable[tuple[int, int]]) -> tuple[Adjacency, Adjacency]:
    """Build both directions of the candidate graph from raw pairs.

    Returns ``(matched_B, matched_A)`` in the paper's naming: a map from
    each ``b`` to its matches in ``A`` and vice versa.
    """
    matched_b: Adjacency = {}
    matched_a: Adjacency = {}
    for b_index, a_index in pairs:
        matched_b.setdefault(b_index, set()).add(a_index)
        matched_a.setdefault(a_index, set()).add(b_index)
    return matched_b, matched_a


def cover_smallest_first(matched_b: Adjacency, matched_a: Adjacency) -> Pairs:
    """The CSF function of Section 4.2.

    Deterministic variant: among all still-uncovered users on either
    side, take the one with the fewest remaining matches (ties: the ``B``
    side first — mirroring the algorithm's tie rule of repeating the
    ``B`` steps first — then the smaller user id).  Pair it with its
    neighbour having the fewest remaining matches (ties: smaller id),
    insert the pair, drop both users, and repeat until one side is
    exhausted.

    The input maps are not modified.  Pairs are returned in cover order.
    """
    adj_b = {b: set(partners) for b, partners in matched_b.items() if partners}
    adj_a = {a: set(partners) for a, partners in matched_a.items() if partners}
    # Heap entries: (degree, side, user_id); side 0 = B, 1 = A.
    heap: list[tuple[int, int, int]] = []
    for b, partners in adj_b.items():
        heap.append((len(partners), 0, b))
    for a, partners in adj_a.items():
        heap.append((len(partners), 1, a))
    heapq.heapify(heap)

    result: Pairs = []
    while heap:
        degree, side, user = heapq.heappop(heap)
        adjacency = adj_b if side == 0 else adj_a
        partners = adjacency.get(user)
        if partners is None or len(partners) != degree:
            continue  # stale heap entry (user covered or degree changed)
        other = adj_a if side == 0 else adj_b
        partner = min(partners, key=lambda candidate: (len(other[candidate]), candidate))
        pair = (user, partner) if side == 0 else (partner, user)
        result.append(pair)
        _remove_covered(adj_b, adj_a, heap, b_user=pair[0], a_user=pair[1])
        if not adj_b or not adj_a:
            break
    return result


def _remove_covered(
    adj_b: Adjacency,
    adj_a: Adjacency,
    heap: list[tuple[int, int, int]],
    *,
    b_user: int,
    a_user: int,
) -> None:
    """Remove a freshly covered pair and refresh neighbour degrees."""
    for neighbour in adj_b.pop(b_user, set()):
        partners = adj_a.get(neighbour)
        if partners is None:
            continue
        partners.discard(b_user)
        if partners:
            heapq.heappush(heap, (len(partners), 1, neighbour))
        else:
            del adj_a[neighbour]
    for neighbour in adj_a.pop(a_user, set()):
        partners = adj_b.get(neighbour)
        if partners is None:
            continue
        partners.discard(a_user)
        if partners:
            heapq.heappush(heap, (len(partners), 0, neighbour))
        else:
            del adj_b[neighbour]


def match_edges(
    rows_b: np.ndarray, rows_a: np.ndarray, matcher: str = "csf"
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``matcher`` selects from a candidate graph given as edges.

    Edge ``k`` joins user ``rows_b[k]`` of ``B`` and user ``rows_a[k]``
    of ``A``; the edges may come in any order and repeat.  Returns the
    selected pairs' ``b`` and ``a`` ids as two int64 arrays, in the
    order ``get_matcher(matcher)(*build_adjacency(pairs))`` returns
    them.  ``hopcroft_karp`` runs exactly that.  ``csf`` and ``greedy``
    build no dict: both take the distinct edges in ``(b, a)`` order,
    ``greedy`` runs :func:`first_fit` over them, and ``csf`` picks every
    isolated edge (no other edge at either end) in bulk and covers only
    the rest over CSR arrays (:func:`_cover_edges`).

    A graph laid out from disjoint ones (no id shared across them, each
    one's ids in its own order) is matched as each one alone would be:
    the matchers never look across components, and CSF's tie rule
    keeps every component's relative order, so splitting the picks by
    component gives each the picks of a separate call, in order.
    """
    rows_b = np.asarray(rows_b, dtype=np.int64)
    rows_a = np.asarray(rows_a, dtype=np.int64)
    if matcher not in ("csf", "greedy"):
        pairs = get_matcher(matcher)(*build_adjacency(zip(rows_b.tolist(), rows_a.tolist())))
        picked = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return picked[:, 0], picked[:, 1]
    if rows_b.size == 0:
        return rows_b, rows_a
    low_b, low_a = int(rows_b.min()), int(rows_a.min())
    span_a = int(rows_a.max()) - low_a + 1
    if (int(rows_b.max()) - low_b + 1) * span_a > _INT64_MAX:
        # Ids too sparse for one int64 edge key: match their ranks.
        ids_b, ids_a = np.sort(rows_b), np.sort(rows_a)
        picked_b, picked_a = match_edges(
            np.searchsorted(ids_b, rows_b), np.searchsorted(ids_a, rows_a), matcher
        )
        return ids_b[picked_b], ids_a[picked_a]
    # One stable argsort of the (b, a) keys orders the distinct edges by
    # b, then a; it is the kernel the MinMax encoder already runs, where
    # np.sort's own kernel adds about 0.3 MB of resident code.
    keys = (rows_b - low_b) * span_a + (rows_a - low_a)
    keys = keys[np.argsort(keys, kind="stable")]
    edge_b, edge_a = np.divmod(keys[_runs(keys)[0]], span_a)
    if matcher == "greedy":
        taken = first_fit(edge_b, edge_a)
        edge_b, edge_a = edge_b[taken], edge_a[taken]
    else:
        edge_b, edge_a = _cover_edges(edge_b, edge_a)
    return edge_b + low_b, edge_a + low_a


def first_fit(
    rows_b: np.ndarray, rows_a: np.ndarray, used_a: np.ndarray | None = None
) -> np.ndarray:
    """The edges first fit takes from a sequence: their indices, ascending.

    Edge ``k`` joins ``rows_b[k]`` and ``rows_a[k]``.  Walking the edges
    in order, first fit takes each edge whose two ends are both still
    free, and they are then used.  ``used_a``, a boolean array indexed
    by ``a`` id, marks the ``a`` ends used before the call and receives
    its picks, so pieces of a sequence that share no ``b`` pick what one
    walk over it would.

    Only a live edge (its ``a`` free at the start) can be taken, and a
    live edge that shares neither end with another live edge is taken
    wherever it stands: nothing before it can use its ends, and taking
    it uses no end of another.  So only the other live edges are walked
    one by one.  Ends are counted over the live edges' own id range.
    """
    if used_a is None:
        index = np.arange(rows_b.size)
    else:
        index = np.flatnonzero(~used_a[rows_a])
    if index.size == 0:
        return index
    ends_b, ends_a = rows_b[index], rows_a[index]
    taken = _once(ends_b) & _once(ends_a)
    contested = np.flatnonzero(~taken)
    if contested.size:
        taken[contested[_walk(ends_b[contested], ends_a[contested])]] = True
    taken = index[taken]
    if used_a is not None:
        used_a[rows_a[taken]] = True
    return taken


def _walk(rows_b: np.ndarray, rows_a: np.ndarray) -> list[int]:
    """First fit one edge at a time: the indices ``k`` of the edges
    ``(rows_b[k], rows_a[k])`` it takes, in order."""
    seen_b: set[int] = set()
    seen_a: set[int] = set()
    taken: list[int] = []
    for k, b, a in zip(range(rows_b.size), rows_b.tolist(), rows_a.tolist()):
        if b not in seen_b and a not in seen_a:
            seen_b.add(b)
            seen_a.add(a)
            taken.append(k)
    return taken


def _once(ids: np.ndarray) -> np.ndarray:
    """Whether each of the (non-empty) ``ids`` occurs only once in them.

    Counted over the ids' own range, or by a stable argsort when that
    range is much wider than the ids are many.
    """
    low = int(ids.min())
    span = int(ids.max()) - low + 1
    if span <= 4 * ids.size + 1024:
        shifted = ids - low
        return np.bincount(shifted)[shifted] == 1
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    # distinct[i]: sorted id i differs from the one before it.
    distinct = np.ones(ids.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:-1])
    once = np.empty(ids.size, dtype=bool)
    once[order] = distinct[:-1] & distinct[1:]
    return once


def _cover_edges(
    edge_b: np.ndarray, edge_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSF over distinct edges in ``(b, a)`` order: the picks' ``b`` and
    ``a`` ids, in cover order.

    The graph becomes CSR adjacency: vertices are ``B``'s distinct ids
    ascending, then ``A``'s, and vertex ``v``'s neighbours are
    ``adjacency[indptr[v]:indptr[v + 1]]``, ascending.  An isolated edge
    (both ends of degree 1) is its own component, so :func:`_cover_csr`
    covers only the rest, and the isolated edges are merged into its
    picks by CSF's own order.  An isolated edge's ``b`` keeps 1
    remaining until CSF picks it, from that end (``B`` numbers first),
    and picking it changes no other count.  So it is picked just before
    the first pick of the rest that CSF ranks after it: one made at a
    higher degree, or at degree 1 from a higher-numbered vertex.  With
    each degree-1 pick ranked by its user's number and every other
    above all numbers, that is the first pick whose running maximum
    rank passes the isolated ``b``'s number.
    """
    # One stable argsort of the a ids orders the edges by a, then b.
    size = edge_b.size
    by_a = np.argsort(edge_a, kind="stable")
    first_b, rank_b = _runs(edge_b)
    first_a, rank_a = _runs(edge_a[by_a])
    n_b = first_b.size
    if n_b == first_a.size == size:
        return edge_b, edge_a  # every edge isolated: picked in b order
    adjacency = np.empty(2 * size, dtype=np.int64)
    adjacency[:size][by_a] = n_b + rank_a
    adjacency[size:] = rank_b[by_a]
    indptr = np.concatenate([first_b, size + first_a, [adjacency.size]])
    degree = indptr[1:] - indptr[:-1]
    lone_a = adjacency[first_b]  # each b's first neighbour
    lone = np.flatnonzero((degree[:n_b] == 1) & (degree[lone_a] == 1))
    lone_a = lone_a[lone]
    degree[lone] = degree[lone_a] = 0
    users, partners, degrees = _cover_csr(indptr, adjacency, degree)
    if lone.size:
        rank = np.where(degrees == 1, users, indptr.size)
        at = np.searchsorted(np.maximum.accumulate(rank), lone) + np.arange(lone.size)
        merged = np.empty((2, users.size + lone.size), dtype=np.int64)
        rest = np.ones(merged.shape[1], dtype=bool)
        rest[at] = False
        merged[:, at] = lone, lone_a
        merged[:, rest] = users, partners
        users, partners = merged
    on_b = users < n_b
    ids_b, ids_a = edge_b[first_b], edge_a[by_a][first_a]
    return ids_b[np.where(on_b, users, partners)], ids_a[np.where(on_b, partners, users) - n_b]


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each run of equal values of an ascending
    array, and each element's run number."""
    start = np.empty(ordered.size, dtype=bool)
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    return np.flatnonzero(start), np.cumsum(start) - 1


def _cover_csr(
    indptr: np.ndarray, adjacency: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSF over CSR adjacency from each vertex's remaining ``counts``
    (its degree, or 0 to leave out its component): each pick's user and
    partner vertex, and the user's count when picked, in cover order.

    Vertices are numbered in the tie order (``B``'s ids ascending, then
    ``A``'s), so :func:`cover_smallest_first`'s next user is the live
    vertex with the fewest remaining neighbours and then the smallest
    number, and its partner is the user's neighbour with the fewest
    remaining and then the smallest number.  A covered vertex counts 0.

    ``buckets[d]`` is a heap of the vertices that had ``d`` remaining
    when pushed; a vertex is pushed again each time its count drops, so
    an entry whose count has changed since is stale and skipped.  No
    live vertex has fewer than ``low`` remaining, so the first live
    entry of the first non-empty bucket from ``low`` up is the next
    user, and its first neighbour with ``low`` remaining is its partner.
    """
    remaining = counts.tolist()
    top = max(remaining)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for vertex in np.flatnonzero(counts).tolist():
        buckets[remaining[vertex]].append(vertex)  # ascending, so a valid heap
    starts = indptr.tolist()
    neighbours = adjacency.tolist()
    push, pop = heapq.heappush, heapq.heappop
    users: list[int] = []
    partners: list[int] = []
    degrees: list[int] = []
    low = 1
    while low <= top:
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        user = pop(bucket)
        if remaining[user] != low:
            continue
        partner, fewest = -1, top + 1
        for other in neighbours[starts[user] : starts[user + 1]]:
            count = remaining[other]
            if 0 < count < fewest:
                partner, fewest = other, count
                if count == low:
                    break
        users.append(user)
        partners.append(partner)
        degrees.append(low)
        remaining[user] = remaining[partner] = 0
        for covered in (user, partner):
            for other in neighbours[starts[covered] : starts[covered + 1]]:
                count = remaining[other] - 1
                if count > 0:
                    remaining[other] = count
                    push(buckets[count], other)
                    if count < low:
                        low = count
                elif count == 0:
                    remaining[other] = 0
    return (
        np.array(users, dtype=np.int64),
        np.array(partners, dtype=np.int64),
        np.array(degrees, dtype=np.int64),
    )


def hopcroft_karp(matched_b: Adjacency, matched_a: Adjacency | None = None) -> Pairs:
    """Maximum bipartite matching via Hopcroft–Karp (from scratch).

    ``matched_a`` is accepted for signature symmetry with
    :func:`cover_smallest_first` but is not required.  Runs in
    ``O(E * sqrt(V))``.  Pairs are returned sorted by ``b`` id.
    """
    del matched_a  # derivable from matched_b; kept for API symmetry
    b_nodes = sorted(matched_b)
    adjacency = {b: sorted(matched_b[b]) for b in b_nodes}
    match_of_b: dict[int, int | None] = {b: None for b in b_nodes}
    match_of_a: dict[int, int | None] = {}
    for partners in adjacency.values():
        for a in partners:
            match_of_a.setdefault(a, None)

    infinity = float("inf")

    def bfs() -> bool:
        distances: dict[int, float] = {}
        queue: deque[int] = deque()
        for b in b_nodes:
            if match_of_b[b] is None:
                distances[b] = 0
                queue.append(b)
            else:
                distances[b] = infinity
        reachable_free = False
        while queue:
            b = queue.popleft()
            for a in adjacency[b]:
                partner = match_of_a[a]
                if partner is None:
                    reachable_free = True
                elif distances[partner] == infinity:
                    distances[partner] = distances[b] + 1
                    queue.append(partner)
        bfs.distances = distances  # type: ignore[attr-defined]
        return reachable_free

    def dfs(root: int) -> bool:
        """One augmenting path from ``root`` along the BFS layers.

        Iterative, so a path may be as long as the graph: ``path`` holds
        the ``b`` of each open step and ``tried`` how many of its
        neighbours it has tried, in the order a recursion would try them.
        """
        distances = bfs.distances  # type: ignore[attr-defined]
        path, tried = [root], [0]
        while path:
            b = path[-1]
            partners = adjacency[b]
            while tried[-1] < len(partners):
                a = partners[tried[-1]]
                tried[-1] += 1
                partner = match_of_a[a]
                if partner is None:
                    # Flip the path: each b takes the a it stepped through.
                    for step, tries in zip(path, tried):
                        a = adjacency[step][tries - 1]
                        match_of_b[step] = a
                        match_of_a[a] = step
                    return True
                if distances[partner] == distances[b] + 1:
                    path.append(partner)
                    tried.append(0)
                    break
            else:
                distances[b] = infinity
                path.pop()
                tried.pop()
        return False

    while bfs():
        for b in b_nodes:
            if match_of_b[b] is None:
                dfs(b)
    return sorted(
        (b, a) for b, a in match_of_b.items() if a is not None
    )


def greedy_first_fit(matched_b: Adjacency, matched_a: Adjacency | None = None) -> Pairs:
    """First-fit greedy matcher (the approximate methods' behaviour).

    Processes ``b`` users in ascending id and commits each to its
    smallest-id still-free neighbour.  Provided so approximate matching
    behaviour can also be exercised on a pre-built candidate graph.
    """
    del matched_a
    used_a: set[int] = set()
    result: Pairs = []
    for b in sorted(matched_b):
        for a in sorted(matched_b[b]):
            if a not in used_a:
                used_a.add(a)
                result.append((b, a))
                break
    return result


Matcher = Callable[[Adjacency, Adjacency], Pairs]

MATCHERS: dict[str, Matcher] = {
    "csf": cover_smallest_first,
    "hopcroft_karp": hopcroft_karp,
    "greedy": greedy_first_fit,
}


def get_matcher(name: str) -> Matcher:
    """Look up a matcher by registry name (``csf``, ``hopcroft_karp``...)."""
    try:
        return MATCHERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown matcher {name!r}; available: {', '.join(sorted(MATCHERS))}"
        ) from None


def matching_size_upper_bound(matched_b: Adjacency) -> int:
    """Cheap upper bound: cannot exceed either side's vertex count."""
    n_a = len({a for partners in matched_b.values() for a in partners})
    return min(len(matched_b), n_a)


def pairs_are_one_to_one(pairs: Sequence[tuple[int, int]]) -> bool:
    """True when no user appears twice on its side of the pairing."""
    b_side = [b for b, _ in pairs]
    a_side = [a for _, a in pairs]
    return len(set(b_side)) == len(b_side) and len(set(a_side)) == len(a_side)


def pairs_respect_graph(
    pairs: Sequence[tuple[int, int]], matched_b: Mapping[int, set[int]]
) -> bool:
    """True when every selected pair is an edge of the candidate graph."""
    return all(b in matched_b and a in matched_b[b] for b, a in pairs)
