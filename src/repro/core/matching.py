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
whose CSF runs over CSR arrays with a degree bucket queue and picks
exactly what :func:`cover_smallest_first` picks, in the same order.
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
    them.  ``hopcroft_karp`` and ``greedy`` run exactly that; ``csf``
    builds no dict and covers over CSR arrays (:func:`_cover_csr`).

    A graph laid out from disjoint ones (no id shared across them, each
    one's ids in its own order) is matched as each one alone would be:
    the matchers never look across components, and CSF's tie rule
    keeps every component's relative order, so splitting the picks by
    component gives each the picks of a separate call, in order.
    """
    rows_b = np.asarray(rows_b, dtype=np.int64)
    rows_a = np.asarray(rows_a, dtype=np.int64)
    if matcher != "csf":
        pairs = get_matcher(matcher)(*build_adjacency(zip(rows_b.tolist(), rows_a.tolist())))
        picked = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return picked[:, 0], picked[:, 1]
    if rows_b.size == 0:
        return rows_b, rows_a
    low_b, low_a = int(rows_b.min()), int(rows_a.min())
    span_a = int(rows_a.max()) - low_a + 1
    if (int(rows_b.max()) - low_b + 1) * span_a > _INT64_MAX:
        # Ids too sparse for one int64 edge key: cover their ranks.
        ids_b, ids_a = np.sort(rows_b), np.sort(rows_a)
        picked_b, picked_a = match_edges(
            np.searchsorted(ids_b, rows_b), np.searchsorted(ids_a, rows_a)
        )
        return ids_b[picked_b], ids_a[picked_a]
    ids_b, ids_a, indptr, adjacency = _csr(rows_b - low_b, rows_a - low_a, span_a)
    users, partners = _cover_csr(indptr, adjacency)
    on_b = users < ids_b.size
    vertex_b = np.where(on_b, users, partners)
    vertex_a = np.where(on_b, partners, users) - ids_b.size
    return ids_b[vertex_b] + low_b, ids_a[vertex_a] + low_a


def _csr(
    rows_b: np.ndarray, rows_a: np.ndarray, span_a: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bipartite graph of non-negative edge arrays, ``rows_a`` below
    ``span_a``, as CSR adjacency.

    Vertices are ``B``'s distinct ids ascending, then ``A``'s; vertex
    ``v``'s neighbours are ``adjacency[indptr[v]:indptr[v + 1]]``,
    ascending, each edge once.  Returns ``(ids_b, ids_a, indptr,
    adjacency)``, the ids being the vertices' own.
    """
    # One sort of the (b, a) keys orders the distinct edges by b, then
    # a; one stable argsort of their a ids orders them by a, then b.
    # Both are stable argsorts, the kernel the MinMax encoder already
    # runs: np.sort's own kernel adds about 0.3 MB of resident code.
    keys = rows_b * span_a + rows_a
    keys = keys[np.argsort(keys, kind="stable")]
    keys = keys[_runs(keys)[0]]
    edge_b, edge_a = np.divmod(keys, span_a)
    by_a = np.argsort(edge_a, kind="stable")
    first_b, rank_b = _runs(edge_b)
    first_a, rank_a = _runs(edge_a[by_a])
    adjacency = np.empty(2 * keys.size, dtype=np.int64)
    adjacency[: keys.size][by_a] = first_b.size + rank_a
    adjacency[keys.size :] = rank_b[by_a]
    indptr = np.concatenate([first_b, keys.size + first_a, [adjacency.size]])
    return edge_b[first_b], edge_a[by_a][first_a], indptr, adjacency


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each run of equal values of an ascending
    array, and each element's run number."""
    start = np.empty(ordered.size, dtype=bool)
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    return np.flatnonzero(start), np.cumsum(start) - 1


def _cover_csr(
    indptr: np.ndarray, adjacency: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSF over CSR adjacency: each pick's user and partner vertex, in
    cover order.

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
    remaining = np.diff(indptr).tolist()
    top = max(remaining)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for vertex, count in enumerate(remaining):
        buckets[count].append(vertex)  # ascending, so a valid heap
    starts = indptr.tolist()
    neighbours = adjacency.tolist()
    push, pop = heapq.heappush, heapq.heappop
    users: list[int] = []
    partners: list[int] = []
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
    return np.array(users, dtype=np.int64), np.array(partners, dtype=np.int64)


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
