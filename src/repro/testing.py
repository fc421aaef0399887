"""Public testing utilities: oracles and validators for CSJ results.

These helpers power the library's own test suite and are exported so
downstream users can validate the system on *their* data (or validate
their own CSJ implementations against this one):

* :func:`brute_force_candidate_pairs` — the exhaustive per-dimension
  epsilon join, the ground truth candidate graph;
* :func:`maximum_matching_size` — the true CSJ optimum via networkx;
* :func:`assert_valid_matching` — structural validation of any result;
* :func:`random_counter_couple` — structured random inputs whose
  candidate graphs have real matching ambiguity (not just isolated
  vertices), useful for fuzzing;
* :func:`random_counter_matrix` — one counter matrix with near-copy
  structure (the single-community building block);
* :func:`banded_community_fleet` — a fleet of communities in
  well-separated value bands, the canonical batch-engine workload (real
  intra-band similarity, provably-zero inter-band similarity).
"""

from __future__ import annotations

import sys

import numpy as np

from .core.errors import ValidationError
from .core.types import Community, CSJResult

__all__ = [
    "brute_force_candidate_pairs",
    "maximum_matching_size",
    "assert_valid_matching",
    "validate_result",
    "random_counter_couple",
    "random_counter_matrix",
    "banded_community_fleet",
]


def brute_force_candidate_pairs(
    vectors_b: np.ndarray, vectors_a: np.ndarray, epsilon: int
) -> set[tuple[int, int]]:
    """All pairs within per-dimension epsilon, by exhaustive check.

    Quadratic — intended for oracle use on small inputs.
    """
    pairs = set()
    for b_index, vector_b in enumerate(np.asarray(vectors_b)):
        diffs = np.abs(np.asarray(vectors_a) - vector_b)
        for a_index in np.flatnonzero((diffs <= epsilon).all(axis=1)):
            pairs.add((int(b_index), int(a_index)))
    return pairs


def maximum_matching_size(pairs: set[tuple[int, int]]) -> int:
    """Maximum bipartite matching size of a candidate set (networkx)."""
    import networkx as nx

    if not pairs:
        return 0
    graph = nx.Graph()
    b_nodes = {("b", b) for b, _ in pairs}
    graph.add_nodes_from(b_nodes, bipartite=0)
    graph.add_nodes_from({("a", a) for _, a in pairs}, bipartite=1)
    graph.add_edges_from((("b", b), ("a", a)) for b, a in pairs)
    # networkx's Hopcroft–Karp recurses once per step of an augmenting
    # path, and a path may pass every B node.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(b_nodes))
    try:
        matching = nx.bipartite.maximum_matching(graph, top_nodes=b_nodes)
    finally:
        sys.setrecursionlimit(limit)
    return len(matching) // 2


def assert_valid_matching(
    pairs: list[tuple[int, int]],
    vectors_b: np.ndarray,
    vectors_a: np.ndarray,
    epsilon: int,
) -> None:
    """Raise AssertionError unless ``pairs`` is a valid CSJ matching."""
    b_side = [b for b, _ in pairs]
    a_side = [a for _, a in pairs]
    assert len(set(b_side)) == len(b_side), "a B user matched twice"
    assert len(set(a_side)) == len(a_side), "an A user matched twice"
    for b_index, a_index in pairs:
        diff = np.abs(
            np.asarray(vectors_b)[b_index] - np.asarray(vectors_a)[a_index]
        ).max()
        assert diff <= epsilon, f"pair ({b_index}, {a_index}) violates epsilon"


def validate_result(
    result: CSJResult, community_b: Community, community_a: Community
) -> None:
    """Full validation of a result against its (oriented) inputs.

    Checks that the memoised ``pairs`` view agrees with the pair arrays,
    then one-to-one structure, index bounds and the per-dimension
    condition on the arrays, and the Eq. (1) bookkeeping.  Raises
    :class:`~repro.core.errors.ValidationError` on the first violation.
    """
    result.check_one_to_one()
    if result.size_b != community_b.n_users or result.size_a != community_a.n_users:
        raise ValidationError("result sizes do not match the supplied communities")
    pairs_b, pairs_a = result.pairs_b, result.pairs_a
    for side, ids, size in (
        ("b", pairs_b, community_b.n_users),
        ("a", pairs_a, community_a.n_users),
    ):
        outside = np.flatnonzero((ids < 0) | (ids >= size))
        if outside.size:
            raise ValidationError(f"{side} index {ids[outside[0]]} out of range")
    diff = np.abs(community_b.vectors[pairs_b] - community_a.vectors[pairs_a])
    violating = np.flatnonzero(diff.max(axis=1, initial=0) > result.epsilon)
    if violating.size:
        first = violating[0]
        raise ValidationError(
            f"pair ({pairs_b[first]}, {pairs_a[first]}) violates epsilon "
            f"{result.epsilon}"
        )
    if not 0.0 <= result.similarity <= 1.0:
        raise ValidationError(f"similarity {result.similarity} outside [0, 1]")


def random_counter_couple(
    seed: int,
    *,
    n_b: int = 18,
    n_a: int = 24,
    n_dims: int = 6,
    high: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Random counter matrices with built-in near-duplicate structure.

    Roughly a third of the rows are near-copies of earlier rows (within
    one like per dimension), so the epsilon-1 candidate graph contains
    genuine matching ambiguity — far better fuzzing material than
    independent uniform rows, which almost never match.
    """
    rng = np.random.default_rng(seed)

    def matrix(n: int, seed_rows: np.ndarray | None = None) -> np.ndarray:
        base = rng.integers(0, high, size=(n, n_dims))
        for row in range(1, n, 3):
            if seed_rows is not None and row % 2 == 1:
                # Cross-side near-copy: creates real B x A candidates.
                source = seed_rows[rng.integers(0, len(seed_rows))]
            else:
                source = base[rng.integers(0, row)]
            noise = rng.integers(-1, 2, size=n_dims)
            base[row] = np.maximum(source + noise, 0)
        return base.astype(np.int64)

    vectors_b = matrix(n_b)
    vectors_a = matrix(n_a, seed_rows=vectors_b)
    return vectors_b, vectors_a


def random_counter_matrix(
    rng: np.random.Generator, n: int, d: int, high: int
) -> np.ndarray:
    """Counters with duplicates: one matrix with near-copy structure.

    Every third row is a near-copy (within one like per dimension) of an
    earlier row, so the matrix has genuine epsilon-1 self-similarity.
    """
    base = rng.integers(0, high, size=(n, d))
    for row in range(1, n, 3):
        source = rng.integers(0, row)
        noise = rng.integers(-1, 2, size=d)
        base[row] = np.maximum(base[source] + noise, 0)
    return base.astype(np.int64)


def banded_community_fleet(
    n_bands: int = 3,
    per_band: int = 4,
    *,
    users: int = 24,
    dims: int = 5,
    seed: int = 3,
    band_gap: int = 500,
    high: int = 20,
    name_format: str = "band{band}-m{member}",
) -> list[Community]:
    """Communities in well-separated value bands.

    Within a band every community perturbs the same archetype matrix, so
    intra-band pairs have real similarity and real join work; bands sit
    ``band_gap`` counts apart in every dimension, so inter-band pairs
    are provably dissimilar at small epsilon — exactly the envelope
    pre-screen's provably-zero case.  This is the canonical workload for
    the batch-engine tests and benchmarks; ``name_format`` receives
    ``band`` and ``member`` keywords.
    """
    rng = np.random.default_rng(seed)
    fleet: list[Community] = []
    for band in range(n_bands):
        base = rng.integers(0, high, size=(users, dims)) + band_gap * band
        for member in range(per_band):
            noise = rng.integers(-1, 2, size=(users, dims))
            vectors = np.maximum(base + noise, 0)
            fleet.append(
                Community(name_format.format(band=band, member=member), vectors)
            )
    return fleet
