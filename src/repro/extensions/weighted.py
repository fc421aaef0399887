"""Weighted community similarity.

Eq. (1) counts every matched subscriber equally.  A brand, however,
often cares more about its *engaged* audience: a matched pair of
heavy users signals more shared audience value than a pair of near-
silent accounts.  This extension reweights Eq. (1) by per-user weights:

```
weighted_similarity(B, A) = sum of w(b) over matched b / sum of w(b) over B
```

with ``w`` either uniform (recovering the paper's measure), the user's
total activity (its counter sum), or a caller-supplied weight vector.
The matching itself is produced by any of the stock CSJ methods, so the
one-to-one semantics are untouched — only the aggregation changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import get_algorithm
from ..core.errors import ConfigurationError
from ..core.types import Community, CSJResult

__all__ = ["WeightedCSJResult", "weighted_similarity"]


@dataclass(frozen=True)
class WeightedCSJResult:
    """A CSJ result with its weighted aggregation."""

    base: CSJResult
    weighted: float
    unweighted: float
    scheme: str

    @property
    def weighted_percent(self) -> float:
        return 100.0 * self.weighted


def _weights(community: Community, scheme: object) -> np.ndarray:
    if isinstance(scheme, str):
        if scheme == "uniform":
            return np.ones(community.n_users, dtype=np.float64)
        if scheme == "activity":
            totals = community.vectors.sum(axis=1).astype(np.float64)
            return totals + 1.0  # silent accounts still count a little
        raise ConfigurationError(
            f"unknown weight scheme {scheme!r}; use 'uniform', 'activity' "
            "or an explicit weight vector"
        )
    weights = np.asarray(scheme, dtype=np.float64)
    if weights.shape != (community.n_users,):
        raise ConfigurationError(
            f"weight vector must have shape ({community.n_users},), "
            f"got {weights.shape}"
        )
    if (weights < 0).any():
        raise ConfigurationError("weights must be non-negative")
    if weights.sum() == 0:
        raise ConfigurationError("weights must not all be zero")
    return weights


def weighted_similarity(
    first: Community,
    second: Community,
    *,
    epsilon: int,
    weights: object = "activity",
    method: str = "ex-minmax",
    optimize: bool = False,
    **options: object,
) -> WeightedCSJResult:
    """Weighted Eq. (1) over a CSJ matching.

    ``weights`` applies to the (oriented) ``B`` side — the smaller
    community whose coverage Eq. (1) measures.  Accepts ``"uniform"``,
    ``"activity"`` or an explicit per-user vector aligned with the
    oriented ``B`` rows.

    With ``optimize=False`` (default) the matching is produced by the
    chosen stock method, which maximises the *count* of pairs; with
    ``optimize=True`` the matching itself maximises the *matched
    weight* (maximum-weight bipartite matching over the candidate
    graph, via networkx) — the two differ when a heavy user competes
    with several light ones for the same partners.
    """
    if optimize:
        return _optimal_weighted(
            first, second, epsilon=epsilon, weights=weights
        )
    algorithm = get_algorithm(method, epsilon, **options)
    result = algorithm.join(first, second)
    oriented_b = second if result.swapped else first
    weight_vector = _weights(oriented_b, weights)
    matched_weight = float(weight_vector[result.pairs_b].sum())
    total_weight = float(weight_vector.sum())
    scheme = weights if isinstance(weights, str) else "custom"
    return WeightedCSJResult(
        base=result,
        weighted=matched_weight / total_weight,
        unweighted=result.similarity,
        scheme=scheme,
    )


def _optimal_weighted(
    first: Community,
    second: Community,
    *,
    epsilon: int,
    weights: object,
) -> WeightedCSJResult:
    """Maximum-weight matching over the exact candidate graph."""
    import time

    import networkx as nx

    from ..algorithms.minmax import band_edges
    from ..core.types import CSJResult, pairs_from_tuples
    from ..core.validation import validate_epsilon, validate_pair

    epsilon = validate_epsilon(epsilon)
    community_b, community_a, swapped = validate_pair(first, second)
    weight_vector = _weights(community_b, weights)
    started = time.perf_counter()
    rows_b, rows_a = band_edges(community_b, community_a, epsilon)
    graph = nx.Graph()
    for b_index, a_index in zip(rows_b.tolist(), rows_a.tolist()):
        graph.add_edge(
            ("b", b_index), ("a", a_index), weight=float(weight_vector[b_index])
        )
    matching = nx.max_weight_matching(graph)
    pairs = sorted(
        (left[1], right[1]) if left[0] == "b" else (right[1], left[1])
        for left, right in matching
    )
    pairs_b, pairs_a = pairs_from_tuples(pairs)
    elapsed = time.perf_counter() - started
    result = CSJResult(
        method="weighted-optimal",
        exact=True,
        size_b=community_b.n_users,
        size_a=community_a.n_users,
        epsilon=int(epsilon),
        pairs_b=pairs_b,
        pairs_a=pairs_a,
        elapsed_seconds=elapsed,
        swapped=swapped,
    )
    matched_weight = float(weight_vector[pairs_b].sum())
    scheme = weights if isinstance(weights, str) else "custom"
    return WeightedCSJResult(
        base=result,
        weighted=matched_weight / float(weight_vector.sum()),
        unweighted=result.similarity,
        scheme=scheme,
    )
