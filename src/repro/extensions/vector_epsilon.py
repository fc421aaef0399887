"""Per-category epsilon vectors: a natural CSJ generalisation.

The paper fixes one epsilon for all dimensions because every dimension
is a like counter on the same scale.  In practice categories differ in
volume — Table 1 shows Entertainment collecting ~4450x the likes of
Communication_Services — so a deployment may want a *vector* threshold
``eps_i`` per category (e.g. proportional to each category's typical
counter magnitude).  The CSJ condition becomes
``|b_i - a_i| <= eps_i for every i``.

The MinMax encoding generalises verbatim: the per-dimension interval of
a candidate value ``v`` in dimension ``i`` is
``[max(0, v - eps_i), v + eps_i]``, part ranges are the interval sums,
and the encoded ID window and part-overlap tests remain *necessary*
conditions exactly as before.  So :class:`VectorEpsilonJoin` runs no
kernel of its own: its ``"encoded"`` strategy takes the candidate edges
from the MinMax band pass (:func:`~repro.algorithms.minmax.band_edges`,
which takes the vector as it is), its ``"baseline"`` strategy from the
exhaustive :func:`~repro.core.matching.candidate_edges`, and both hand
them to the same CSF / Hopcroft–Karp / greedy selection
(:func:`~repro.core.matching.match_edges`).
"""

from __future__ import annotations

import time

import numpy as np

from ..algorithms.minmax import band_edges
from ..core.errors import ConfigurationError
from ..core.matching import candidate_edges, get_matcher, match_edges
from ..core.types import Community, CSJResult
from ..core.validation import validate_pair

__all__ = ["VectorEpsilonJoin", "vector_epsilon_similarity"]


class VectorEpsilonJoin:
    """One-to-one join under a per-dimension epsilon vector.

    Parameters
    ----------
    epsilons:
        Sequence of ``d`` non-negative integer thresholds.
    strategy:
        ``"encoded"`` (MinMax-style pruning, default) or ``"baseline"``
        (exhaustive candidate enumeration).
    matcher:
        ``"csf"`` (paper heuristic), ``"hopcroft_karp"`` (maximum) or
        ``"greedy"`` (first-fit, the approximate behaviour).
    n_parts:
        Part count of the generalised encoding (clamped to ``d``).
    """

    def __init__(
        self,
        epsilons: object,
        *,
        strategy: str = "encoded",
        matcher: str = "csf",
        n_parts: int = 4,
    ) -> None:
        vector = np.asarray(epsilons)
        if vector.ndim != 1 or vector.size == 0:
            raise ConfigurationError("epsilons must be a non-empty 1-D sequence")
        if not np.issubdtype(vector.dtype, np.integer):
            rounded = np.rint(vector)
            if not np.array_equal(rounded, vector):
                raise ConfigurationError("epsilons must be integers")
            vector = rounded
        vector = vector.astype(np.int64)
        if (vector < 0).any():
            raise ConfigurationError("epsilons must be non-negative")
        if strategy not in ("encoded", "baseline"):
            raise ConfigurationError(
                f"strategy must be 'encoded' or 'baseline', got {strategy!r}"
            )
        get_matcher(matcher)  # rejects an unknown name here
        self.epsilons = vector
        self.strategy = strategy
        self.matcher_name = matcher
        self.n_parts = int(n_parts)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def join(self, first: Community, second: Community) -> CSJResult:
        """Run the vector-epsilon CSJ join and package the result."""
        community_b, community_a, swapped = validate_pair(first, second)
        if community_b.n_dims != self.epsilons.size:
            raise ConfigurationError(
                f"epsilon vector has d={self.epsilons.size}, communities "
                f"have d={community_b.n_dims}"
            )
        started = time.perf_counter()
        if self.strategy == "encoded":
            rows_b, rows_a = band_edges(
                community_b, community_a, tuple(self.epsilons.tolist()), self.n_parts
            )
        else:
            rows_b, rows_a = candidate_edges(
                community_b.vectors, community_a.vectors, self.epsilons
            )
        pairs_b, pairs_a = match_edges(rows_b, rows_a, self.matcher_name)
        elapsed = time.perf_counter() - started
        return CSJResult(
            method=f"vector-epsilon-{self.strategy}",
            exact=self.matcher_name != "greedy",
            size_b=community_b.n_users,
            size_a=community_a.n_users,
            epsilon=int(self.epsilons.max()),
            pairs_b=pairs_b,
            pairs_a=pairs_a,
            elapsed_seconds=elapsed,
            swapped=swapped,
        )


def vector_epsilon_similarity(
    first: Community,
    second: Community,
    epsilons: object,
    **options: object,
) -> CSJResult:
    """One-call vector-epsilon CSJ similarity (Eq. (1) semantics)."""
    return VectorEpsilonJoin(epsilons, **options).join(first, second)
