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
conditions exactly as before.  :class:`VectorEpsilonJoin` implements
both the exhaustive baseline and the encoded (MinMax-style) join under
a vector epsilon, with the same CSF / Hopcroft–Karp selection stage.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.encoding import split_dimensions
from ..core.errors import ConfigurationError
from ..core.matching import build_adjacency, get_matcher
from ..core.types import Community, CSJResult, pairs_from_tuples
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
        self.epsilons = vector
        self.strategy = strategy
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)
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
            raw_pairs = self._candidates_encoded(
                community_b.vectors, community_a.vectors
            )
        else:
            raw_pairs = self._candidates_baseline(
                community_b.vectors, community_a.vectors
            )
        if raw_pairs:
            matched_b, matched_a = build_adjacency(raw_pairs)
            selected = self._matcher(matched_b, matched_a)
        else:
            selected = []
        elapsed = time.perf_counter() - started
        pairs_b, pairs_a = pairs_from_tuples(selected)
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

    # ------------------------------------------------------------------
    # candidate enumeration
    # ------------------------------------------------------------------
    def _match_mask(self, vector_b: np.ndarray, rows_a: np.ndarray) -> np.ndarray:
        diff = np.abs(rows_a - vector_b)
        return (diff <= self.epsilons).all(axis=1)

    def _candidates_baseline(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray
    ) -> list[tuple[int, int]]:
        pairs: list[tuple[int, int]] = []
        for b_index, vector_b in enumerate(vectors_b):
            hits = np.flatnonzero(self._match_mask(vector_b, vectors_a))
            pairs.extend((b_index, int(a_index)) for a_index in hits)
        return pairs

    def _candidates_encoded(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray
    ) -> list[tuple[int, int]]:
        """Generalised MinMax pruning with per-dimension intervals."""
        n_dims = vectors_b.shape[1]
        slices = split_dimensions(n_dims, min(self.n_parts, n_dims))

        parts_b = np.stack(
            [vectors_b[:, sl].sum(axis=1) for sl in slices], axis=1
        )
        encoded_id = parts_b.sum(axis=1)

        lowered = np.maximum(vectors_a - self.epsilons, 0)
        raised = vectors_a + self.epsilons
        range_min = np.stack([lowered[:, sl].sum(axis=1) for sl in slices], axis=1)
        range_max = np.stack([raised[:, sl].sum(axis=1) for sl in slices], axis=1)
        encoded_min = range_min.sum(axis=1)
        encoded_max = range_max.sum(axis=1)

        order_a = np.lexsort(
            (np.arange(len(encoded_min)), encoded_max, encoded_min)
        )
        encoded_min = encoded_min[order_a]
        encoded_max = encoded_max[order_a]
        range_min = range_min[order_a]
        range_max = range_max[order_a]

        pairs: list[tuple[int, int]] = []
        for b_index in np.argsort(encoded_id, kind="stable"):
            own_id = encoded_id[b_index]
            hi = int(np.searchsorted(encoded_min, own_id, side="right"))
            if hi == 0:
                continue
            window = encoded_max[:hi] >= own_id
            if not window.any():
                continue
            overlap = (
                (parts_b[b_index] >= range_min[:hi])
                & (parts_b[b_index] <= range_max[:hi])
            ).all(axis=1)
            positions = np.flatnonzero(window & overlap)
            if positions.size == 0:
                continue
            rows = order_a[positions]
            full = self._match_mask(vectors_b[b_index], vectors_a[rows])
            pairs.extend(
                (int(b_index), int(a_index)) for a_index in rows[full]
            )
        return pairs


def vector_epsilon_similarity(
    first: Community,
    second: Community,
    epsilons: object,
    **options: object,
) -> CSJResult:
    """One-call vector-epsilon CSJ similarity (Eq. (1) semantics)."""
    return VectorEpsilonJoin(epsilons, **options).join(first, second)
