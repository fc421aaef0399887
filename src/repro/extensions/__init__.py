"""Extensions beyond the paper's scope.

These modules generalise CSJ in directions the paper's formulation
naturally invites but does not evaluate: per-category epsilon vectors
(:mod:`repro.extensions.vector_epsilon`), weighted community
similarity (:mod:`repro.extensions.weighted`) and out-of-core joins
(:mod:`repro.extensions.out_of_core`).  They reuse the core substrates
(the MinMax band pass's candidate edges, CSF/Hopcroft–Karp matching)
and are exercised by their own tests and benchmarks.
"""

from .out_of_core import OnDiskCommunity, out_of_core_similarity
from .vector_epsilon import (
    VectorEpsilonJoin,
    vector_epsilon_similarity,
)
from .weighted import WeightedCSJResult, weighted_similarity

__all__ = [
    "VectorEpsilonJoin",
    "vector_epsilon_similarity",
    "WeightedCSJResult",
    "weighted_similarity",
    "OnDiskCommunity",
    "out_of_core_similarity",
]
