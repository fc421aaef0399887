"""repro — reproduction of "Community Similarity based on User Profile
Joins" (EDBT 2024).

The package implements the CSJ join operator (a one-to-one matching
variant of the classic epsilon-join with a per-dimension threshold), the
paper's six solution methods, the dataset simulators behind its
evaluation, and a harness that regenerates every table and figure.

Quick start::

    from repro import VKGenerator, build_couple, csj_similarity
    from repro.datasets import PAPER_COUPLES

    b, a = build_couple(PAPER_COUPLES[0], VKGenerator(seed=7), scale=1 / 256)
    result = csj_similarity(b, a, epsilon=1, method="ex-minmax")
    print(result.summary())
"""

from __future__ import annotations

from .algorithms import (
    ALL_METHODS,
    APPROXIMATE_METHODS,
    EXACT_METHODS,
    ApBaseline,
    ApMinMax,
    ApSuperEGO,
    CSJAlgorithm,
    ExBaseline,
    ExMinMax,
    ExSuperEGO,
    get_algorithm,
    method_display_name,
)
from .core import (
    Community,
    CSJResult,
    DeltaJoinMaintainer,
    EventCounts,
    EventTrace,
    EventType,
    IncrementalCommunity,
    MatchedPair,
    MinMaxEncoder,
    ReproError,
    SizeRatioError,
    ValidationError,
)
from .catalog import PersistentCatalog
from .datasets import (
    SYNTHETIC_EPSILON,
    VK_EPSILON,
    SyntheticGenerator,
    VKGenerator,
    build_couple,
)
from .engine import (
    BatchEngine,
    CheckpointLog,
    Disposition,
    JoinResultCache,
    PairJob,
    PairOutcome,
    community_fingerprint,
)
from .obs import JoinTelemetry, MetricsRegistry, StageClock, stage_timer
from .serve import (
    AdmissionPolicy,
    CommunityStore,
    CSJServer,
    ServeClient,
    ServeConfig,
    ServerThread,
)
from .shard import (
    PartitionPlan,
    ShardCoordinator,
    ShardFleet,
    partition_catalog,
    plan_partition,
)

from ._version import __version__  # noqa: E402

__all__ = [
    "__version__",
    "csj_similarity",
    "Community",
    "CSJResult",
    "EventCounts",
    "EventTrace",
    "EventType",
    "IncrementalCommunity",
    "DeltaJoinMaintainer",
    "MatchedPair",
    "MinMaxEncoder",
    "ReproError",
    "ValidationError",
    "SizeRatioError",
    "CSJAlgorithm",
    "ApBaseline",
    "ExBaseline",
    "ApMinMax",
    "ExMinMax",
    "ApSuperEGO",
    "ExSuperEGO",
    "get_algorithm",
    "method_display_name",
    "ALL_METHODS",
    "APPROXIMATE_METHODS",
    "EXACT_METHODS",
    "VKGenerator",
    "SyntheticGenerator",
    "build_couple",
    "PersistentCatalog",
    "VK_EPSILON",
    "SYNTHETIC_EPSILON",
    "BatchEngine",
    "CheckpointLog",
    "Disposition",
    "JoinResultCache",
    "PairJob",
    "PairOutcome",
    "community_fingerprint",
    "JoinTelemetry",
    "MetricsRegistry",
    "StageClock",
    "stage_timer",
    "CSJServer",
    "ServeConfig",
    "ServerThread",
    "ServeClient",
    "CommunityStore",
    "AdmissionPolicy",
    "PartitionPlan",
    "ShardCoordinator",
    "ShardFleet",
    "plan_partition",
    "partition_catalog",
]


def csj_similarity(
    first: Community,
    second: Community,
    *,
    epsilon: int,
    method: str = "ex-minmax",
    **options: object,
) -> CSJResult:
    """One-call CSJ join: build the named method and run it.

    ``options`` are forwarded to the method constructor (``engine``,
    ``n_parts``, ``matcher``, ``t``, ...).  Returns the full
    :class:`~repro.core.types.CSJResult`; its ``similarity`` attribute is
    Eq. (1) of the paper.
    """
    algorithm = get_algorithm(method, epsilon, **options)
    return algorithm.join(first, second)
