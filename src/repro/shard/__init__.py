"""repro.shard — sharded catalogs and distributed all-pairs top-k.

Splits a :class:`~repro.catalog.PersistentCatalog` into per-shard
catalogs with skew-aware placement, then coordinates ``topk`` /
``join`` / ``sweep`` across one CSJ server per shard:

* :mod:`~repro.shard.partition` — candidate-graph partitioner:
  connected components of the plan-epsilon candidate graph are
  bin-packed by estimated join cost (greedy LPT), and hot components
  that would serialise a sweep are split pair-wise across shards with
  replicated endpoints and explicit pair ownership;
* :mod:`~repro.shard.coordinator` — fan-out coordinator that ranks
  through the single-host routine, so its ranking is byte-identical to
  :func:`~repro.apps.top_k_pairs` on the union catalog, with honest
  degraded responses (named missing shards, dropped keys, lost pairs)
  when shards stay down, and JSONL-checkpointed resumable sweeps;
* :mod:`~repro.shard.metrics` — the ``repro_shard_*`` counter family.

See ``docs/sharding.md`` for the full design.
"""

from .coordinator import (
    ShardCoordinator,
    ShardError,
    ShardFleet,
    ShardSweep,
    ShardTopK,
    ShardUnavailableError,
)
from .metrics import SHARD_COUNTERS, init_shard_metrics
from .partition import (
    PLAN_FILENAME,
    PartitionPlan,
    ShardSpec,
    partition_catalog,
    plan_partition,
)

__all__ = [
    # partitioner
    "PLAN_FILENAME",
    "PartitionPlan",
    "ShardSpec",
    "plan_partition",
    "partition_catalog",
    # coordinator
    "ShardCoordinator",
    "ShardFleet",
    "ShardTopK",
    "ShardSweep",
    "ShardError",
    "ShardUnavailableError",
    # metrics
    "SHARD_COUNTERS",
    "init_shard_metrics",
]
