"""Batch execution engine: pre-screening, caching and checkpointing.

The substrate behind every batch workload (top-k pair ranking, the
table harness, parameter sweeps): a :class:`BatchEngine` runs
community-pair jobs in-process, skips pairs whose min/max envelopes
prove a zero similarity, and memoises results in a content-addressed
LRU cache, while :class:`CheckpointLog` makes sweep completion durable
across crashes.  A join that raises reaches the caller.
"""

from .batch import BatchEngine, Disposition, PairJob, PairOutcome
from .cache import JoinResultCache, canonical_options, decoded_options, join_key
from .checkpoint import CheckpointLog
from .envelope import Envelope, community_envelope, envelopes_separated
from .fingerprint import community_fingerprint, matrix_fingerprint, pair_fingerprint

__all__ = [
    "BatchEngine",
    "Disposition",
    "PairJob",
    "PairOutcome",
    "JoinResultCache",
    "canonical_options",
    "decoded_options",
    "join_key",
    "CheckpointLog",
    "Envelope",
    "community_envelope",
    "envelopes_separated",
    "community_fingerprint",
    "matrix_fingerprint",
    "pair_fingerprint",
]
