"""Per-dimension min/max envelopes and the pair-level pre-screen.

LSF-Join-style distributed similarity joins hinge on cheap per-pair
filters that discard work before the expensive join runs.  CSJ admits a
particularly strong one: the join condition requires *every* dimension
of a matched pair to differ by at most epsilon, so if the value ranges
of two communities are separated by more than epsilon in even a single
dimension, **no** user pair can match and the CSJ similarity is exactly
zero.  The envelope (per-dimension min and max over a community's
users) is computed once per community in O(n·d) and each pair test is
O(d) — negligible next to a join.

Soundness: for a dimension ``t`` with ``min_A[t] - max_B[t] > eps`` (or
symmetrically ``min_B[t] - max_A[t] > eps``), every ``b in B`` and
``a in A`` satisfy ``|b[t] - a[t]| >= min_A[t] - max_B[t] > eps``, so
the candidate graph is empty, every method returns an empty matching,
and Eq. (1) evaluates to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.types import Community

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "Envelope",
    "community_envelope",
    "envelopes_separated",
    "stack_envelopes",
    "separation_matrix",
]

#: Instance-level memo attribute of :func:`community_envelope`.
_ENVELOPE_CACHE_ATTR = "_envelope_cache"


@dataclass(frozen=True)
class Envelope:
    """Per-dimension value bounds of one community's user vectors."""

    mins: np.ndarray  # shape (d,), int64
    maxs: np.ndarray  # shape (d,), int64

    @property
    def n_dims(self) -> int:
        return int(self.mins.shape[0])


def community_envelope(community: Community) -> Envelope:
    """The per-dimension min/max envelope of a community (memoised).

    Envelopes are epsilon-independent and a community's vectors are
    frozen read-only at construction, so the envelope is computed once
    and stashed on the instance — sweeps touching the same community at
    many epsilons (or many engines sharing a catalog) pay the O(n*d)
    scan a single time.  ``dataclasses.replace`` builds fresh instances,
    so a mutated copy never inherits a stale envelope.
    """
    cached = community.__dict__.get(_ENVELOPE_CACHE_ATTR)
    if cached is not None:
        return cached
    vectors = community.vectors
    envelope = Envelope(
        mins=vectors.min(axis=0).astype(np.int64, copy=False),
        maxs=vectors.max(axis=0).astype(np.int64, copy=False),
    )
    # Community is a frozen dataclass; the memo is not a field, so
    # object.__setattr__ is the sanctioned back door.
    object.__setattr__(community, _ENVELOPE_CACHE_ATTR, envelope)
    return envelope


def stack_envelopes(
    envelopes: Sequence[Envelope],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-community bounds into ``(C, d)`` min/max matrices."""
    mins = np.stack([envelope.mins for envelope in envelopes])
    maxs = np.stack([envelope.maxs for envelope in envelopes])
    return mins, maxs


def separation_matrix(
    mins: np.ndarray, maxs: np.ndarray, epsilon: int
) -> np.ndarray:
    """All-pairs envelope separation in one broadcast op.

    ``mins``/``maxs`` are the stacked ``(C, d)`` matrices of
    :func:`stack_envelopes`; the result is a symmetric ``(C, C)``
    boolean matrix whose ``[i, j]`` entry equals
    ``envelopes_separated(envelopes[i], envelopes[j], epsilon)`` —
    all-pairs top-k uses it to screen every pair at once, before any
    engine job exists.
    """
    # gap[i, j, t] = mins[j, t] - maxs[i, t]: community j strictly above i.
    gap = mins[None, :, :] - maxs[:, None, :]
    one_way = (gap > epsilon).any(axis=2)
    return one_way | one_way.T


def envelopes_separated(
    first: Envelope,
    second: Envelope,
    epsilon: int,
    *,
    metrics: "MetricsRegistry | None" = None,
) -> bool:
    """True when some dimension separates the envelopes by more than epsilon.

    A ``True`` verdict is a proof that the CSJ similarity of the two
    communities is zero at this epsilon; ``False`` says nothing (the
    envelopes may overlap while no individual pair matches).  With
    ``metrics`` attached, every test is counted into
    ``repro_engine_envelope_tests_total`` and positive verdicts additionally into
    ``repro_engine_envelope_separations_total``.
    """
    gap_low = second.mins - first.maxs  # second strictly above first
    gap_high = first.mins - second.maxs  # first strictly above second
    separated = bool((gap_low > epsilon).any() or (gap_high > epsilon).any())
    if metrics is not None:
        metrics.inc("repro_engine_envelope_tests_total")
        if separated:
            metrics.inc("repro_engine_envelope_separations_total")
    return separated
