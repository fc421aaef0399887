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

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError
from ..core.types import Envelope, community_envelope
from ..core.validation import validate_epsilon

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "Envelope",
    "community_envelope",
    "envelopes_separated",
    "stack_envelopes",
    "surviving_pairs",
    "candidate_pairs",
]

#: Most candidate pairs :func:`surviving_pairs` expands and tests at once.
_SWEEP_BLOCK_PAIRS = 1 << 15

_INT64_MAX = int(np.iinfo(np.int64).max)


def stack_envelopes(
    envelopes: Sequence[Envelope],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-community bounds into ``(C, d)`` min/max matrices."""
    mins = np.stack([envelope.mins for envelope in envelopes])
    maxs = np.stack([envelope.maxs for envelope in envelopes])
    return mins, maxs


def surviving_pairs(
    mins: np.ndarray, maxs: np.ndarray, epsilon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(first, second)`` that no dimension separates.

    ``mins``/``maxs`` are the stacked int64 ``(C, d)`` bounds of
    :func:`stack_envelopes`.  The result, ``first < second`` and sorted
    by ``(first, second)``, is exactly the pairs
    :func:`envelopes_separated` does not separate.  Sorted on one
    dimension's minimum, the later member of a surviving pair has its
    minimum within the earlier one's max + epsilon, so each window of
    partners is one ``searchsorted``.  The dimension with the fewest
    window pairs is swept and its windows are tested on every dimension
    in blocks of at most ``_SWEEP_BLOCK_PAIRS``: memory is O(C·d) plus
    one block plus the survivors, never ``(C, C)``.
    """
    # Counters are non-negative, so every gap fits int64 and a larger
    # epsilon admits what the int64 maximum admits; max + epsilon then
    # saturates there instead of wrapping.
    epsilon = min(int(epsilon), _INT64_MAX)
    reach = np.minimum(maxs, _INT64_MAX - epsilon) + epsilon
    sweeps = []
    for dim in range(mins.shape[1]):
        order = np.argsort(mins[:, dim], kind="stable")
        ends = np.searchsorted(mins[order, dim], reach[order, dim], side="right")
        widths = ends - np.arange(1, len(order) + 1)
        sweeps.append((int(widths.sum()), order, widths))
    total, order, widths = min(sweeps, key=lambda sweep: sweep[0])
    starts = np.concatenate(([0], np.cumsum(widths)))
    firsts = [np.empty(0, dtype=np.int64)]
    seconds = [np.empty(0, dtype=np.int64)]
    for low in range(0, total, _SWEEP_BLOCK_PAIRS):
        flat = np.arange(low, min(low + _SWEEP_BLOCK_PAIRS, total))
        position = np.searchsorted(starts, flat, side="right") - 1
        one = order[position]
        other = order[position + 1 + (flat - starts[position])]
        keep = np.ones(len(flat), dtype=bool)
        for dim in range(mins.shape[1]):
            keep &= mins[other, dim] - maxs[one, dim] <= epsilon
            keep &= mins[one, dim] - maxs[other, dim] <= epsilon
        one, other = one[keep], other[keep]
        firsts.append(np.minimum(one, other))
        seconds.append(np.maximum(one, other))
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    ranked = np.lexsort((second, first))
    return first[ranked], second[ranked]


def candidate_pairs(
    envelopes: Mapping[str, Envelope], epsilon: int
) -> list[tuple[str, str]]:
    """Sorted name pairs ``(a, b)``, ``a < b``, that survive the screen.

    Only communities of equal ``n_dims`` pair; each such group is swept
    by :func:`surviving_pairs`.
    """
    epsilon = validate_epsilon(epsilon)
    groups: dict[int, list[str]] = {}
    for name in sorted(envelopes):
        groups.setdefault(envelopes[name].n_dims, []).append(name)
    pairs: list[tuple[str, str]] = []
    for names in groups.values():
        first, second = surviving_pairs(
            *stack_envelopes([envelopes[name] for name in names]), epsilon
        )
        pairs.extend(zip([names[i] for i in first], [names[j] for j in second]))
    return sorted(pairs) if len(groups) > 1 else pairs


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
    ``repro_engine_envelope_separations_total``.  Envelopes of
    different dimensionality raise :class:`DimensionMismatchError`.
    """
    if first.n_dims != second.n_dims:
        raise DimensionMismatchError(first.n_dims, second.n_dims)
    gap_low = second.mins - first.maxs  # second strictly above first
    gap_high = first.mins - second.maxs  # first strictly above second
    separated = bool((gap_low > epsilon).any() or (gap_high > epsilon).any())
    if metrics is not None:
        metrics.inc("repro_engine_envelope_tests_total")
        if separated:
            metrics.inc("repro_engine_envelope_separations_total")
    return separated
