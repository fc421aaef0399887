"""Cross-method self-check: run every invariant on a given couple.

A reproduction lives and dies by its invariants.  :func:`run_selfcheck`
executes the full battery on one couple — every method, both engines,
both matchers — and reports each check's outcome, so a user who swaps
in their *own* data (or modifies an algorithm) can verify the system in
one call (CLI: ``repro-csj doctor``).

Checks:

1. every method, the two hybrids included, returns a one-to-one
   matching of valid pairs;
2. the two engines of every method return the same matching (a
   hybrid's python engine is raw SuperEGO's recursion), and the numpy
   engines' array CSF picks what the python engines' dict CSF picks, in
   the same order, on the couple's Ex-Baseline candidate graph;
3. Ex-Baseline and Ex-MinMax agree exactly (segmented CSF == global CSF);
4. Hopcroft–Karp never returns fewer pairs than CSF;
5. no approximate method beats the exact maximum;
6. normalised SuperEGO never beats the exact maximum;
7. raw-mode Ex-SuperEGO agrees with Ex-Baseline;
8. the MinMax encoding filters pass every brute-force match (on small
   couples where the exhaustive check is affordable);
9. one batch of Ap- or Ex-MinMax joins (``join_many``) over the couple,
   its reverse and strided sub-couples gives every pair the result of a
   separate join.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import ALL_METHODS, HYBRID_METHODS, get_algorithm
from ..core.encoding import MinMaxEncoder
from ..core.matching import build_adjacency, candidate_edges, cover_smallest_first, match_edges
from ..core.types import Community, CSJResult

__all__ = ["CheckOutcome", "SelfCheckReport", "run_selfcheck"]

#: Above this |B| x |A| budget the brute-force check (8) is skipped.
_BRUTE_FORCE_BUDGET = 250_000


@dataclass(frozen=True)
class CheckOutcome:
    """One executed check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class SelfCheckReport:
    """All outcomes plus the per-method results for inspection."""

    outcomes: list[CheckOutcome]
    results: dict[str, CSJResult]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def render(self) -> str:
        lines = []
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            line = f"[{status}] {outcome.name}"
            if outcome.detail:
                line += f" — {outcome.detail}"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.passed else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _pairs_valid(
    result: CSJResult, community_b: Community, community_a: Community, epsilon: int
) -> bool:
    b_side = [pair.b_index for pair in result.pairs]
    a_side = [pair.a_index for pair in result.pairs]
    if len(set(b_side)) != len(b_side) or len(set(a_side)) != len(a_side):
        return False
    for pair in result.pairs:
        diff = np.abs(
            community_b.vectors[pair.b_index] - community_a.vectors[pair.a_index]
        )
        if diff.max(initial=0) > epsilon:
            return False
    return True


def run_selfcheck(
    community_b: Community, community_a: Community, *, epsilon: int
) -> SelfCheckReport:
    """Execute the invariant battery; never raises on a failed check."""
    outcomes: list[CheckOutcome] = []
    results: dict[str, CSJResult] = {}

    # 1 + 2: validity and engine agreement per method.
    for method in ALL_METHODS + HYBRID_METHODS:
        numpy_result = get_algorithm(method, epsilon, engine="numpy").join(
            community_b, community_a
        )
        python_result = get_algorithm(method, epsilon, engine="python").join(
            community_b, community_a
        )
        results[method] = numpy_result
        outcomes.append(
            CheckOutcome(
                name=f"{method}: one-to-one matching of valid pairs",
                passed=_pairs_valid(numpy_result, community_b, community_a, epsilon),
                detail=f"{numpy_result.n_matched} pairs",
            )
        )
        same = set(numpy_result.pair_tuples()) == set(python_result.pair_tuples())
        outcomes.append(
            CheckOutcome(
                name=f"{method}: python and numpy engines agree",
                passed=same,
            )
        )

    # 2b: the array CSF picks the dict CSF's pairs, in order.
    rows_b, rows_a = candidate_edges(community_b.vectors, community_a.vectors, epsilon)
    picked_b, picked_a = match_edges(rows_b, rows_a)
    expected = cover_smallest_first(*build_adjacency(zip(rows_b.tolist(), rows_a.tolist())))
    outcomes.append(
        CheckOutcome(
            name="array csf == dict csf, pick for pick",
            passed=list(zip(picked_b.tolist(), picked_a.tolist())) == expected,
            detail=f"{len(expected)} picks over {rows_b.size} candidate pairs",
        )
    )

    # 3: segmented CSF == global CSF.
    outcomes.append(
        CheckOutcome(
            name="ex-baseline == ex-minmax (CSF segmentation)",
            passed=set(results["ex-baseline"].pair_tuples())
            == set(results["ex-minmax"].pair_tuples()),
        )
    )

    # 4: Hopcroft-Karp dominates CSF.
    hk_result = get_algorithm(
        "ex-minmax", epsilon, matcher="hopcroft_karp"
    ).join(community_b, community_a)
    outcomes.append(
        CheckOutcome(
            name="hopcroft-karp >= csf",
            passed=hk_result.n_matched >= results["ex-minmax"].n_matched,
            detail=f"{hk_result.n_matched} vs {results['ex-minmax'].n_matched}",
        )
    )

    # 5 + 6: nothing beats the exact maximum.
    maximum = hk_result.n_matched
    for method in ALL_METHODS:
        if method == "ex-minmax":
            continue
        outcomes.append(
            CheckOutcome(
                name=f"{method} <= exact maximum",
                passed=results[method].n_matched <= maximum,
            )
        )

    # 7: raw-mode SuperEGO equals the exact baseline.
    raw_superego = get_algorithm(
        "ex-superego", epsilon, use_normalized=False
    ).join(community_b, community_a)
    outcomes.append(
        CheckOutcome(
            name="ex-superego (raw mode) == ex-baseline",
            passed=raw_superego.n_matched == results["ex-baseline"].n_matched,
        )
    )

    # 7b: the Section 6.2 hybrid equals the exact baseline too.
    outcomes.append(
        CheckOutcome(
            name="ex-hybrid (MinMax-SuperEGO) == ex-baseline",
            passed=set(results["ex-hybrid"].pair_tuples())
            == set(results["ex-baseline"].pair_tuples()),
        )
    )

    # 8: encoding never prunes a brute-force match (small couples only).
    budget = community_b.n_users * community_a.n_users
    if budget <= _BRUTE_FORCE_BUDGET:
        outcomes.append(
            CheckOutcome(
                name="minmax encoding passes every brute-force match",
                passed=_encoding_complete(community_b, community_a, epsilon),
            )
        )
    else:
        outcomes.append(
            CheckOutcome(
                name="minmax encoding passes every brute-force match",
                passed=True,
                detail=f"skipped (|B|x|A| = {budget:,} above budget)",
            )
        )

    # 9: a batch of MinMax joins equals separate joins, pair by pair.
    batch = _sub_couples(community_b, community_a)
    for method in ("ap-minmax", "ex-minmax"):
        algorithm = get_algorithm(method, epsilon)
        batched = algorithm.join_many(batch, enforce_size_ratio=False)
        separate = [
            algorithm.join(first, second, enforce_size_ratio=False)
            for first, second in batch
        ]
        outcomes.append(
            CheckOutcome(
                name=f"{method}: a batch of joins equals separate joins",
                passed=all(map(_same_matching, batched, separate)),
                detail=f"{len(batch)} pairs",
            )
        )
    return SelfCheckReport(outcomes=outcomes, results=results)


def _sub_couples(
    community_b: Community, community_a: Community
) -> list[tuple[Community, Community]]:
    """The couple, its reverse and every ``step``-th user's sub-couple
    for steps 2, 3 and 5: one batch of mixed sizes, both orders and
    communities shared between pairs."""
    couples = [(community_b, community_a), (community_a, community_b)]
    for step in (2, 3, 5):
        couples.append(
            (
                community_b.subset(np.arange(0, community_b.n_users, step)),
                community_a.subset(np.arange(0, community_a.n_users, step)),
            )
        )
    return couples


def _same_matching(first: CSJResult, second: CSJResult) -> bool:
    return (
        first.pair_tuples() == second.pair_tuples()
        and first.events == second.events
        and first.swapped == second.swapped
        and first.similarity == second.similarity
    )


def _encoding_complete(
    community_b: Community, community_a: Community, epsilon: int
) -> bool:
    encoder = MinMaxEncoder(epsilon, min(4, community_b.n_dims))
    targets = encoder.encode_targets(community_b.vectors)
    candidates = encoder.encode_candidates(community_a.vectors)
    position_b = {int(real): i for i, real in enumerate(targets.real_ids)}
    position_a = {int(real): j for j, real in enumerate(candidates.real_ids)}
    for b_row in range(community_b.n_users):
        diffs = np.abs(community_a.vectors - community_b.vectors[b_row])
        for a_row in np.flatnonzero((diffs <= epsilon).all(axis=1)):
            i = position_b[b_row]
            j = position_a[int(a_row)]
            in_window = (
                candidates.encoded_min[j]
                <= targets.encoded_id[i]
                <= candidates.encoded_max[j]
            )
            overlap = MinMaxEncoder.parts_overlap(
                targets.parts[i], candidates.range_min[j], candidates.range_max[j]
            )
            if not (in_window and overlap):
                return False
    return True
