"""Shared fixtures for the CSJ test suite.

The heavy lifting (oracles, validators, structured random inputs) lives
in the public :mod:`repro.testing` module so downstream users get the
same tooling; this conftest only adapts signatures and adds fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Community
from repro.testing import (
    assert_valid_matching,
    banded_community_fleet,
    brute_force_candidate_pairs,
    maximum_matching_size,
    random_counter_couple,
    random_counter_matrix,
)

__all__ = [
    "HUGE_EPSILONS",
    "assert_valid_matching",
    "banded_community_fleet",
    "brute_force_candidate_pairs",
    "maximum_matching_size",
    "random_couple",
    "random_counter_matrix",
    "small_counter_couple",
]

#: Epsilons at which ``counter + epsilon`` summed over a MinMax part
#: wraps int64 (the first three) or epsilon itself leaves int64.
HUGE_EPSILONS = (2**61, 2**62, 2**63 - 1, 2**63, 2**64)


def random_couple(
    seed: int, *, n_b: int = 18, n_a: int = 24, d: int = 6, high: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Structured random couple (wrapper around repro.testing)."""
    return random_counter_couple(seed, n_b=n_b, n_a=n_a, n_dims=d, high=high)


def small_counter_couple() -> tuple[Community, Community]:
    """A 20 x 6 / 30 x 6 pair with counters below 50."""
    rng = np.random.default_rng(20)
    return (
        Community("B", rng.integers(0, 50, size=(20, 6))),
        Community("A", rng.integers(0, 50, size=(30, 6))),
    )


@pytest.fixture
def small_couple() -> tuple[Community, Community]:
    """A deterministic small couple with a non-trivial candidate graph."""
    vectors_b, vectors_a = random_couple(seed=101)
    return Community("B", vectors_b), Community("A", vectors_a)


@pytest.fixture
def vk_mini_couple() -> tuple[Community, Community]:
    """A tiny VK-like couple from the real generator."""
    from repro.datasets import PAPER_COUPLES, VKGenerator, build_couple

    return build_couple(PAPER_COUPLES[0], VKGenerator(seed=5), scale=1 / 1024)


@pytest.fixture
def synthetic_mini_couple() -> tuple[Community, Community]:
    """A tiny Synthetic couple from the real generator."""
    from repro.datasets import PAPER_COUPLES, SyntheticGenerator, build_couple

    return build_couple(PAPER_COUPLES[0], SyntheticGenerator(seed=5), scale=1 / 1024)
