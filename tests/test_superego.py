"""Tests for Ap-SuperEGO and Ex-SuperEGO (repro.algorithms.superego)."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import superego
from repro.algorithms.baseline import ExBaseline
from repro.algorithms.hybrid import ApHybrid, ExHybrid
from repro.algorithms.superego import (
    ApSuperEGO,
    ExSuperEGO,
    ego_order,
    ego_walk,
    grid_cells,
)
from repro.core.errors import ConfigurationError
from repro.core.events import EventTrace
from repro.core.types import Community
from repro.core.validation import validate_pair
from repro.datasets import PAPER_COUPLES, VKGenerator, build_couple
from tests.conftest import (
    assert_valid_matching,
    brute_force_candidate_pairs,
    maximum_matching_size,
    random_couple,
)


def assert_engines_agree(python, numpy_, *, exact):
    """The numpy engine returns the python engine's pairs and events.

    Ap's numpy engine counts no NO MATCH events (it tests cells in
    bulk), so only Ex compares every counter.
    """
    assert numpy_.pair_tuples() == python.pair_tuples()
    assert numpy_.events.min_prune == python.events.min_prune
    assert numpy_.events.match == python.events.match
    if exact:
        assert numpy_.events == python.events


@st.composite
def cell_matrices(draw) -> tuple[str, np.ndarray]:
    """Grid cells of counter matrices, with duplicate rows, whose packed
    EGO sort needs one key, several keys, or has a lone column spanning
    more than 2**62 (counters near 2**63 - 1 at width 1).  Column spans
    are drawn over many magnitudes, so products of neighbouring spans
    fall just below, at and just above 2**63."""
    kind = draw(st.sampled_from(["one key", "several keys", "lone column"]))
    n_rows = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([1, 2, 15]))
    if kind == "one key":
        highs = [2 ** draw(st.integers(0, 10)) for _ in range(draw(st.integers(1, 4)))]
    elif kind == "several keys":
        highs = [2 ** draw(st.integers(12, 40)) for _ in range(draw(st.integers(8, 27)))]
    else:
        width = 1
        highs = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(2, 6)))]
        highs[draw(st.integers(0, len(highs) - 1))] = draw(st.integers(2**62 + 1, 2**63 - 1))
    counters = np.stack([rng.integers(0, high, n_rows, endpoint=True) for high in highs], axis=1)
    copies = draw(st.integers(0, n_rows - 1))
    counters[rng.integers(0, n_rows, copies)] = counters[rng.integers(0, n_rows, copies)]
    counters[0], counters[-1] = 0, highs
    return kind, grid_cells(counters, width)


class TestGridHelpers:
    def test_grid_cells_basic(self):
        vectors = np.array([[0, 14, 15, 29]])
        assert grid_cells(vectors, 15).tolist() == [[0, 0, 1, 1]]

    def test_grid_cells_zero_width_degenerates(self):
        vectors = np.array([[0, 3, 7]])
        assert grid_cells(vectors, 0).tolist() == [[0, 3, 7]]

    def test_ego_order_sorts_lexicographically(self):
        cells = np.array([[1, 0], [0, 1], [0, 0]])
        order = ego_order(cells, np.array([0, 1]))
        assert cells[order].tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_ego_order_respects_dim_priority(self):
        cells = np.array([[1, 0], [0, 1]])
        # Dimension 1 first: row with cell 0 in dim 1 sorts first.
        order = ego_order(cells, np.array([1, 0]))
        assert cells[order].tolist() == [[1, 0], [0, 1]]

    @settings(max_examples=150, deadline=None)
    @given(matrix=cell_matrices(), shuffle=st.randoms(use_true_random=False))
    def test_packed_keys_sort_like_one_key_per_dimension(self, matrix, shuffle):
        kind, cells = matrix
        spans = [int(top) - int(low) + 1 for low, top in zip(cells.min(axis=0), cells.max(axis=0))]
        if kind == "one key":
            assert np.prod(spans, dtype=object) < 2**63
        elif kind == "several keys":
            assert np.prod(spans, dtype=object) >= 2**63
        else:
            assert max(spans) > 2**62
        dim_order = np.array(shuffle.sample(range(cells.shape[1]), cells.shape[1]))
        expected = np.lexsort([cells[:, dim] for dim in dim_order[::-1]])
        assert ego_order(cells, dim_order).tolist() == expected.tolist()


class TestRawModeEquivalence:
    """With use_normalized=False the join condition is the exact CSJ one,
    so SuperEGO must agree with the brute-force oracle exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ex_superego_raw_equals_baseline(self, seed):
        vectors_b, vectors_a = random_couple(seed)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        superego = ExSuperEGO(1, use_normalized=False, t=4).join(b, a)
        baseline = ExBaseline(1).join(b, a)
        assert superego.n_matched == baseline.n_matched

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_hopcroft_karp_reaches_maximum(self, seed):
        vectors_b, vectors_a = random_couple(seed + 40)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = ExSuperEGO(
            1, use_normalized=False, matcher="hopcroft_karp", t=4
        ).join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(vectors_b, vectors_a, 1)
        )
        assert result.n_matched == oracle

    @pytest.mark.parametrize("t", [2, 4, 16, 64])
    def test_threshold_does_not_change_result(self, t):
        vectors_b, vectors_a = random_couple(3)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        reference = ExSuperEGO(1, use_normalized=False, t=4).join(b, a)
        varied = ExSuperEGO(1, use_normalized=False, t=t).join(b, a)
        assert varied.n_matched == reference.n_matched

    def test_pruning_actually_fires_on_separated_data(self):
        b = Community("B", np.zeros((20, 4), dtype=np.int64))
        a = Community("A", np.full((20, 4), 1000, dtype=np.int64))
        algorithm = ExSuperEGO(1, use_normalized=False, t=4)
        result = algorithm.join(b, a)
        assert result.n_matched == 0
        # EGO-strategy prunes are reported as MIN PRUNE events.
        assert result.events.min_prune >= 1
        # The whole rectangle must be pruned without any comparison.
        assert result.events.comparisons == 0


class TestNormalizedMode:
    """The paper's adaptation: aggregate epsilon over normalised data."""

    @pytest.mark.parametrize("seed", range(6))
    def test_returned_pairs_satisfy_true_condition(self, seed):
        vectors_b, vectors_a = random_couple(seed + 70)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        for algorithm in (ApSuperEGO(1, t=4), ExSuperEGO(1, t=4)):
            result = algorithm.join(b, a)
            assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_beats_true_exact(self, seed):
        # False candidates can only waste users: the verified count is
        # bounded by the true maximum matching.
        vectors_b, vectors_a = random_couple(seed + 100)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        superego = ExSuperEGO(1, t=4).join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(vectors_b, vectors_a, 1)
        )
        assert superego.n_matched <= oracle

    def test_aggregate_condition_superset(self):
        # A pair violating per-dimension epsilon but within the
        # aggregate ball is matched internally and then discarded,
        # consuming the user: the loss mechanism of Tables 3-6.
        vectors_b = np.array([[10, 10, 10], [12, 10, 10]])
        # a0 differs from b0 by 3 in one dim (aggregate 3 <= d*eps = 3).
        vectors_a = np.array([[13, 10, 10], [12, 11, 10]])
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        result = ApSuperEGO(1, t=2).join(b, a)
        # b0 grabs a0 under the aggregate condition, the pair fails
        # verification, so at most b1's pair survives.
        assert result.n_matched <= 1

    def test_explicit_max_value_used(self):
        vectors_b, vectors_a = random_couple(1)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        fixed = ExSuperEGO(1, max_value=1000, t=4).join(b, a)
        auto = ExSuperEGO(1, t=4).join(b, a)
        # Different normalisation must not invalidate the matching.
        assert_valid_matching(fixed.pair_tuples(), b.vectors, a.vectors, 1)
        assert fixed.n_matched <= max(auto.n_matched + 5, auto.n_matched)


class TestConfiguration:
    def test_t_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            ExSuperEGO(1, t=1)

    def test_names_and_flags(self):
        assert ApSuperEGO(1).name == "ap-superego"
        assert ApSuperEGO(1).exact is False
        assert ExSuperEGO(1).name == "ex-superego"
        assert ExSuperEGO(1).exact is True

    @pytest.mark.parametrize("seed", range(4))
    def test_engines_agree(self, seed):
        vectors_b, vectors_a = random_couple(seed + 7)
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        for cls in (ApSuperEGO, ExSuperEGO):
            python = cls(1, engine="python", t=4).join(b, a)
            numpy_ = cls(1, engine="numpy", t=4).join(b, a)
            assert_engines_agree(python, numpy_, exact=cls.exact)

    @pytest.mark.parametrize("cls", [ApSuperEGO, ExSuperEGO])
    @pytest.mark.parametrize("max_value", [0, -3, 2.5, True, "7", 2**63])
    def test_max_value_must_be_a_positive_integer(self, cls, max_value):
        with pytest.raises(ConfigurationError, match="max_value"):
            cls(1, max_value=max_value)

    def test_max_value_accepts_positive_integers(self):
        assert ExSuperEGO(1, max_value=1).max_value == 1
        assert ApSuperEGO(1, max_value=2**63 - 1).max_value == 2**63 - 1
        assert ExSuperEGO(1).max_value is None

    def test_no_parallel_option(self):
        with pytest.raises(TypeError):
            ExSuperEGO(1, n_jobs=2)


class TestEventsMetricParity:
    """The mirrored ``repro_core_events_total`` family agrees exactly
    with the trace's own counters."""

    def test_events_metric_mirrors_counts(self):
        from repro.obs.registry import MetricsRegistry

        vectors_b, vectors_a = random_couple(11, n_b=40, n_a=48)
        b, a = Community("B", vectors_b), Community("A", vectors_a)

        algorithm = ExSuperEGO(1, t=4)
        algorithm.metrics = MetricsRegistry()
        result = algorithm.join(b, a)

        assert result.events.total > 0
        mirrored = algorithm.metrics.counters_by_label(
            "repro_core_events_total", "type"
        )
        for field in ("min_prune", "max_prune", "no_overlap", "no_match", "match"):
            assert mirrored.get(field, 0) == getattr(result.events, field), field

    @pytest.mark.parametrize("cls", [ApSuperEGO, ExSuperEGO, ApHybrid, ExHybrid])
    def test_numpy_engine_times_its_stages(self, cls):
        from repro.obs.registry import MetricsRegistry

        vectors_b, vectors_a = random_couple(11, n_b=40, n_a=48)
        algorithm = cls(1, t=4)
        algorithm.metrics = MetricsRegistry()
        result = algorithm.join(Community("B", vectors_b), Community("A", vectors_a))
        for stage in ("encode", "enumerate", "matching"):
            assert f"join.pairing.{stage}" in result.stage_seconds, stage


@functools.cache
def _paper_couples() -> tuple[tuple[Community, Community], ...]:
    generator = VKGenerator(seed=7)
    return tuple(
        build_couple(spec, generator, scale=1 / 1024) for spec in PAPER_COUPLES[:4]
    )


@functools.cache
def _python_join(cls, index: int, t: int, normalized: bool):
    first, second = _paper_couples()[index]
    return cls(1, engine="python", t=t, use_normalized=normalized).join(first, second)


#: Leaf caps from one padded leaf ``P`` of the tested couple's join.  A
#: tile holds whole padded leaves or whole bands of one, so ``P - 1``
#: cuts the largest leaves (a tile boundary inside a leaf: a band of all
#: rows but the last, then the last row, or a one-row leaf before its
#: last cell), ``P`` puts one leaf in each tile (boundaries where leaves
#: end) and ``2·P`` two (boundaries after every second leaf).
LEAF_CAPS = ["leaf-1", "leaf", "2leaf"]


def leaf_cap(block, first: Community, second: Community, t: int, normalized: bool) -> int:
    """``block`` as a leaf cap: a number as it is, a :data:`LEAF_CAPS`
    name resolved from the couple's ``ego_walk`` leaves at epsilon 1."""
    if not isinstance(block, str):
        return block
    community_b, community_a, _ = validate_pair(first, second)
    state = ExSuperEGO(1, t=t, use_normalized=normalized)._encode(community_b, community_a)
    leaves, _ = ego_walk(state["raw_b"], state["raw_a"], t, 1, aggregate=normalized)
    padded = int((leaves[:, 1] - leaves[:, 0]).max() * (leaves[:, 3] - leaves[:, 2]).max())
    return max({"leaf-1": padded - 1, "leaf": padded, "2leaf": 2 * padded}[block], 1)


class TestNumpyWalkParity:
    """The level-by-level walk and the leaf tile kernel against the
    python engine's recursion, whatever the leaf cap."""

    @pytest.mark.parametrize("block", [None, 1, 7, *LEAF_CAPS])
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalised", "raw"])
    @pytest.mark.parametrize("t", [2, 3, 32])
    def test_paper_couples(self, monkeypatch, t, normalized, block):
        for index, (first, second) in enumerate(_paper_couples()):
            if block is not None:
                cap = leaf_cap(block, first, second, t, normalized)
                monkeypatch.setattr(superego, "_LEAF_BLOCK_CELLS", cap)
            for cls in (ApSuperEGO, ExSuperEGO):
                python = _python_join(cls, index, t, normalized)
                numpy_ = cls(1, t=t, use_normalized=normalized).join(first, second)
                assert_engines_agree(python, numpy_, exact=cls.exact)

    def test_large_t_is_one_leaf(self):
        first, second = _paper_couples()[3]
        python = ExSuperEGO(1, engine="python", t=10**6).join(first, second)
        numpy_ = ExSuperEGO(1, t=10**6).join(first, second)
        assert_engines_agree(python, numpy_, exact=True)
        assert numpy_.events.comparisons == first.n_users * second.n_users

    @pytest.mark.parametrize(
        "algorithm",
        [
            ExSuperEGO(1, t=10**6),
            ExSuperEGO(1, t=10**6, use_normalized=False),
            ExHybrid(1, t=10**6),
        ],
        ids=["normalised", "raw", "ex-hybrid"],
    )
    def test_one_wide_leaf_stays_within_a_few_caps(self, algorithm):
        """A join that is one leaf wider than half the cap runs as one
        tile per ``b`` row, each built when it is tested, so its peak
        allocation does not grow with the leaf's cells."""
        cap = superego._LEAF_BLOCK_CELLS
        rng = np.random.default_rng(3)
        vectors_b = rng.integers(0, 10**6, size=(600, 3))
        vectors_a = rng.integers(0, 10**6, size=(cap // 2 + 1000, 3))
        vectors_a[:50] = vectors_b[:50]
        first, second = Community("B", vectors_b), Community("A", vectors_a)
        tracemalloc.start()
        try:
            result = algorithm.join(first, second, enforce_size_ratio=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(result.pair_tuples()) == {(k, k) for k in range(50)}
        # One int64 per padded cell of the leaf alone would be 44 MB.
        assert peak < 4 * 2**20


class TestLeafTiles:
    """``_leaf_tiles`` yields every leaf cell once, in (leaf, b, a) order,
    in tiles of at most the cap, padding included, whatever the leaves'
    shapes."""

    @settings(max_examples=80, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 12), st.integers(0, 9), st.integers(1, 12)),
            min_size=1,
            max_size=8,
        ),
        cap=st.integers(1, 300),
    )
    def test_tiles_hold_each_cell_once_in_order(self, shapes, cap):
        leaves = np.array([[lo_b, lo_b + h, lo_a, lo_a + w] for lo_b, h, lo_a, w in shapes])
        expected = [
            (leaf, b, a)
            for leaf, (lo_b, hi_b, lo_a, hi_a) in enumerate(leaves.tolist())
            for b in range(lo_b, hi_b)
            for a in range(lo_a, hi_a)
        ]
        cells = []
        for leaf, rows_b, rows_a, real in superego._leaf_tiles(leaves, cap):
            assert real.size <= cap
            piece, y, x = np.nonzero(real)
            cells += zip(leaf[piece].tolist(), rows_b[piece, y].tolist(), rows_a[piece, x].tolist())
        assert cells == expected


class TestFloat32Boundary:
    """Counters up to 10^7 with epsilon 15,000: pairs whose integer L1
    distance is ``d·ε … d·ε + 5``.  Some of them still pass the float32
    join condition, so the numpy engine's integer screen may only reject
    a cell with a rounding margin above ``d·ε``."""

    EPSILON = 15_000
    TOP = 10**7

    def couple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(3)
        n, d = 120, 27
        low, high = d * self.EPSILON, self.TOP - d * self.EPSILON
        vectors_b = rng.integers(low, high, size=(n, d))
        vectors_b[0, 0] = high
        excess = np.arange(n) % 6
        steps = np.empty((n, d), dtype=np.int64)
        for row, extra in enumerate(excess):
            total = d * self.EPSILON + int(extra)
            cuts = np.sort(rng.choice(np.arange(1, total), size=d - 1, replace=False))
            steps[row] = np.diff(np.concatenate(([0], cuts, [total])))
        vectors_a = vectors_b + rng.choice([-1, 1], size=(n, d)) * steps
        return vectors_b, vectors_a, excess

    def test_margin_keeps_float32_matches(self):
        vectors_b, vectors_a, excess = self.couple()
        n_dims = vectors_b.shape[1]
        # Precondition: pairs above d·ε that float32 still matches.
        scale = int(max(vectors_b.max(), vectors_a.max()))
        condition = np.abs(
            (vectors_a / scale).astype(np.float32) - (vectors_b / scale).astype(np.float32)
        ).sum(axis=1) <= np.float32(n_dims * self.EPSILON / scale)
        assert (condition & (excess > 0)).any()
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        for cls in (ApSuperEGO, ExSuperEGO):
            python = cls(self.EPSILON, engine="python").join(b, a)
            numpy_ = cls(self.EPSILON).join(b, a)
            assert_engines_agree(python, numpy_, exact=cls.exact)


class _RecordingSuperEGO(ExSuperEGO):
    """Python-engine SuperEGO that records its leaves instead of joining."""

    def _leaf_join(self, state, lo_b, hi_b, lo_a, hi_a, trace):
        state["pairs"].append((lo_b, hi_b, lo_a, hi_a))


class TestWalkMatchesRecursion:
    """``ego_walk`` reaches the leaves ``_recurse`` reaches, in the same
    order, and prunes as many rectangles."""

    @pytest.mark.parametrize("normalized", [True, False], ids=["aggregate", "per-dim"])
    @pytest.mark.parametrize("t", [2, 3, 5, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_leaves_and_prunes(self, seed, t, normalized):
        rng = np.random.default_rng(seed)
        sizes = [(1, 1), (1, 9), (13, 1)] + [
            tuple(rng.integers(1, 150, size=2)) for _ in range(3)
        ]
        for n_b, n_a in sizes:
            n_dims = int(rng.integers(1, 6))
            high = int(rng.integers(2, 40))
            vectors_b = rng.integers(0, high, size=(n_b, n_dims))
            vectors_a = rng.integers(0, high, size=(n_a, n_dims))
            recorder = _RecordingSuperEGO(1, t=t, use_normalized=normalized)
            trace = EventTrace()
            state = recorder._run(Community("B", vectors_b), Community("A", vectors_a), trace)
            leaves, pruned = ego_walk(
                state["raw_b"], state["raw_a"], t, 1, aggregate=normalized
            )
            assert [tuple(leaf) for leaf in leaves.tolist()] == state["pairs"]
            assert pruned == trace.counts.min_prune
