"""Unit tests for the matching substrate (repro.core.matching)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import minmax, superego
from repro.algorithms.baseline import ExBaseline
from repro.algorithms.minmax import ApMinMax, ExMinMax
from repro.algorithms.superego import ApSuperEGO, ExSuperEGO
from repro.core import matching
from repro.core.errors import ConfigurationError
from repro.core.matching import (
    MATCHERS,
    build_adjacency,
    candidate_edges,
    cover_smallest_first,
    first_fit,
    get_matcher,
    greedy_first_fit,
    hopcroft_karp,
    linf_match,
    linf_match_mask,
    match_edges,
    matching_size_upper_bound,
    pairs_are_one_to_one,
    pairs_respect_graph,
)
from repro.core.types import Community
from repro.testing import brute_force_candidate_pairs
from tests.conftest import maximum_matching_size
from tests.test_superego import _paper_couples


class TestLinfPredicates:
    def test_exact_boundary_matches(self):
        assert linf_match(np.array([3, 4]), np.array([4, 3]), epsilon=1)

    def test_one_dimension_over_fails(self):
        assert not linf_match(np.array([3, 4]), np.array([5, 4]), epsilon=1)

    def test_epsilon_zero_requires_equality(self):
        assert linf_match(np.array([2, 2]), np.array([2, 2]), epsilon=0)
        assert not linf_match(np.array([2, 2]), np.array([2, 3]), epsilon=0)

    def test_mask_matches_scalar_predicate(self):
        rng = np.random.default_rng(0)
        vector_b = rng.integers(0, 5, size=6)
        matrix_a = rng.integers(0, 5, size=(40, 6))
        mask = linf_match_mask(vector_b, matrix_a, epsilon=1)
        for row in range(40):
            assert mask[row] == linf_match(vector_b, matrix_a[row], epsilon=1)

    def test_mask_unsigned_safety(self):
        # Differences of unsigned-ish inputs must not wrap around.
        vector_b = np.array([0, 0], dtype=np.int64)
        matrix_a = np.array([[5, 5]], dtype=np.uint16)
        assert not linf_match_mask(vector_b, matrix_a, epsilon=1)[0]


def _edge_list(vectors_b, vectors_a, epsilon, **options):
    rows_b, rows_a = candidate_edges(vectors_b, vectors_a, epsilon, **options)
    return list(zip(rows_b.tolist(), rows_a.tolist()))


class TestCandidateEdges:
    def test_uint8_wraparound_regression(self):
        # 5 - 250 wraps to 11 in uint8 arithmetic; the enumeration must
        # widen to int64 exactly like linf_match and report no pair.
        vectors_b = np.array([[5]], dtype=np.uint8)
        vectors_a = np.array([[250]], dtype=np.uint8)
        assert _edge_list(vectors_b, vectors_a, epsilon=20) == []
        assert not linf_match(vectors_b[0], vectors_a[0], epsilon=20)

    def test_uint_dtypes_agree_with_scalar_predicate(self):
        rng = np.random.default_rng(42)
        for dtype, high in ((np.uint8, 255), (np.uint16, 65535), (np.int16, 32767)):
            vectors_b = rng.integers(0, high, size=(12, 3)).astype(dtype)
            vectors_a = rng.integers(0, high, size=(15, 3)).astype(dtype)
            epsilon = int(high) // 2
            expected = [
                (b, a)
                for b in range(12)
                for a in range(15)
                if linf_match(vectors_b[b], vectors_a[a], epsilon=epsilon)
            ]
            assert _edge_list(vectors_b, vectors_a, epsilon=epsilon) == expected

    def test_blockwise_equals_single_block(self):
        rng = np.random.default_rng(43)
        vectors_b = rng.integers(0, 250, size=(20, 4)).astype(np.uint8)
        vectors_a = rng.integers(0, 250, size=(17, 4)).astype(np.uint8)
        assert _edge_list(vectors_b, vectors_a, 10, block_size=3) == _edge_list(
            vectors_b, vectors_a, 10
        )


class TestBuildAdjacency:
    def test_both_directions(self):
        matched_b, matched_a = build_adjacency([(0, 1), (0, 2), (3, 1)])
        assert matched_b == {0: {1, 2}, 3: {1}}
        assert matched_a == {1: {0, 3}, 2: {0}}

    def test_empty(self):
        matched_b, matched_a = build_adjacency([])
        assert matched_b == {} and matched_a == {}

    def test_duplicates_collapse(self):
        matched_b, _ = build_adjacency([(0, 1), (0, 1)])
        assert matched_b == {0: {1}}


class TestCoverSmallestFirst:
    def test_single_edge(self):
        matched_b, matched_a = build_adjacency([(0, 7)])
        assert cover_smallest_first(matched_b, matched_a) == [(0, 7)]

    def test_prefers_covering_degree_one_vertices(self):
        # b0 only matches a0; b1 matches both. Greedy by smallest degree
        # must cover b0 with a0 first, leaving a1 for b1 (2 matches).
        matched_b, matched_a = build_adjacency([(0, 0), (1, 0), (1, 1)])
        pairs = cover_smallest_first(matched_b, matched_a)
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_finds_maximum_on_chain(self):
        # Chain b0-a0, a0-b1, b1-a1: maximum matching = 2.
        matched_b, matched_a = build_adjacency([(0, 0), (1, 0), (1, 1)])
        assert len(cover_smallest_first(matched_b, matched_a)) == 2

    def test_one_to_one_always(self):
        rng = np.random.default_rng(9)
        pairs = {(int(rng.integers(0, 12)), int(rng.integers(0, 12))) for _ in range(60)}
        matched_b, matched_a = build_adjacency(pairs)
        result = cover_smallest_first(matched_b, matched_a)
        assert pairs_are_one_to_one(result)
        assert pairs_respect_graph(result, matched_b)

    def test_input_maps_not_modified(self):
        matched_b, matched_a = build_adjacency([(0, 0), (1, 0), (1, 1)])
        before_b = {b: set(v) for b, v in matched_b.items()}
        cover_smallest_first(matched_b, matched_a)
        assert matched_b == before_b

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pairs = {(int(rng.integers(0, 20)), int(rng.integers(0, 20))) for _ in range(80)}
        matched_b, matched_a = build_adjacency(pairs)
        first = cover_smallest_first(matched_b, matched_a)
        second = cover_smallest_first(matched_b, matched_a)
        assert first == second

    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_maximum(self, seed):
        rng = np.random.default_rng(seed)
        pairs = {
            (int(rng.integers(0, 15)), int(rng.integers(0, 15))) for _ in range(50)
        }
        matched_b, matched_a = build_adjacency(pairs)
        csf_size = len(cover_smallest_first(matched_b, matched_a))
        assert csf_size <= maximum_matching_size(pairs)
        # Minimum-degree greedy is a 1/2-approximation at worst.
        assert csf_size >= maximum_matching_size(pairs) / 2

    def test_empty_input(self):
        assert cover_smallest_first({}, {}) == []


class TestHopcroftKarp:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_maximum(self, seed):
        rng = np.random.default_rng(100 + seed)
        pairs = {
            (int(rng.integers(0, 18)), int(rng.integers(0, 18))) for _ in range(70)
        }
        matched_b, matched_a = build_adjacency(pairs)
        result = hopcroft_karp(matched_b, matched_a)
        assert pairs_are_one_to_one(result)
        assert pairs_respect_graph(result, matched_b)
        assert len(result) == maximum_matching_size(pairs)

    def test_perfect_matching_on_disjoint_edges(self):
        pairs = [(i, i) for i in range(10)]
        matched_b, matched_a = build_adjacency(pairs)
        assert sorted(hopcroft_karp(matched_b, matched_a)) == pairs

    def test_augmenting_path_case(self):
        # Greedy first-fit would match b0-a0 and strand b1; HK must
        # augment to the perfect matching.
        pairs = [(0, 0), (0, 1), (1, 0)]
        matched_b, matched_a = build_adjacency(pairs)
        result = hopcroft_karp(matched_b, matched_a)
        assert len(result) == 2

    def test_empty(self):
        assert hopcroft_karp({}, {}) == []

    def test_long_augmenting_path_needs_no_recursion(self):
        # b_i matches a_i and a_{i+1}; b_1500 = 0 matches only a_0.  First
        # fit fills a_0..a_1499, so the last augmenting path runs through
        # all 1,501 users: far beyond Python's recursion limit.
        vectors_b = np.array([[2 * i + 1] for i in range(1500)] + [[0]])
        vectors_a = np.array([[2 * i] for i in range(1501)])
        oracle = maximum_matching_size(brute_force_candidate_pairs(vectors_b, vectors_a, 1))
        assert oracle == 1501
        b, a = Community("B", vectors_b), Community("A", vectors_a)
        for cls in (ExBaseline, ExMinMax):
            assert cls(1, matcher="hopcroft_karp").join(b, a).n_matched == oracle
            assert cls(1).join(b, a).n_matched == oracle

    def test_at_least_as_large_as_csf(self):
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            pairs = {
                (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
                for _ in range(120)
            }
            matched_b, matched_a = build_adjacency(pairs)
            assert len(hopcroft_karp(matched_b, matched_a)) >= len(
                cover_smallest_first(matched_b, matched_a)
            )


class TestGreedyFirstFit:
    def test_commits_in_id_order(self):
        matched_b, matched_a = build_adjacency([(0, 0), (0, 1), (1, 0)])
        assert greedy_first_fit(matched_b, matched_a) == [(0, 0)]

    def test_one_to_one(self):
        matched_b, matched_a = build_adjacency([(0, 0), (1, 0), (1, 1), (2, 1)])
        result = greedy_first_fit(matched_b, matched_a)
        assert pairs_are_one_to_one(result)


def _pairs(picked: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    return list(zip(picked[0].tolist(), picked[1].tolist()))


def _dict_csf(rows_b: np.ndarray, rows_a: np.ndarray) -> list[tuple[int, int]]:
    return cover_smallest_first(*build_adjacency(zip(rows_b.tolist(), rows_a.tolist())))


class TestMatchEdges:
    """The array CSF and first fit against the dict matchers, their
    oracles: the same pairs in the same order.  Hopcroft–Karp runs over
    the dict adjacency."""

    @pytest.fixture
    def engine_graphs(self, monkeypatch):
        """Every edge-array graph Ex-SuperEGO and Ex-MinMax hand over."""
        graphs: list[tuple[np.ndarray, np.ndarray]] = []

        def recorded(rows_b, rows_a, matcher="csf"):
            graphs.append((rows_b.copy(), rows_a.copy()))
            return match_edges(rows_b, rows_a, matcher)

        monkeypatch.setattr(superego, "match_edges", recorded)
        monkeypatch.setattr(minmax, "match_edges", recorded)
        return graphs

    def test_paper_couple_hit_graphs(self, engine_graphs):
        couples = _paper_couples()
        for first, second in couples:
            ExSuperEGO(1).join(first, second)
            ExMinMax(1).join(first, second)
        assert len(engine_graphs) == 2 * len(couples)
        for rows_b, rows_a in engine_graphs:
            assert rows_b.size
            assert _pairs(match_edges(rows_b, rows_a)) == _dict_csf(rows_b, rows_a)

    @pytest.mark.parametrize("seed", range(6))
    def test_components_laid_end_to_end(self, seed):
        # Graphs sharing no id, each one's ids shifted past the last
        # one's: one call, split back by graph, equals one call each.
        # Isolated edges sit between them, as a batch of near-duplicate
        # pairs lays them out.
        rng = np.random.default_rng(seed)
        graphs, at_b, at_a = [], 0, 0
        for _ in range(5):
            n_b, n_a = (int(n) for n in rng.integers(1, 15, size=2))
            size = int(rng.integers(0, 40))
            rows_b, rows_a = rng.integers(0, n_b, size), rng.integers(0, n_a, size)
            graphs.append((rows_b, rows_a, at_b, at_a, n_b))
            at_b, at_a = at_b + n_b, at_a + n_a
            for _ in range(int(rng.integers(0, 4))):
                graphs.append((np.zeros(1, dtype=np.int64),) * 2 + (at_b, at_a, 1))
                at_b, at_a = at_b + 1, at_a + 1
        order = rng.permutation(sum(graph[0].size for graph in graphs))
        picked_b, picked_a = match_edges(
            np.concatenate([rows_b + at_b for rows_b, _, at_b, _, _ in graphs])[order],
            np.concatenate([rows_a + at_a for _, rows_a, _, at_a, _ in graphs])[order],
        )
        for rows_b, rows_a, at_b, at_a, n_b in graphs:
            mine = (picked_b >= at_b) & (picked_b < at_b + n_b)
            split = _pairs((picked_b[mine] - at_b, picked_a[mine] - at_a))
            assert split == _pairs(match_edges(rows_b, rows_a)) == _dict_csf(rows_b, rows_a)

    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_every_matcher_matches_its_dict_form(self, matcher):
        rng = np.random.default_rng(5)
        rows_b, rows_a = rng.integers(0, 30, 150), rng.integers(0, 30, 150)
        expected = get_matcher(matcher)(
            *build_adjacency(zip(rows_b.tolist(), rows_a.tolist()))
        )
        assert _pairs(match_edges(rows_b, rows_a, matcher)) == expected
        empty = np.zeros(0, dtype=np.int64)
        assert _pairs(match_edges(empty, empty, matcher)) == []

    def test_unknown_matcher(self):
        with pytest.raises(ConfigurationError, match="unknown matcher"):
            match_edges(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), "magic")

    @given(graph=st.data())
    @settings(max_examples=150, deadline=None)
    def test_isolated_edges_among_components(self, graph):
        # Random components plus many isolated edges, every side's ids
        # shuffled so the isolated ones fall between the others; edges
        # shuffled and repeated, and sometimes spread past one int64
        # key so the rank path runs.
        n_b, n_a = graph.draw(st.integers(1, 8)), graph.draw(st.integers(1, 8))
        contested = graph.draw(
            st.lists(st.tuples(st.integers(0, n_b - 1), st.integers(0, n_a - 1)), max_size=30)
        )
        n_lone = graph.draw(st.integers(0, 25))
        ids_b = graph.draw(st.permutations(range(n_b + n_lone)))
        ids_a = graph.draw(st.permutations(range(n_a + n_lone)))
        edges = [(ids_b[b], ids_a[a]) for b, a in contested]
        edges += [(ids_b[n_b + k], ids_a[n_a + k]) for k in range(n_lone)]
        if edges:
            edges += graph.draw(st.lists(st.sampled_from(edges), max_size=5))
        edges = graph.draw(st.permutations(edges))
        spread = graph.draw(st.sampled_from([1, 2**40]))
        rows = np.array(edges, dtype=np.int64).reshape(-1, 2) * spread
        rows_b, rows_a = rows[:, 0], rows[:, 1]
        assert _pairs(match_edges(rows_b, rows_a)) == _dict_csf(rows_b, rows_a)
        expected = greedy_first_fit(*build_adjacency(zip(rows_b.tolist(), rows_a.tolist())))
        assert _pairs(match_edges(rows_b, rows_a, "greedy")) == expected

    def test_isolated_edges_matched_in_bulk(self, monkeypatch):
        # No Python step per pick where no edge shares an end: neither
        # the cover loop nor first fit's walk runs, in the matchers or
        # in the engines on a pair of near-duplicates.
        def refuse(*_args):
            raise AssertionError("walked a graph of isolated edges")

        monkeypatch.setattr(matching, "_cover_csr", refuse)
        monkeypatch.setattr(matching, "_walk", refuse)
        rng = np.random.default_rng(3)
        rows_b, rows_a = rng.permutation(60) * 3, rng.permutation(60) + 7
        expected = sorted(zip(rows_b.tolist(), rows_a.tolist()))
        doubled = np.concatenate([rows_b, rows_b]), np.concatenate([rows_a, rows_a])
        assert _pairs(match_edges(*doubled)) == expected
        assert _pairs(match_edges(*doubled, "greedy")) == expected
        assert first_fit(rows_b, rows_a).tolist() == list(range(60))
        used_a = np.zeros(67, dtype=bool)
        used_a[rows_a[:10]] = True
        assert first_fit(rows_b, rows_a, used_a).tolist() == list(range(10, 60))
        assert used_a[7:].all() and not used_a[:7].any()
        vectors = np.arange(0, 1200, 10)[:, None] * np.ones(4, dtype=np.int64)
        first, second = Community("B", vectors), Community("A", vectors + 1)
        raw = {"use_normalized": False}
        for algorithm in (ExMinMax(1), ApMinMax(1), ExSuperEGO(1, **raw), ApSuperEGO(1, **raw)):
            assert algorithm.join(first, second).n_matched == 120


def _walked(rows_b, rows_a, used_a) -> list[int]:
    """First fit by a plain walk over the edges, marking used ends."""
    used_b, taken = set(), []
    for k, (b, a) in enumerate(zip(rows_b.tolist(), rows_a.tolist())):
        if b not in used_b and not used_a[a]:
            used_b.add(b)
            used_a[a] = True
            taken.append(k)
    return taken


class TestFirstFit:
    """The first-fit helper against a plain walk over the sequence."""

    @given(graph=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_sequential_walk_with_used_ends(self, graph):
        # Contested edges on a few ids plus isolated ones on ids of
        # their own, in any order; some a ends used before the call.
        n_b, n_a = graph.draw(st.integers(1, 6)), graph.draw(st.integers(1, 6))
        edges = graph.draw(
            st.lists(st.tuples(st.integers(0, n_b - 1), st.integers(0, n_a - 1)), max_size=25)
        )
        n_lone = graph.draw(st.integers(0, 20))
        edges += [(n_b + k, n_a + k) for k in range(n_lone)]
        edges = graph.draw(st.permutations(edges))
        rows = np.array(edges, dtype=np.int64).reshape(-1, 2)
        size = n_a + n_lone
        used_a = np.array(graph.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        walked_a = used_a.copy()
        expected = _walked(rows[:, 0], rows[:, 1], walked_a)
        assert first_fit(rows[:, 0], rows[:, 1], used_a).tolist() == expected
        assert used_a.tolist() == walked_a.tolist()
        free = np.zeros(size, dtype=bool)
        assert first_fit(rows[:, 0], rows[:, 1]).tolist() == _walked(rows[:, 0], rows[:, 1], free)

    def test_sequence_walked_in_pieces(self):
        # Used a ends carried across pieces of whole b rows, as the
        # MinMax band's blocks are, give one walk's picks.
        rng = np.random.default_rng(8)
        rows_b, rows_a = np.sort(rng.integers(0, 40, 300)), rng.integers(0, 40, 300)
        bounds = np.searchsorted(rows_b, np.arange(0, 47, 7)).tolist()
        used_a = np.zeros(40, dtype=bool)
        taken = [
            start + first_fit(rows_b[start:stop], rows_a[start:stop], used_a)
            for start, stop in zip(bounds, bounds[1:])
        ]
        assert np.concatenate(taken).tolist() == _walked(
            rows_b, rows_a, np.zeros(40, dtype=bool)
        )

    def test_wide_id_range(self):
        # Ids far apart are counted by sorting, not over their range.
        rows_b = np.array([5, 2**50, 5, 2**40], dtype=np.int64)
        rows_a = np.array([0, 2**45, 2**45, 2**45], dtype=np.int64)
        assert first_fit(rows_b, rows_a).tolist() == [0, 1]

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert first_fit(empty, empty).tolist() == []


class TestRegistryAndHelpers:
    def test_registry_contains_all(self):
        assert set(MATCHERS) == {"csf", "hopcroft_karp", "greedy"}

    def test_get_matcher(self):
        assert get_matcher("csf") is cover_smallest_first

    def test_unknown_matcher(self):
        with pytest.raises(ConfigurationError, match="unknown matcher"):
            get_matcher("magic")

    def test_upper_bound(self):
        matched_b, _ = build_adjacency([(0, 0), (1, 0), (2, 0)])
        assert matching_size_upper_bound(matched_b) == 1

    def test_pairs_respect_graph_detects_foreign_edge(self):
        matched_b, _ = build_adjacency([(0, 0)])
        assert not pairs_respect_graph([(0, 1)], matched_b)
