"""Tests for the MinMax-SuperEGO hybrid (repro.algorithms.hybrid)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import csj_similarity
from repro.algorithms import superego
from repro.algorithms.hybrid import ApHybrid, ExHybrid
from repro.algorithms.minmax import ExMinMax
from repro.algorithms.superego import ApSuperEGO, ExSuperEGO
from repro.core.encoding import MinMaxEncoder
from repro.core.errors import ConfigurationError
from repro.core.types import Community
from tests.conftest import (
    assert_valid_matching,
    brute_force_candidate_pairs,
    maximum_matching_size,
    random_couple,
)
from tests.test_superego import LEAF_CAPS, _paper_couples, _python_join, leaf_cap

#: Leaf caps: the default, caps that split leaves across tiles (the NO
#: OVERLAP rule is per leaf), and caps around one padded leaf.
BLOCKS = [None, 1, 7, *LEAF_CAPS]


def couple(seed: int) -> tuple[Community, Community]:
    vectors_b, vectors_a = random_couple(seed)
    return Community("B", vectors_b), Community("A", vectors_a)


class TestExHybrid:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_ex_baseline(self, seed):
        b, a = couple(seed + 40)
        hybrid = ExHybrid(1, t=4).join(b, a)
        baseline = csj_similarity(b, a, epsilon=1, method="ex-baseline")
        assert set(hybrid.pair_tuples()) == set(baseline.pair_tuples())

    @pytest.mark.parametrize("seed", range(4))
    def test_hopcroft_karp_reaches_oracle(self, seed):
        b, a = couple(seed + 80)
        result = ExHybrid(1, t=4, matcher="hopcroft_karp").join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(b.vectors, a.vectors, 1)
        )
        assert result.n_matched == oracle

    @pytest.mark.parametrize("t", [2, 8, 64, 1024])
    def test_threshold_invariance(self, t):
        b, a = couple(11)
        reference = ExHybrid(1, t=4).join(b, a)
        varied = ExHybrid(1, t=t).join(b, a)
        assert set(varied.pair_tuples()) == set(reference.pair_tuples())

    @pytest.mark.parametrize("epsilon", [0, 1, 3])
    def test_epsilon_grid(self, epsilon):
        b, a = couple(13)
        result = ExHybrid(epsilon, t=4, matcher="hopcroft_karp").join(b, a)
        oracle = maximum_matching_size(
            brute_force_candidate_pairs(b.vectors, a.vectors, epsilon)
        )
        assert result.n_matched == oracle
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, epsilon)

    def test_no_accuracy_loss_unlike_normalized_superego(self, vk_mini_couple):
        # Section 6.2: the hybrid works on raw numeric data, so it keeps
        # the exact similarity SuperEGO's normalisation loses.
        b, a = vk_mini_couple
        hybrid = ExHybrid(1).join(b, a)
        exact = csj_similarity(b, a, epsilon=1, method="ex-minmax")
        assert hybrid.n_matched == exact.n_matched

    def test_flags(self):
        assert ExHybrid(1).name == "ex-hybrid"
        assert ExHybrid(1).exact is True
        with pytest.raises(ConfigurationError):
            ExHybrid(1, t=1)

    @pytest.mark.parametrize("cls", [ApHybrid, ExHybrid])
    @pytest.mark.parametrize("n_parts", [0, -2])
    def test_bad_n_parts_rejected_at_construction(self, cls, n_parts):
        with pytest.raises(ConfigurationError, match="n_parts"):
            cls(1, n_parts=n_parts)


class TestApHybrid:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_one_to_one(self, seed):
        b, a = couple(seed + 120)
        result = ApHybrid(1, t=4).join(b, a)
        result.check_one_to_one()
        assert_valid_matching(result.pair_tuples(), b.vectors, a.vectors, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_beats_exact(self, seed):
        b, a = couple(seed + 160)
        approx = ApHybrid(1, t=4).join(b, a)
        exact = ExHybrid(1, t=4, matcher="hopcroft_karp").join(b, a)
        assert approx.n_matched <= exact.n_matched

    def test_registry_exposure(self):
        from repro import get_algorithm
        from repro.algorithms import HYBRID_METHODS, method_display_name

        assert HYBRID_METHODS == ("ap-hybrid", "ex-hybrid")
        assert isinstance(get_algorithm("ex-hybrid", 1), ExHybrid)
        assert method_display_name("ex-hybrid") == "Ex-Hybrid"

    def test_flags(self):
        assert ApHybrid(1).name == "ap-hybrid"
        assert ApHybrid(1).exact is False


class TestRawSuperEGOParity:
    """The encoded screen only drops cells that cannot match, so each
    hybrid returns raw SuperEGO's pairs, in order, whatever the leaf
    cap; the python engine (raw SuperEGO's recursion) is the oracle."""

    VARIANTS = [(ApHybrid, ApSuperEGO), (ExHybrid, ExSuperEGO)]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("t", [2, 3, 64])
    def test_paper_couples(self, monkeypatch, t, block):
        for index, (first, second) in enumerate(_paper_couples()):
            if block is not None:
                monkeypatch.setattr(
                    superego, "_LEAF_BLOCK_CELLS", leaf_cap(block, first, second, t, False)
                )
            for hybrid, raw in self.VARIANTS:
                python = _python_join(raw, index, t, False)
                numpy_ = hybrid(1, t=t).join(first, second)
                assert numpy_.pair_tuples() == python.pair_tuples()
                assert numpy_.events.min_prune == python.events.min_prune
                if hybrid.exact:
                    assert numpy_.events.match == python.events.match

    @pytest.mark.parametrize("hybrid, raw", VARIANTS, ids=["ap", "ex"])
    def test_python_engine_is_raw_superego(self, hybrid, raw):
        first, second = _paper_couples()[0]
        python = hybrid(1, engine="python", t=3).join(first, second)
        expected = _python_join(raw, 0, 3, False)
        assert python.pair_tuples() == expected.pair_tuples()
        assert python.events == expected.events


class TestEncodingMemo:
    """The numpy engine reads both MinMax buffers from the memo on each
    community, as MinMax does; the python engine, raw SuperEGO's
    recursion, encodes nothing."""

    @pytest.fixture
    def encode_calls(self, monkeypatch):
        calls = {"targets": 0, "candidates": 0}
        encode_targets = MinMaxEncoder.encode_targets
        encode_candidates = MinMaxEncoder.encode_candidates

        def counted_targets(encoder, vectors):
            calls["targets"] += 1
            return encode_targets(encoder, vectors)

        def counted_candidates(encoder, vectors):
            calls["candidates"] += 1
            return encode_candidates(encoder, vectors)

        monkeypatch.setattr(MinMaxEncoder, "encode_targets", counted_targets)
        monkeypatch.setattr(MinMaxEncoder, "encode_candidates", counted_candidates)
        return calls

    @pytest.mark.parametrize("cls", [ApHybrid, ExHybrid])
    def test_repeat_join_encodes_nothing(self, small_couple, encode_calls, cls):
        b, a = small_couple
        first = cls(1, t=4).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}
        second = cls(1, t=4).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}
        assert second.pair_tuples() == first.pair_tuples()
        assert second.events == first.events

    def test_shares_minmax_buffers(self, small_couple, encode_calls):
        b, a = small_couple
        ExMinMax(1).join(b, a)
        ApHybrid(1).join(b, a)
        ExHybrid(1).join(b, a)
        assert encode_calls == {"targets": 1, "candidates": 1}

    @pytest.mark.parametrize("cls", [ApHybrid, ExHybrid])
    def test_python_engine_encodes_nothing(self, small_couple, encode_calls, cls):
        cls(1, engine="python", t=4).join(*small_couple)
        assert encode_calls == {"targets": 0, "candidates": 0}


class TestHybridSpeedClaim:
    def test_fewer_full_comparisons_than_raw_superego_leaves(self):
        # The Section 6.2 claim: the encoded leaf join runs fewer full
        # d-dimensional comparisons than the plain nested-loop leaves of
        # raw SuperEGO on the same data.
        from repro.algorithms.superego import ExSuperEGO

        rng = np.random.default_rng(5)
        base = rng.integers(0, 60, size=(150, 9))
        noisy = np.maximum(base + rng.integers(-1, 2, size=base.shape), 0)
        b = Community("B", base)
        a = Community("A", noisy)
        hybrid = ExHybrid(1, t=16).join(b, a)
        superego = ExSuperEGO(1, t=16, use_normalized=False).join(b, a)
        assert hybrid.n_matched == superego.n_matched
        assert hybrid.events.comparisons < superego.events.comparisons


class TestPinnedResults:
    """The hybrid's pairs and event counts on two seeded VK couples are
    pinned: the values the per-leaf recursion produced before the shared
    level-by-level walk replaced it.  Small leaf caps split a leaf
    across tiles, which its NO OVERLAP count must not notice."""

    # (couple, t, class, matched, min_prune, no_overlap, no_match, match,
    #  sha256 prefix of the JSON pair list)
    PINNED = [
        (2, 4, ApHybrid, 130, 675, 44, 13, 318, "d44ed8aa88f8041b"),
        (2, 4, ExHybrid, 131, 675, 44, 13, 318, "e9db4b89493c36c4"),
        (2, 64, ApHybrid, 130, 34, 1901, 161, 318, "462db7489e9ba78a"),
        (2, 64, ExHybrid, 131, 34, 1901, 161, 318, "e9db4b89493c36c4"),
        (5, 4, ApHybrid, 112, 624, 60, 15, 321, "b3c61e00222a2a70"),
        (5, 4, ExHybrid, 113, 624, 60, 15, 321, "dfc0f8fc20fb581c"),
        (5, 64, ApHybrid, 112, 24, 2302, 335, 321, "b3c61e00222a2a70"),
        (5, 64, ExHybrid, 113, 24, 2302, 335, 321, "dfc0f8fc20fb581c"),
    ]

    @pytest.mark.parametrize(
        "couple, t, cls, matched, min_prune, no_overlap, no_match, match, digest, block",
        [(*row, block) for row in PINNED for block in BLOCKS],
        ids=[
            f"{row[2].name}-{row[0]}-t{row[1]}" + ("" if block is None else f"-block{block}")
            for row in PINNED
            for block in BLOCKS
        ],
    )
    def test_pairs_and_events(
        self,
        monkeypatch,
        couple,
        t,
        cls,
        matched,
        min_prune,
        no_overlap,
        no_match,
        match,
        digest,
        block,
    ):
        from repro.datasets import PAPER_COUPLES, VKGenerator, build_couple

        b, a = build_couple(PAPER_COUPLES[couple], VKGenerator(seed=11), scale=1 / 256)
        if block is not None:
            monkeypatch.setattr(superego, "_LEAF_BLOCK_CELLS", leaf_cap(block, b, a, t, False))
        result = cls(1, t=t).join(b, a)
        pairs = json.dumps(result.pair_tuples()).encode()
        assert hashlib.sha256(pairs).hexdigest()[:16] == digest
        assert result.n_matched == matched
        events = result.events
        assert (events.min_prune, events.max_prune) == (min_prune, 0)
        assert (events.no_overlap, events.no_match, events.match) == (
            no_overlap,
            no_match,
            match,
        )
