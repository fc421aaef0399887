"""Tests for the cross-method self-check (repro.analysis.selfcheck)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.selfcheck import CheckOutcome, SelfCheckReport, run_selfcheck
from repro.core.types import Community
from tests.conftest import random_couple


@pytest.fixture(scope="module")
def report():
    vectors_b, vectors_a = random_couple(400)
    return run_selfcheck(
        Community("B", vectors_b), Community("A", vectors_a), epsilon=1
    )


class TestRunSelfCheck:
    def test_all_pass_on_healthy_system(self, report):
        failing = [o for o in report.outcomes if not o.passed]
        assert report.passed, f"failed checks: {[o.name for o in failing]}"

    def test_every_method_has_a_result(self, report):
        assert set(report.results) == {
            "ap-baseline",
            "ap-minmax",
            "ap-superego",
            "ex-baseline",
            "ex-minmax",
            "ex-superego",
            "ap-hybrid",
            "ex-hybrid",
        }

    def test_check_names_cover_the_battery(self, report):
        names = " ".join(outcome.name for outcome in report.outcomes)
        assert "engines agree" in names
        assert "ex-minmax: result == from_dict(its JSON)" in names
        assert "array csf == dict csf, pick for pick" in names
        assert "CSF segmentation" in names
        assert "hopcroft-karp >= csf" in names
        assert "ex-superego (raw mode) == ex-baseline, pair for pair" in names
        assert "ex-superego (raw mode, one leaf) == ex-baseline, pair for pair" in names
        assert "brute-force match" in names
        assert "vector-epsilon (uniform) == ex-minmax, pair for pair" in names
        assert "vector-epsilon: encoded == baseline strategy, pair for pair" in names

    def test_render_mentions_verdict(self, report):
        rendered = report.render()
        assert "ALL CHECKS PASSED" in rendered
        assert rendered.count("[PASS]") == len(report.outcomes)

    def test_vk_couple_passes(self, vk_mini_couple):
        community_b, community_a = vk_mini_couple
        assert run_selfcheck(community_b, community_a, epsilon=1).passed

    def test_synthetic_couple_passes(self, synthetic_mini_couple):
        community_b, community_a = synthetic_mini_couple
        assert run_selfcheck(community_b, community_a, epsilon=15000).passed

    def test_an_invalid_matching_fails_check_one(self, monkeypatch):
        from repro.analysis import selfcheck
        from repro.core.errors import ValidationError

        def reject(result, community_b, community_a):
            raise ValidationError(f"{result.method}: rejected")

        monkeypatch.setattr(selfcheck, "validate_result", reject)
        vectors_b, vectors_a = random_couple(400)
        report = run_selfcheck(Community("B", vectors_b), Community("A", vectors_a), epsilon=1)
        check = next(o for o in report.outcomes if o.name.startswith("ex-minmax: one-to-one"))
        assert not check.passed and check.detail == "ex-minmax: rejected"

    def test_brute_force_skipped_above_budget(self):
        rng = np.random.default_rng(0)
        big_b = Community("B", rng.integers(0, 500, size=(600, 4)))
        big_a = Community("A", rng.integers(0, 500, size=(700, 4)))
        report = run_selfcheck(big_b, big_a, epsilon=1)
        brute = next(
            o for o in report.outcomes if "brute-force" in o.name
        )
        assert brute.passed
        assert "skipped" in brute.detail


class TestReportShape:
    def test_failed_outcome_fails_report(self):
        report = SelfCheckReport(
            outcomes=[
                CheckOutcome("good", True),
                CheckOutcome("bad", False, "broken"),
            ],
            results={},
        )
        assert not report.passed
        rendered = report.render()
        assert "[FAIL] bad — broken" in rendered
        assert "CHECKS FAILED" in rendered
