"""Checkpoint-resume suite: the durable join log and resumed runs.

A killed batch run resumes from its ``CheckpointLog`` without
recomputing any finished join, whether the log ends cleanly, lost its
last line, or ends in a torn write.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import BatchEngine, CheckpointLog, Disposition, PairJob
from repro.engine.checkpoint import decode_join_key, encode_join_key
from repro.obs import MetricsRegistry
from repro.testing import banded_community_fleet as banded_fleet

pytestmark = pytest.mark.faults


def fleet_and_jobs(n_communities: int = 4, epsilon: int = 2):
    fleet = banded_fleet(3, n_communities)
    jobs = [
        PairJob.build(i, i + 1, method, epsilon)
        for i, method in enumerate(("ex-minmax", "ap-minmax", "ex-baseline"))
    ]
    return fleet, jobs


class TestCheckpointResume:
    def test_join_key_json_roundtrip(self):
        key = (
            "fb",
            "fa",
            3,
            "ex-minmax",
            (("engine", ("str", "numpy")), ("flag", ("bool", True))),
        )
        assert decode_join_key(json.loads(json.dumps(encode_join_key(key)))) == key

    def test_resume_recomputes_nothing(self, tmp_path):
        fleet, jobs = fleet_and_jobs()
        log_path = tmp_path / "sweep.ckpt.jsonl"
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            first = [o.result.to_dict() for o in engine.run(jobs)]
            assert engine.computed_count == len(jobs)
        metrics = MetricsRegistry()
        with BatchEngine(
            fleet, screen=False, checkpoint=log_path, metrics=metrics
        ) as engine:
            outcomes = engine.run(jobs)
            assert engine.resumed_count == len(jobs)
            assert engine.computed_count == 0
            assert engine.cached_count == len(jobs)
        assert all(o.disposition is Disposition.CACHED for o in outcomes)
        assert [o.result.to_dict() for o in outcomes] == first
        counters = metrics.snapshot()["counters"]
        assert "repro_engine_jobs_total{disposition=computed}" not in counters
        assert counters["repro_engine_jobs_total{disposition=cached}"] == len(jobs)

    def test_partial_log_resumes_only_missing_pairs(self, tmp_path):
        # Simulate a run killed after two of three joins: drop the last
        # checkpoint line, then resume — exactly one join recomputes.
        fleet, jobs = fleet_and_jobs()
        log_path = tmp_path / "killed.ckpt.jsonl"
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            reference_payloads = [o.result.to_dict() for o in engine.run(jobs)]
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[:-1]) + "\n")
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            outcomes = engine.run(jobs)
            assert engine.computed_count == 1
            assert engine.cached_count == 2
        for outcome, payload in zip(outcomes, reference_payloads):
            got = outcome.result.to_dict()
            expected = dict(payload)
            for timing_field in ("elapsed_seconds", "stage_seconds"):
                got.pop(timing_field, None)
                expected.pop(timing_field, None)
            assert got == expected
        # The resumed run extended the same log back to complete.
        with CheckpointLog(log_path) as log:
            assert len(log.load()) == len(jobs)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        fleet, jobs = fleet_and_jobs()
        log_path = tmp_path / "torn.ckpt.jsonl"
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs)
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "join-checkpoint", "key": [trunc')
        with CheckpointLog(log_path) as log:
            assert len(log.load()) == len(jobs)

    def test_resume_after_torn_line_logs_every_join(self, tmp_path):
        # A run killed mid-write after two joins leaves its second line
        # torn; the resumed run must not glue its first line onto it.
        fleet, jobs = fleet_and_jobs()
        log_path = tmp_path / "torn-resume.ckpt.jsonl"
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs[:2])
        text = log_path.read_text()
        log_path.write_text(text[: len(text.splitlines()[0]) + 1 + 40])
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs)
            assert engine.computed_count == 2
        with CheckpointLog(log_path) as log:
            assert len(log.load()) == len(jobs)
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs)
            assert engine.computed_count == 0

    def test_checkpoint_content_addressing_survives_regeneration(self, tmp_path):
        # A resumed sweep typically regenerates its datasets; identical
        # content must still hit the checkpoint.
        log_path = tmp_path / "regen.ckpt.jsonl"
        fleet, jobs = fleet_and_jobs()
        with BatchEngine(fleet, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs)
        regenerated, _ = fleet_and_jobs()
        with BatchEngine(regenerated, screen=False, checkpoint=log_path) as engine:
            engine.run(jobs)
            assert engine.computed_count == 0


class TestSweepAndTopkWiring:
    def test_epsilon_sweep_resumes_from_checkpoint(self, tmp_path):
        from repro.analysis.sweeps import epsilon_sweep

        fleet = banded_fleet(3, 2)
        log_path = tmp_path / "eps.ckpt.jsonl"
        first = epsilon_sweep(
            fleet[0], fleet[1], [1, 2, 4], checkpoint=log_path
        )
        metrics = MetricsRegistry()
        second = epsilon_sweep(
            fleet[0], fleet[1], [1, 2, 4], checkpoint=log_path, metrics=metrics
        )
        assert [p.similarity_percent for p in first] == [
            p.similarity_percent for p in second
        ]
        counters = metrics.snapshot()["counters"]
        assert "repro_engine_jobs_total{disposition=computed}" not in counters

    def test_cli_flags_build_fault_kwargs(self):
        # --resume-from is the one fault-tolerance flag: it becomes the
        # engine's checkpoint log.
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(["sweep", "--resume-from", "ckpt.jsonl"])
        assert _engine_kwargs(args)["checkpoint"] == "ckpt.jsonl"

    def test_cli_flags_default_to_unsupervised(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(["sweep"])
        assert "checkpoint" not in _engine_kwargs(args)
