"""Fault-tolerance suite: supervisor, fault injection, checkpoint resume.

The acceptance bar for supervised execution is *transparency*: a batch
run with an injected worker crash, an injected hang and a poison job
must complete with results pair-for-pair identical to the serial
reference, with only the retry / timeout / quarantine counters telling
the story.  The supervisor unit tests drive the scheduler directly with
hand-built futures (no process pool), so every transition — timeout →
retry → quarantine → degrade — is exercised deterministically.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import ALL_METHODS
from repro.core.errors import ConfigurationError
from repro.engine import (
    BatchEngine,
    CheckpointLog,
    Disposition,
    FaultPolicy,
    FaultSpec,
    InjectedFault,
    JobSupervisor,
    PairJob,
    QuarantineRecord,
)
from repro.engine.checkpoint import decode_join_key, encode_join_key
from repro.engine.faults import SupervisedTask, maybe_inject
from repro.obs import MetricsRegistry
from repro.testing import banded_community_fleet as banded_fleet

pytestmark = pytest.mark.faults

#: Fast-retry policy so the suite never sleeps noticeably.
FAST = dict(backoff_base=0.001, backoff_cap=0.002, jitter=0.0)


def strip_timings(result) -> dict:
    """A result payload without its wall-clock fields."""
    payload = result.to_dict()
    payload.pop("elapsed_seconds", None)
    payload.pop("stage_seconds", None)
    return payload


def event_counters(metrics: MetricsRegistry) -> dict:
    """Only the join-event counters (the retry double-count hazard)."""
    return {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if key.startswith("repro_core_events_total")
        or key.startswith("repro_algo_joins_total")
    }


def fleet_and_jobs(n_communities: int = 4, epsilon: int = 2):
    fleet = banded_fleet(3, n_communities)
    jobs = [
        PairJob.build(i, i + 1, method, epsilon)
        for i, method in enumerate(("ex-minmax", "ap-minmax", "ex-baseline"))
    ]
    return fleet, jobs


def reference(fleet, jobs) -> tuple[list[dict], dict]:
    metrics = MetricsRegistry()
    with BatchEngine(fleet, metrics=metrics, screen=False) as engine:
        payloads = [strip_timings(o.result) for o in engine.run(jobs)]
    return payloads, event_counters(metrics)


class TestPolicyAndSpecValidation:
    def test_policy_defaults(self):
        policy = FaultPolicy()
        assert policy.timeout is None
        assert policy.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"timeout": 0.0}, {"timeout": -1.0}, {"retries": -1}, {"pool_resets": -1}],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(mode="explode", at=0)

    def test_backoff_grows_and_caps(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_cap=0.3, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.backoff_seconds(n, rng) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_backoff_jitter_is_seeded(self):
        policy = FaultPolicy(jitter=0.5)
        first = policy.backoff_seconds(1, np.random.default_rng(42))
        second = policy.backoff_seconds(1, np.random.default_rng(42))
        assert first == second

    def test_maybe_inject_targets_one_position_and_attempt(self):
        spec = FaultSpec(mode="raise", at=1, fail_attempts=1)
        maybe_inject(spec, 0, 1, in_process=True)  # wrong position: no-op
        maybe_inject(spec, 1, 2, in_process=True)  # attempt exhausted: no-op
        maybe_inject(None, 1, 1, in_process=True)  # no spec: no-op
        with pytest.raises(InjectedFault):
            maybe_inject(spec, 1, 1, in_process=True)

    def test_hang_and_kill_degrade_to_raise_in_process(self):
        for mode in ("hang", "kill"):
            with pytest.raises(InjectedFault):
                maybe_inject(FaultSpec(mode=mode, at=0), 0, 1, in_process=True)


class TestSupervisorInline:
    """The in-process path (``submit=None``): retries and quarantine."""

    def make(self, **kwargs):
        policy = FaultPolicy(**{**FAST, **kwargs})
        return JobSupervisor(policy)

    def run_inline_supervisor(self, supervisor, tasks, run_inline):
        return supervisor.run(
            tasks,
            workers=1,
            submit=None,
            run_inline=run_inline,
            reset_pool=lambda: pytest.fail("inline path must not reset a pool"),
        )

    def test_transient_failure_retries_to_success(self):
        supervisor = self.make(retries=2)
        attempts: list[int] = []

        def run_inline(task: SupervisedTask, attempt: int) -> str:
            attempts.append(attempt)
            if task.position == 0 and attempt == 1:
                raise RuntimeError("transient")
            return f"ok-{task.position}"

        report = self.run_inline_supervisor(
            supervisor, [SupervisedTask(0, None), SupervisedTask(1, None)], run_inline
        )
        assert report.results == {0: "ok-0", 1: "ok-1"}
        assert report.quarantined == []
        assert supervisor.retries_total == 1
        assert attempts == [1, 1, 2]  # task 0 fails, task 1 runs, task 0 retried

    def test_poison_job_quarantined_after_max_attempts(self):
        supervisor = self.make(retries=2)

        def run_inline(task: SupervisedTask, attempt: int) -> str:
            if task.position == 0:
                raise ValueError("poison")
            return "ok"

        report = self.run_inline_supervisor(
            supervisor, [SupervisedTask(0, None), SupervisedTask(1, None)], run_inline
        )
        assert report.results == {1: "ok"}
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert isinstance(record, QuarantineRecord)
        assert record.position == 0
        assert record.attempts == 3  # retries + 1
        assert "poison" in record.error
        assert supervisor.quarantined_total == 1
        assert supervisor.retries_total == 2

    def test_counters_mirrored_into_metrics(self):
        metrics = MetricsRegistry()
        supervisor = JobSupervisor(FaultPolicy(retries=1, **FAST), metrics=metrics)

        def run_inline(task: SupervisedTask, attempt: int) -> str:
            raise RuntimeError("always")

        self.run_inline_supervisor(supervisor, [SupervisedTask(0, None)], run_inline)
        counters = metrics.snapshot()["counters"]
        assert counters["repro_engine_retries_total"] == 1
        assert counters["repro_engine_quarantined_total"] == 1
        assert metrics.snapshot()["gauges"]["repro_engine_degraded"] == 0.0


def _hung_future() -> Future:
    """A future that is running and will never complete (uncancellable)."""
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


def _done_future(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _broken_future() -> Future:
    future: Future = Future()
    future.set_exception(BrokenProcessPool("worker died"))
    return future


class TestSupervisorPoolPath:
    """Scheduler transitions driven with hand-built futures."""

    def test_timeout_then_retry_succeeds(self):
        supervisor = JobSupervisor(FaultPolicy(timeout=0.05, retries=1, **FAST))
        submissions: list[int] = []
        resets: list[int] = []

        def submit(task: SupervisedTask, attempt: int) -> Future:
            submissions.append(attempt)
            return _hung_future() if attempt == 1 else _done_future("recovered")

        report = supervisor.run(
            [SupervisedTask(0, None)],
            workers=2,
            submit=submit,
            run_inline=lambda task, attempt: pytest.fail("must stay on pool path"),
            reset_pool=lambda: resets.append(1),
        )
        assert report.results == {0: "recovered"}
        assert submissions == [1, 2]
        assert supervisor.timeouts_total == 1
        assert supervisor.retries_total == 1
        assert resets == [1]

    def test_timeout_exhaustion_quarantines(self):
        supervisor = JobSupervisor(FaultPolicy(timeout=0.05, retries=1, **FAST))
        report = supervisor.run(
            [SupervisedTask(0, None)],
            workers=2,
            submit=lambda task, attempt: _hung_future(),
            run_inline=lambda task, attempt: pytest.fail("must stay on pool path"),
            reset_pool=lambda: None,
        )
        assert report.results == {}
        assert [r.position for r in report.quarantined] == [0]
        assert "TimeoutError" in report.quarantined[0].error
        assert supervisor.timeouts_total == 2  # both attempts timed out

    def test_solo_crash_is_charged(self):
        supervisor = JobSupervisor(FaultPolicy(retries=0, **FAST))
        report = supervisor.run(
            [SupervisedTask(0, None)],
            workers=2,
            submit=lambda task, attempt: _broken_future(),
            run_inline=lambda task, attempt: pytest.fail("must stay on pool path"),
            reset_pool=lambda: None,
        )
        assert [r.position for r in report.quarantined] == [0]
        assert supervisor.quarantined_total == 1

    def test_group_crash_reruns_survivors_in_isolation(self):
        # Two futures die together: neither can be blamed, so both are
        # re-run solo (suspect isolation) and succeed — zero retries
        # charged, the pool reset is the only trace.
        supervisor = JobSupervisor(FaultPolicy(retries=0, **FAST))
        round_one = {0: _broken_future(), 1: _broken_future()}
        solo_submissions: list[int] = []

        def submit(task: SupervisedTask, attempt: int) -> Future:
            if task.position in round_one:
                future = round_one.pop(task.position)
                return future
            solo_submissions.append(task.position)
            return _done_future(f"ok-{task.position}")

        report = supervisor.run(
            [SupervisedTask(0, None), SupervisedTask(1, None)],
            workers=2,
            submit=submit,
            run_inline=lambda task, attempt: pytest.fail("must stay on pool path"),
            reset_pool=lambda: None,
        )
        assert report.results == {0: "ok-0", 1: "ok-1"}
        assert report.quarantined == []
        assert supervisor.retries_total == 0  # bystanders are never charged
        assert supervisor.pool_resets == 1
        assert sorted(solo_submissions) == [0, 1]

    def test_degrades_to_inline_after_pool_reset_budget(self):
        metrics = MetricsRegistry()
        supervisor = JobSupervisor(
            FaultPolicy(timeout=0.05, retries=3, pool_resets=0, **FAST),
            metrics=metrics,
        )
        inline_ran: list[int] = []

        def run_inline(task: SupervisedTask, attempt: int) -> str:
            inline_ran.append(task.position)
            return f"inline-{task.position}"

        report = supervisor.run(
            [SupervisedTask(0, None), SupervisedTask(1, None)],
            workers=2,
            submit=lambda task, attempt: _hung_future(),
            run_inline=run_inline,
            reset_pool=lambda: None,
        )
        assert supervisor.degraded is True
        assert metrics.snapshot()["gauges"]["repro_engine_degraded"] == 1.0
        assert report.results == {0: "inline-0", 1: "inline-1"}
        assert sorted(inline_ran) == [0, 1]
        # A degraded supervisor never goes back to the pool.
        report2 = supervisor.run(
            [SupervisedTask(0, None)],
            workers=2,
            submit=lambda task, attempt: pytest.fail("degraded must not submit"),
            run_inline=run_inline,
            reset_pool=lambda: None,
        )
        assert report2.results == {0: "inline-0"}


class TestInjectedFaultsEndToEnd:
    """Injected crash / hang / raise batches match the serial reference."""

    def test_injected_raise_inline_matches_reference(self):
        fleet, jobs = fleet_and_jobs()
        ref, ref_events = reference(fleet, jobs)
        metrics = MetricsRegistry()
        with BatchEngine(
            fleet,
            screen=False,
            metrics=metrics,
            fault_policy=FaultPolicy(retries=2, **FAST),
            fault_injector=FaultSpec(mode="raise", at=1, fail_attempts=1),
        ) as engine:
            out = [strip_timings(o.result) for o in engine.run(jobs)]
            faults = engine.stats()["faults"]
        assert out == ref
        assert faults["retries"] == 1
        assert faults["quarantined"] == 0
        # The failed attempt's partial MATCH/NO_MATCH events were
        # discarded with it: totals equal the clean run exactly.
        assert event_counters(metrics) == ref_events

    def test_injected_worker_crash_matches_reference(self):
        fleet, jobs = fleet_and_jobs()
        ref, ref_events = reference(fleet, jobs)
        metrics = MetricsRegistry()
        with BatchEngine(
            fleet,
            n_jobs=2,
            screen=False,
            metrics=metrics,
            fault_policy=FaultPolicy(retries=2, **FAST),
            fault_injector=FaultSpec(mode="kill", at=0, fail_attempts=1),
        ) as engine:
            out = [strip_timings(o.result) for o in engine.run(jobs)]
            faults = engine.stats()["faults"]
        assert out == ref
        assert faults["pool_resets"] >= 1
        assert faults["quarantined"] == 0
        assert event_counters(metrics) == ref_events

    def test_injected_hang_times_out_and_matches_reference(self):
        fleet, jobs = fleet_and_jobs()
        ref, ref_events = reference(fleet, jobs)
        metrics = MetricsRegistry()
        with BatchEngine(
            fleet,
            n_jobs=2,
            screen=False,
            metrics=metrics,
            fault_policy=FaultPolicy(timeout=1.0, retries=2, **FAST),
            fault_injector=FaultSpec(
                mode="hang", at=0, fail_attempts=1, hang_seconds=30.0
            ),
        ) as engine:
            out = [strip_timings(o.result) for o in engine.run(jobs)]
            faults = engine.stats()["faults"]
        assert out == ref
        assert faults["timeouts"] == 1
        assert faults["retries"] == 1
        assert event_counters(metrics) == ref_events

    def test_poison_job_yields_failed_outcome_not_crashed_batch(self):
        fleet, jobs = fleet_and_jobs()
        ref, _ = reference(fleet, jobs)
        with BatchEngine(
            fleet,
            n_jobs=2,
            screen=False,
            fault_policy=FaultPolicy(retries=1, **FAST),
            fault_injector=FaultSpec(mode="raise", at=2, fail_attempts=99),
        ) as engine:
            outcomes = engine.run(jobs)
            faults = engine.stats()["faults"]
        assert outcomes[2].disposition is Disposition.FAILED
        assert "InjectedFault" in outcomes[2].error
        assert outcomes[2].result.engine == "quarantined"
        assert outcomes[2].result.n_matched == 0
        # The other jobs are untouched by their neighbour's poison.
        assert [strip_timings(o.result) for o in outcomes[:2]] == ref[:2]
        assert faults["quarantined"] == 1

    def test_every_method_survives_retry_with_identical_payloads(self):
        """The Ap-/Ex- bugfix audit: each method, faulted and retried,
        must reproduce its clean payload and event totals exactly."""
        fleet = banded_fleet(3, 2)
        jobs = [PairJob.build(0, 1, method, 2) for method in ALL_METHODS]
        ref, ref_events = reference(fleet, jobs)
        for position in range(len(jobs)):
            metrics = MetricsRegistry()
            with BatchEngine(
                fleet,
                screen=False,
                metrics=metrics,
                fault_policy=FaultPolicy(retries=1, **FAST),
                fault_injector=FaultSpec(mode="raise", at=position, fail_attempts=1),
            ) as engine:
                out = [strip_timings(o.result) for o in engine.run(jobs)]
            assert out == ref, f"retry diverged with fault at {ALL_METHODS[position]}"
            assert event_counters(metrics) == ref_events, (
                f"event counters diverged with fault at {ALL_METHODS[position]}"
            )


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

    def test_top_k_pairs_supervised_matches_unsupervised(self):
        from repro.apps import top_k_pairs

        fleet = banded_fleet(2, 6)
        plain = top_k_pairs(fleet, epsilon=2, k=3)
        supervised = top_k_pairs(
            fleet,
            epsilon=2,
            k=3,
            fault_policy=FaultPolicy(retries=1, **FAST),
        )
        assert [(s.label, s.similarity) for s in plain] == [
            (s.label, s.similarity) for s in supervised
        ]

    def test_cli_flags_build_fault_kwargs(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(
            [
                "sweep",
                "--timeout", "5",
                "--retries", "1",
                "--resume-from", "ckpt.jsonl",
            ]
        )
        kwargs = _engine_kwargs(args)
        assert kwargs["fault_policy"] == FaultPolicy(timeout=5.0, retries=1)
        assert kwargs["checkpoint"] == "ckpt.jsonl"

    def test_cli_flags_default_to_unsupervised(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(["sweep"])
        kwargs = _engine_kwargs(args)
        assert "fault_policy" not in kwargs
        assert "checkpoint" not in kwargs
