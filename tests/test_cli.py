"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main

TINY = ["--scale", "0.0005"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_exist(self):
        parser = build_parser()
        for table in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            args = parser.parse_args(
                [f"table{table}"]
                + ([] if table in (1, 2) else ["--scale", "0.001"])
            )
            assert args.command == f"table{table}"

    def test_couple_requires_cid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["couple"])


class TestMain:
    def test_lint_takes_the_lint_cli_arguments(self, capsys):
        from repro.lint.cli import main as lint_main

        assert lint_main(["--list-rules"]) == 0
        rules = capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out == rules
        bad = str(Path(__file__).parent / "lint_fixtures" / "rl001_bad.py")
        assert main(["lint", bad, "--select", "RL001", "--no-baseline"]) == 1
        assert "RL001" in capsys.readouterr().out
        assert main(["lint", bad, "--select", "RL004", "--no-baseline"]) == 0
        assert "RL001" not in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--users", "300"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Entertainment" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Quick Recipes" in capsys.readouterr().out

    def test_method_table(self, capsys):
        assert main(["table4", *TINY]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Ex-MinMax" in out

    def test_method_table_reference_mode(self, capsys):
        assert main(["table3", *TINY, "--reference"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_synthetic_table(self, capsys):
        assert main(["table8", *TINY]) == 0
        assert "SYNTHETIC" in capsys.readouterr().out

    def test_table11(self, capsys):
        assert (
            main(
                [
                    "table11",
                    *TINY,
                    "--categories",
                    "Job_search",
                    "--steps",
                    "1",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 11" in out
        assert "Job_search" in out

    def test_couple(self, capsys):
        assert main(["couple", "--cid", "1", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "cID 1" in out
        assert "ex-minmax" in out

    def test_sweep(self, capsys):
        assert (
            main(["sweep", "--cid", "1", "--scale", "0.001", "--epsilons", "0", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "cID 1" in out

    def test_events(self, capsys):
        assert main(["events", "--cid", "1", "--scale", "0.0006"]) == 0
        out = capsys.readouterr().out
        assert "MIN PRUNE" in out
        assert "Ap-MinMax" in out

    def test_experiments(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        assert (
            main(
                [
                    "experiments",
                    "--scale",
                    "0.0005",
                    "--users",
                    "400",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "Table 11" in text
        assert "Figure 1" in text

    def test_manifest_build_and_verify(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "manifest",
                    "build",
                    str(path),
                    "--scale",
                    "0.0004",
                    "--couples",
                    "1",
                ]
            )
            == 0
        )
        assert path.exists()
        assert main(["manifest", "verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_manifest_verify_detects_tampering(self, tmp_path, capsys):
        import json

        path = tmp_path / "manifest.json"
        main(["manifest", "build", str(path), "--scale", "0.0004", "--couples", "1"])
        payload = json.loads(path.read_text())
        payload["couples"][0]["digest_b"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert main(["manifest", "verify", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_couple_hybrid_method(self, capsys):
        assert (
            main(
                ["couple", "--cid", "1", "--method", "ex-hybrid", "--scale", "0.001"]
            )
            == 0
        )
        assert "ex-hybrid" in capsys.readouterr().out

    def test_doctor(self, capsys):
        assert main(["doctor", "--cid", "1", "--scale", "0.0006"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "[PASS]" in out

    def test_couple_synthetic(self, capsys):
        assert (
            main(
                [
                    "couple",
                    "--cid",
                    "10",
                    "--dataset",
                    "synthetic",
                    "--scale",
                    "0.001",
                    "--method",
                    "ap-minmax",
                ]
            )
            == 0
        )
        assert "ap-minmax" in capsys.readouterr().out


class TestTelemetryCLI:
    """The --telemetry/--telemetry-out surface and the stats command."""

    TOPK = ["topk", "--scale", "0.001", "--couples", "4", "--k", "3"]

    def _rebuild_topk_communities(self):
        """The exact community fleet the CLI topk invocation builds."""
        import dataclasses

        from repro.analysis.runner import make_generator
        from repro.datasets.couples import PAPER_COUPLES, build_couple

        generator = make_generator("vk", seed=7)
        communities = []
        for spec in PAPER_COUPLES[:4]:
            couple = build_couple(spec, generator, scale=0.001)
            for side, community in zip("BA", couple):
                communities.append(
                    dataclasses.replace(
                        community, name=f"c{spec.c_id}{side}:{community.name}"
                    )
                )
        return communities

    def test_topk_log_event_totals_match_join_results(self, tmp_path, capsys):
        from repro.apps import top_k_pairs
        from repro.obs import read_jsonl, summarize_records
        from repro.obs.registry import MetricsRegistry

        path = tmp_path / "topk.jsonl"
        assert main(self.TOPK + ["--telemetry-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"telemetry log written to {path}" in out
        assert "-- telemetry --" in out

        header, records, trailer = read_jsonl(path)
        assert header["command"] == "topk"
        assert trailer is not None and "metrics" in trailer
        logged = summarize_records(records)
        assert logged.n_joins == len(records) > 0

        # Differential check: an identical in-process run's JoinResult
        # event counts must match the log's per-event-type totals.
        direct_records: list = []
        top_k_pairs(
            self._rebuild_topk_communities(),
            epsilon=1,
            k=3,
            metrics=MetricsRegistry(),
            telemetry=direct_records,
        )
        direct = summarize_records(direct_records)
        assert logged.events == direct.events
        assert logged.dispositions == direct.dispositions
        assert logged.matched_pairs == direct.matched_pairs
        # Every record's events are exactly its JoinResult's counts, so
        # the totals in the summary trailer agree too.
        assert trailer["events"] == logged.events

    def test_topk_telemetry_flag_prints_summary(self, capsys):
        assert main(self.TOPK + ["--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry --" in out
        assert "dispositions:" in out

    def test_sweep_telemetry_out(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--cid",
                    "1",
                    "--scale",
                    "0.001",
                    "--epsilons",
                    "0",
                    "1",
                    "--telemetry-out",
                    str(path),
                ]
            )
            == 0
        )
        header, records, _ = read_jsonl(path)
        assert header["command"] == "sweep" and header["cid"] == 1
        assert len(records) == 2
        assert [r.epsilon for r in records] == [0, 1]

    def test_table_telemetry_flag(self, capsys):
        assert main(["table3", "--scale", "0.001", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry --" in out
        assert "joins:" in out

    def test_stats_command(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(self.TOPK + ["--telemetry-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run: command=topk" in out
        assert "joins:" in out and "dispositions:" in out

    def test_stats_prometheus_dump(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(self.TOPK + ["--telemetry-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_jobs_total counter" in out
        assert "repro_core_events_total" in out
        # Every zero-init family is present even with no matching
        # traffic — regression for the dump missing the delta counters.
        assert "repro_delta_refreshes_total 0" in out
        assert "repro_delta_evictions_total 0" in out
