"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python -m pytest benchmarks/suite -q

Runs every workload with ``--smoke`` (tiny inputs, 1-second windows),
untraced and traced, and checks what comparisons of later changes rely
on: the declared metrics and nothing else, working correctness gates,
seeded inputs, and traced self times that add up to the wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, attribute, load_spans  # noqa: E402

_RUNS: dict[tuple[str, int], subprocess.CompletedProcess] = {}


def smoke_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    key = (workload, trace)
    if key not in _RUNS:
        _RUNS[key] = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--smoke", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
    return _RUNS[key]


def printed(run: subprocess.CompletedProcess) -> tuple[dict[str, str], dict]:
    lines = run.stdout.splitlines()
    metrics = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, _value, unit = line.split(" ")
        metrics[name] = unit
    return metrics, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_declared_metrics_only(workload, trace):
    run = smoke_run(workload, trace)
    assert run.returncode == 0, run.stderr
    metrics, result = printed(run)
    declared = {
        entry["name"]: entry["unit"]
        for entry in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert metrics == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall(workload):
    run = smoke_run(workload, 1)
    assert run.returncode == 0, run.stderr
    _, result = printed(run)
    spans_line = next(line for line in run.stdout.splitlines() if line.startswith("# spans "))
    attribution = attribute(load_spans(Path(spans_line.split(" ", 2)[2])))
    assert not attribution.orphans
    assert sum(attribution.self_ns.values()) == pytest.approx(attribution.wall_ns, rel=1e-9)
    shares = result["metrics"]
    layer_total = sum(
        shares[name]["value"]
        for name in (
            "obs.unattributed_share", "apps.topk.self_share", "engine.self_share",
            "algorithms.self_share", "core.self_share", "catalog.self_share",
            "shard.self_share", "serve.self_share",
        )
    )
    assert layer_total == pytest.approx(1.0, abs=1e-9)
    assert shares["obs.unattributed_share"]["value"] <= 0.10


def test_attribution_shares_overlapping_roots():
    def span(span_id, name, start, end, parent=None):
        made = Span(span_id, name, start, parent, None)
        made.end = end
        return made

    spans = [
        span(1, "bench.op", 0, 100),
        span(2, "bench.op", 50, 150),
        span(3, "engine.run", 10, 90, parent=1),
        span(4, "algorithms.join", 20, 40, parent=3),
    ]
    result = attribute(spans)
    assert result.wall_ns == 150
    assert sum(result.self_ns.values()) == pytest.approx(150)
    # 0-50 belongs to root 1 alone; 50-100 is shared by both roots.
    assert result.self_ns[4] == pytest.approx(20)
    assert result.self_ns[3] == pytest.approx(10 + 10 + 40 / 2)
    assert result.self_ns[1] == pytest.approx(10 + 10 / 2)
    assert result.self_ns[2] == pytest.approx(40 / 2 + 10 / 2 + 50)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    def inputs(seed: int) -> str:
        if workload == "couple":
            return workloads.CoupleWorkload(seed, True).inputs_digest()
        if workload == "serve_mixed":
            return workloads.ServeWorkload(seed, True, ROOT, tmp_path).inputs_digest()
        return workloads.FleetWorkload(workload, seed, True, tmp_path).inputs_digest()

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    run = smoke_run(workload, 0)
    assert f"# inputs sha256:{inputs(7)}" in run.stdout.splitlines()


def test_times_are_scaled_by_the_probe(monkeypatch):
    # A core at half the nominal speed: every probe takes twice as long.
    monkeypatch.setattr(
        hostspeed.Probe, "seconds", lambda self, repeats=1: 2 * self.nominal_s
    )
    assert hostspeed.HostSpeed().scale(0.3) == pytest.approx(0.15)
    speed = hostspeed.SpeedSamples()
    speed.sample()
    record = loadgen.Record("read", 0.004, True, finished=speed.times[0] + 1.0)
    result = loadgen.LoadResult(records=[record] * 10, wall_s=1.0)
    result.rescale(speed)
    assert record.scaled_s == pytest.approx(0.002)
    assert result.scaled_rate == pytest.approx(20.0)


def test_speed_samples_interpolate():
    nominal = hostspeed.INTERPRETER.nominal_s
    speed = hostspeed.SpeedSamples()
    speed.times, speed.probes = [1.0, 2.0], [2 * nominal, 4 * nominal]
    assert speed.factor_at(0.5) == pytest.approx(0.5)
    assert speed.factor_at(1.25) == pytest.approx(0.4)
    assert speed.factor_at(3.0) == pytest.approx(0.25)


def test_couple_gate_catches_a_wrong_matching():
    workload = workloads.CoupleWorkload(7, True)
    workload.setup()
    workload.op(0, None)
    assert workload.check() == []
    result = next(iter(workload.first_results.values()))
    result.pairs.append(result.pairs[0])  # one user matched twice
    assert workload.check()


def test_fleet_gate_catches_a_differing_ranking(tmp_path):
    workload = workloads.FleetWorkload("fleet_sparse.memory", 7, True, tmp_path)
    try:
        workload.setup()
        _, ok = workload.op(0, None)
        assert ok and workload.check() == []
        workload.reference = list(reversed(workload.reference))
        _, ok = workload.op(1, None)
        assert not ok and workload.check()
    finally:
        workload.close()


def test_serve_gate_catches_a_lost_mutation(tmp_path):
    workload = workloads.ServeWorkload(7, True, ROOT, tmp_path)
    try:
        workload.setup()
        load = loadgen.MixedLoad(workload.communities, workload.epsilon, 7)
        workload.drive(load, None, open_s=0.5, closed_s=0.5, tag="t")
        assert workload.check(load)[0] == []
        # A mutation the server never saw: the local replay now differs.
        for first, _second in load.couples:
            load.local[first][:] += 5
        assert workload.check(load)[0]
    finally:
        workload.close()


def _record(
    workload: str,
    seed: int,
    values: dict[str, float],
    *,
    correct: bool = True,
    smoke: bool = False,
) -> str:
    return json.dumps({
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "seconds": float(SPEC["run_seconds"]),
        "smoke": smoke,
        "result": {
            "correct": correct,
            "attempted": 10,
            "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
        },
    })


def test_compare_verdicts(tmp_path, capsys):
    names = [entry["name"] for entry in SPEC["end_to_end"]]

    def write(path: Path, scale: float, extra: list[str] = ()) -> Path:
        lines = [
            _record("couple", seed, {name: (1.0 + 0.001 * seed) * scale for name in names})
            for seed in range(10)
        ]
        path.write_text("\n".join([*lines, *extra]) + "\n")
        return path

    parent = write(tmp_path / "parent.jsonl", 1.0)
    # A smoke run is not a measurement and must not count.
    smoke = _record("couple", 0, dict.fromkeys(names, 100.0), smoke=True)
    same = write(tmp_path / "same.jsonl", 1.0, [smoke])
    assert compare.compare(parent, same, SPEC) == 0
    out = capsys.readouterr().out
    assert " worse" not in out and "fewer than 10" not in out
    slower = write(tmp_path / "slower.jsonl", 1.5)
    assert compare.compare(parent, slower, SPEC) == 1
    assert " worse" in capsys.readouterr().out
    faster = write(tmp_path / "faster.jsonl", 0.5)
    assert compare.compare(parent, faster, SPEC) == 1  # ops_per_s halves: worse
    out = capsys.readouterr().out
    assert "op_p50_ms" in out and " better" in out


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    names = [entry["name"] for entry in SPEC["end_to_end"]]

    def write(path: Path, scale: float, seeds) -> Path:
        lines = [
            _record("couple", seed, {name: (1.0 + 0.1 * seed) * scale for name in names})
            for seed in seeds
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    parent = write(tmp_path / "parent.jsonl", 1.0, range(10))
    # 3% lower on every seed, written in the opposite order: paired by
    # file position, half the pairs would be lost.
    change = write(tmp_path / "change.jsonl", 0.97, reversed(range(10)))
    compare.compare(parent, change, SPEC)
    rows = [line for line in capsys.readouterr().out.splitlines() if " op_p50_ms " in line]
    assert len(rows) == 1 and " 10/10 " in rows[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    run = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "couple",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
