"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed)::

    python3 benchmarks/suite/run.py                      # every workload
    python3 benchmarks/suite/run.py --workload couple --seed 3 --seconds 20
    python3 benchmarks/suite/run.py --workload fleet_dense.shard --trace 1
    python3 benchmarks/suite/run.py --smoke              # seconds, tiny inputs

One workload runs in this process; with several, each runs in a fresh
child interpreter, so memoised envelopes, caches and peak memory never
carry over.  Every metric is printed as ``name value unit``; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the ``end_to_end`` metrics of BENCHMARK.json,
traced runs (``--trace 1``) the ``per_layer`` ones.  A failed
correctness check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host() -> dict[str, object]:
    """What a number measured here depends on."""
    import numpy

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", help="run only this workload (repeatable)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: record spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and a 1-second window (harness self-test)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="append a JSON record of each run (for compare.py)",
    )
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU.

    The host-speed probe (``workloads.HostSpeed``) then measures the core
    the work runs on.  Called before numpy is imported, so that its
    thread pool starts on that CPU too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace, name: str) -> dict:
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = declared()
    metric_kind = "per_layer" if args.trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in spec[metric_kind]}
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    spans_path = ROOT / ".bench_suite" / "spans" / f"{name}-seed{args.seed}.jsonl"
    outcome = workloads.run(
        name,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        root=ROOT,
        spans_path=spans_path,
    )
    if set(outcome.metrics) != set(expected):
        missing = sorted(set(expected) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(expected))
        raise SystemExit(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    metrics = {}
    for metric, unit in expected.items():
        value, measured_unit = outcome.metrics[metric]
        if measured_unit != unit or not math.isfinite(value):
            raise SystemExit(f"{metric}: bad value {value!r} {measured_unit}")
        metrics[metric] = {"value": float(value), "unit": unit}
        print(f"{metric} {value!r} {unit}")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# inputs sha256:{outcome.inputs_digest}")
    if outcome.spans_path:
        print(f"# spans {outcome.spans_path}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    if args.out is not None:
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": int(args.trace),
            "seconds": seconds,
            "smoke": args.smoke,
            "inputs_digest": outcome.inputs_digest,
            "host": host(),
            "result": result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return result


def run_children(args: argparse.Namespace, names: list[str]) -> int:
    results = {}
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.out is not None:
            command += ["--out", str(args.out.resolve())]
        print(f"## {name}", flush=True)
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            print(f"{name}: run failed with exit code {child.returncode}", file=sys.stderr)
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    names = args.workload or list(w["name"] for w in declared()["workloads"])
    if len(names) == 1:
        result = run_one(args, names[0])
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return run_children(args, names)


if __name__ == "__main__":
    sys.exit(main())
