"""A/B comparison of two sets of benchmark runs.

Record each side with ``run.py --out FILE`` (untraced), at least ten
seeds, alternating which side runs first::

    python3 benchmarks/suite/compare.py parent.jsonl change.jsonl

Only full-length runs count: smoke runs and runs whose ``seconds``
differ from ``run_seconds`` in BENCHMARK.json are skipped.  For every
end-to-end metric of BENCHMARK.json and every workload found on both
sides, prints each side's median and quartiles, how many pairs the
change won, and a verdict:

* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``better``: at least ten pairs, the change won at least nine tenths
  of them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``unresolved``: neither.  ``spread>bound`` marks a metric whose own
  run-to-run spread is wider than its bound, so "no regression" is not
  shown either, unless every change run beat every parent run.

A pair is a parent run and a change run of the same workload and seed
(several runs of one seed pair up in file order).  The exit code is 1
when any verdict is ``worse`` or a change run was incorrect or failed
more operations than its parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewer pairs than this never give a ``better`` verdict.
MIN_PAIRS = 10


def load(path: Path, run_seconds: float) -> dict[str, dict[int, list[dict]]]:
    """Full-length untraced run records of a JSONL file, by workload and seed."""
    runs: dict[str, dict[int, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace") or record.get("smoke") or record.get("seconds") != run_seconds:
            continue
        runs[record["workload"]][record["seed"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
):
    """``(verdict, note, wins)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    beats_all = (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    )
    note = "spread>bound" if spread > bound and not beats_all else ""
    if worse_by > bound:
        return "worse", note, wins
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (p_med - c_med) > (p_q3 - p_q1)
    ):
        return "better", note, wins
    return "unresolved", note, wins


def compare(parent_path: Path, change_path: Path, spec: dict) -> int:
    run_seconds = float(spec["run_seconds"])
    parent_runs = load(parent_path, run_seconds)
    change_runs = load(change_path, run_seconds)
    status = 0
    header = (
        f"{'workload':21s} {'metric':12s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict"
    )
    print(header)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parents = [r for runs in parent_runs[workload].values() for r in runs]
        changes = [r for runs in change_runs[workload].values() for r in runs]
        paired = [
            pair
            for seed in sorted(set(parent_runs[workload]) & set(change_runs[workload]))
            for pair in zip(parent_runs[workload][seed], change_runs[workload][seed])
        ]
        if len(paired) < MIN_PAIRS:
            print(
                f"# {workload}: {len(paired)} pairs, fewer than {MIN_PAIRS}; "
                "no verdict can be better"
            )
        for record in changes:
            if not record["result"]["correct"]:
                print(f"# {workload}: a change run is incorrect")
                status = 1
        parent_failed = max(r["result"]["failed"] for r in parents)
        if any(r["result"]["failed"] > parent_failed for r in changes):
            print(f"# {workload}: the change failed more operations")
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(record: dict) -> float:
                return record["result"]["metrics"][name]["value"]

            p_values = [value(r) for r in parents]
            c_values = [value(r) for r in changes]
            pairs = [(value(p), value(c)) for p, c in paired]
            result, note, wins = verdict(
                p_values, c_values, pairs, metric["better"], float(metric["bound"])
            )
            if result == "worse":
                status = 1
            p_q1, p_med, p_q3 = quartiles(p_values)
            c_q1, c_med, c_q3 = quartiles(c_values)
            print(
                f"{workload:21s} {name:12s} "
                f"{p_med:12.5g} [{p_q1:9.5g}, {p_q3:9.5g}] "
                f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] "
                f"{wins:3d}/{len(pairs):<3d}  {result} {note}".rstrip()
            )
    missing = sorted(set(parent_runs) ^ set(change_runs))
    if missing:
        print(f"# workloads on one side only: {', '.join(missing)}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
