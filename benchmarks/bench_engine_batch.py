"""Batch engine benchmark: reference vs engine vs cache-warm top-k.

The broadcast scenario (Section 1.2 ii.b) at platform scale: a fleet of
communities spread over distinct activity bands (families perturbing
shared archetypes, bands far apart in like-counts), ranked for the
global top-k most similar pairs.  Three executions of the identical
workload are timed:

* ``reference`` — the pre-engine serial ``top_k_pairs`` loop (no
  envelope screen, no cache);
* ``engine_serial`` — the batch engine;
* ``engine_cached`` — a second engine run against a warm join cache.

All three must produce byte-identical pair rankings (asserted via a
canonical JSON serialisation), and at full scale the engine must beat
the reference path.  Results are recorded in ``BENCH_engine.json`` at
the repository root.

Runs are marked with the ``bench`` marker and excluded from tier-1;
``scripts/bench_smoke.sh`` runs a tiny-scale variant (which skips the
speedup assertion — toy sizes are too small to time).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.core.types import Community
from repro.engine import JoinResultCache
from repro.obs import MetricsRegistry
from repro.testing import banded_community_fleet

#: Workload knobs (overridable for the smoke-scale run).
BANDS = int(os.environ.get("REPRO_BENCH_ENGINE_BANDS", 12))
PER_BAND = int(os.environ.get("REPRO_BENCH_ENGINE_PER_BAND", 4))
USERS = int(os.environ.get("REPRO_BENCH_ENGINE_USERS", 200))
DIMS = int(os.environ.get("REPRO_BENCH_ENGINE_DIMS", 8))
EPSILON = int(os.environ.get("REPRO_BENCH_ENGINE_EPSILON", 2))
TOP_K = int(os.environ.get("REPRO_BENCH_ENGINE_K", 10))
#: Smoke mode checks correctness only (toy sizes are too small to time).
SMOKE = os.environ.get("REPRO_BENCH_ENGINE_SMOKE", "0") == "1"

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def build_fleet(seed: int = 7) -> list[Community]:
    """Communities in ``BANDS`` activity bands of ``PER_BAND`` members.

    Members of a band perturb the same archetype matrix (real join work,
    non-trivial similarity); bands are separated by far more than
    epsilon in every dimension, so inter-band pairs are exactly the
    envelope pre-screen's provably-zero case.
    """
    return banded_community_fleet(
        BANDS,
        PER_BAND,
        users=USERS,
        dims=DIMS,
        seed=seed,
        band_gap=600,
        high=40,
        name_format="band{band:02d}-m{member}",
    )


def ranking_bytes(scores) -> bytes:
    """Canonical byte serialisation of a top-k ranking."""
    return json.dumps(
        [
            {
                "name_b": score.name_b,
                "name_a": score.name_a,
                "similarity": repr(score.similarity),
                "matching": score.result.pair_tuples(),
            }
            for score in scores
        ],
        sort_keys=True,
    ).encode()


def timed(label: str, func):
    started = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - started
    print(f"  {label:16s} {elapsed:8.3f}s")
    return result, elapsed


@pytest.mark.bench
def bench_engine_batch(report_writer):
    fleet = build_fleet()
    kwargs = dict(epsilon=EPSILON, k=TOP_K)

    reference, t_reference = timed(
        "reference", lambda: top_k_pairs_reference(fleet, **kwargs)
    )
    serial, t_serial = timed("engine", lambda: top_k_pairs(fleet, **kwargs))
    cache = JoinResultCache(max_entries=4096)
    timed("cache cold fill", lambda: top_k_pairs(fleet, cache=cache, **kwargs))
    cached, t_cached = timed(
        "engine cache-warm", lambda: top_k_pairs(fleet, cache=cache, **kwargs)
    )

    # Telemetry overhead: the serial engine with the registry disabled
    # (the default) must stay within noise of the baseline serial run —
    # the disabled path is one ``is None`` test per hook.  The enabled
    # run is informational.  A shared-CPU runner drifts several percent
    # between measurements taken minutes apart, so interleave fresh
    # baseline/off/on triples and take best-of-three of each rather than
    # comparing against the earlier ``t_serial`` measurement.
    baseline_runs, disabled_runs, enabled_runs = [], [], []
    for _ in range(3):
        baseline_runs.append(
            timed("serial baseline", lambda: top_k_pairs(fleet, **kwargs))[1]
        )
        disabled_runs.append(
            timed("serial telemetry-off", lambda: top_k_pairs(fleet, **kwargs))[1]
        )
        registry = MetricsRegistry()
        with_telemetry, t_enabled_run = timed(
            "serial telemetry-on",
            lambda: top_k_pairs(fleet, metrics=registry, **kwargs),
        )
        enabled_runs.append(t_enabled_run)
    t_baseline = min(baseline_runs)
    t_disabled = min(disabled_runs)
    t_enabled = min(enabled_runs)
    disabled_overhead_pct = 100.0 * (t_disabled / t_baseline - 1.0)
    enabled_overhead_pct = 100.0 * (t_enabled / min(t_baseline, t_disabled) - 1.0)

    expected = ranking_bytes(reference)
    assert ranking_bytes(serial) == expected
    assert ranking_bytes(cached) == expected
    assert ranking_bytes(with_telemetry) == expected
    assert registry.counter("repro_engine_jobs_total", disposition="computed") > 0
    assert cache.hits > 0

    n_communities = len(fleet)
    payload = {
        "workload": {
            "communities": n_communities,
            "bands": BANDS,
            "per_band": PER_BAND,
            "users_per_community": USERS,
            "dims": DIMS,
            "epsilon": EPSILON,
            "k": TOP_K,
            "all_pairs": n_communities * (n_communities - 1) // 2,
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "smoke": SMOKE,
        },
        "seconds": {
            "reference_serial_topk": round(t_reference, 4),
            "engine_serial": round(t_serial, 4),
            "engine_cache_warm": round(t_cached, 4),
        },
        "speedup_vs_reference": {
            "engine_serial": round(t_reference / t_serial, 2),
            "engine_cache_warm": round(t_reference / t_cached, 2),
        },
        "cache": cache.stats(),
        "telemetry": {
            "serial_disabled_seconds": round(t_disabled, 4),
            "serial_enabled_seconds": round(t_enabled, 4),
            "disabled_overhead_pct_vs_baseline": round(disabled_overhead_pct, 2),
            "enabled_overhead_pct": round(enabled_overhead_pct, 2),
        },
        "rankings_byte_identical": True,
    }
    report = json.dumps(payload, indent=2)
    report_writer("engine_batch", report)
    if not SMOKE:
        _JSON_PATH.write_text(report + "\n")
        print(f"[results recorded in {_JSON_PATH}]")
        assert t_serial < t_reference, (
            f"engine ({t_serial:.3f}s) did not beat the serial "
            f"reference top-k path ({t_reference:.3f}s)"
        )
        assert disabled_overhead_pct < 5.0, (
            f"telemetry-disabled serial run drifted {disabled_overhead_pct:.1f}% "
            f"from the baseline serial run (must stay under 5%)"
        )


@pytest.mark.bench
def bench_engine_sweep_cache(report_writer):
    """Repeated epsilon sweeps: the join cache removes the second pass."""
    from repro.analysis.sweeps import epsilon_sweep

    fleet = build_fleet()
    community_b, community_a = fleet[0], fleet[1]
    epsilons = sorted({0, 1, EPSILON, 2 * EPSILON, 4 * EPSILON})
    cache = JoinResultCache(max_entries=1024)

    cold, t_cold = timed(
        "sweep cold",
        lambda: epsilon_sweep(
            community_b, community_a, epsilons=epsilons, cache=cache
        ),
    )
    warm, t_warm = timed(
        "sweep warm",
        lambda: epsilon_sweep(
            community_b, community_a, epsilons=epsilons, cache=cache
        ),
    )
    assert [p.similarity_percent for p in cold] == [
        p.similarity_percent for p in warm
    ]
    assert cache.hits >= len(epsilons)
    report_writer(
        "engine_sweep_cache",
        f"epsilon sweep x{len(epsilons)}: cold {t_cold:.3f}s, "
        f"warm {t_warm:.3f}s ({cache.stats()})",
    )

