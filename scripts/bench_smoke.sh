#!/usr/bin/env bash
# Tiny-scale smoke run of the engine benchmarks.
#
# Exercises the full bench code path (reference vs engine vs cache-warm,
# byte-identical ranking assertions, the serving-layer load and
# burst-shedding benches, plus the incremental delta-maintenance bench
# and the persistent-catalog bench) in a few seconds.  Smoke mode skips
# the speedup assertions and does NOT overwrite BENCH_engine.json — run
# the benches without these knobs to record real numbers (including the
# "serve", "delta" and "catalog" sections).
set -euo pipefail
cd "$(dirname "$0")/.."

export REPRO_BENCH_ENGINE_SMOKE=1
export REPRO_BENCH_ENGINE_BANDS=3
export REPRO_BENCH_ENGINE_PER_BAND=3
export REPRO_BENCH_ENGINE_USERS=40
export REPRO_BENCH_ENGINE_DIMS=5

export REPRO_BENCH_SERVE_SMOKE=1
export REPRO_BENCH_SERVE_CLIENTS=2
export REPRO_BENCH_SERVE_REQUESTS=10
export REPRO_BENCH_SERVE_BANDS=2
export REPRO_BENCH_SERVE_PER_BAND=2
export REPRO_BENCH_SERVE_USERS=30

export REPRO_BENCH_DELTA_SMOKE=1
export REPRO_BENCH_DELTA_USERS=60
export REPRO_BENCH_DELTA_EVENTS=200
export REPRO_BENCH_DELTA_RECOMPUTE_SAMPLE=20
export REPRO_BENCH_DELTA_CHECK_EVERY=40

export REPRO_BENCH_CATALOG_SMOKE=1
export REPRO_BENCH_CATALOG_BANDS=6
export REPRO_BENCH_CATALOG_PER_BAND=3
export REPRO_BENCH_CATALOG_USERS=10
export REPRO_BENCH_CATALOG_DIMS=4

PYTHONPATH=src python -m pytest \
  benchmarks/bench_engine_batch.py benchmarks/bench_serve_load.py \
  benchmarks/bench_incremental_updates.py benchmarks/bench_catalog.py \
  -m bench -q -s "$@"
