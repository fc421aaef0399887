"""Concurrent-access regression tests for :class:`JoinResultCache`.

The similarity service shares one join-result cache between executor
threads, so ``get``/``put``/``clear`` race by design.  Before the cache
took a lock, the ``OrderedDict`` LRU reordering could corrupt the
structure mid-iteration and the hit/miss counters could lose updates;
these tests hammer the cache from many threads and assert structural
and accounting invariants afterwards.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.types import CSJResult
from repro.engine.cache import JoinResultCache, join_key
from repro.obs import MetricsRegistry

THREADS = 8
OPS_PER_THREAD = 400
KEYSPACE = 48
CAPACITY = 16  # far smaller than the keyspace, so evictions churn constantly


def _result(index: int) -> CSJResult:
    return CSJResult(
        method="Ex-MinMax",
        exact=True,
        size_b=4,
        size_a=4,
        epsilon=index % 3,
    )


def _key(index: int):
    return join_key(f"b{index:04d}", f"a{index:04d}", index % 3, "ex-minmax")


def _hammer(cache: JoinResultCache, seed: int) -> int:
    """Mixed get/put/clear traffic; returns the number of lookups made."""
    lookups = 0
    for step in range(OPS_PER_THREAD):
        index = (seed * 31 + step * 7) % KEYSPACE
        key = _key(index)
        if step % 3 == 0:
            cache.put(key, _result(index))
        else:
            hit = cache.get(key)
            lookups += 1
            if hit is not None:
                # A hit must rehydrate the exact payload that was stored.
                assert hit.epsilon == index % 3
        if seed == 0 and step % 97 == 0:
            cache.clear()
        if step % 11 == 0:
            len(cache)
            key in cache
            cache.stats()
    return lookups


def test_cache_survives_concurrent_mixed_traffic():
    cache = JoinResultCache(max_entries=CAPACITY)
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        lookups = sum(pool.map(_hammer, [cache] * THREADS, range(THREADS)))
    stats = cache.stats()
    assert stats["entries"] <= CAPACITY
    assert stats["hits"] + stats["misses"] == lookups
    # LRU structure must still behave: a fresh put is retrievable.
    probe = _key(KEYSPACE + 1)
    cache.put(probe, _result(0))
    assert cache.get(probe) is not None


def test_cache_counters_exact_under_contention():
    """With no evictions or clears, every lookup is hit or miss exactly once."""
    cache = JoinResultCache(max_entries=KEYSPACE * 2, metrics=MetricsRegistry())
    for index in range(KEYSPACE):
        cache.put(_key(index), _result(index))
    barrier = threading.Barrier(THREADS)

    def reader(seed: int) -> int:
        barrier.wait()
        done = 0
        for step in range(OPS_PER_THREAD):
            index = (seed + step) % (KEYSPACE * 2)  # half the probes miss
            cache.get(_key(index))
            done += 1
        return done

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        lookups = sum(pool.map(reader, range(THREADS)))
    assert cache.hits + cache.misses == lookups
    metrics = cache.metrics
    assert metrics.counter("repro_engine_cache_hits_total") == cache.hits
    assert metrics.counter("repro_engine_cache_misses_total") == cache.misses


def test_repr_is_a_consistent_snapshot():
    """``__repr__`` reads entries/hits/misses under the cache lock —
    regression for the torn-read RL008 finding; the rendered counters
    must agree with the cache's own fields."""
    cache = JoinResultCache(max_entries=CAPACITY)
    for index in range(4):
        key = join_key("a", f"b{index}", 1, "Ex-MinMax")
        assert cache.get(key) is None
        cache.put(key, _result(index))
    rendered = repr(cache)
    assert f"entries={len(cache)}/{CAPACITY}" in rendered
    assert f"hits={cache.hits}" in rendered
    assert f"misses={cache.misses}" in rendered
