"""Threads sharing one schedule cache, alone and behind the broker.

:class:`~repro.cache.store.ScheduleCache` holds its lock only for the
exact-key probe, the bookkeeping and the insert; schedulers run outside
it.  These tests pin what that must preserve:

- a cached hit returns while another request's scheduler is still
  running (deterministic: the running scheduler blocks on an event);
- under heavy thread interleaving (more threads than cores, a 1 µs
  switch interval) every answer is bit-identical to a direct call and
  the counters balance;
- two threads that miss on one key both run the scheduler, both count
  a miss, and the cache keeps one entry.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cache.fingerprint import exact_key, scheduler_identity
from repro.cache.store import ScheduleCache
from repro.core import base as core_base
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology
from repro.service.broker import ScheduleBroker

#: Seconds any single wait may take before the test fails.
TIMEOUT = 60.0


def _problem(n: int, seed: int) -> FadingRLS:
    return FadingRLS(links=paper_topology(n, seed=seed))


def _threads() -> int:
    """More threads than this process may run on at once."""
    return 2 * len(os.sched_getaffinity(0)) + 2


@pytest.fixture
def fast_switching():
    """Switch the GIL every microsecond to shake out lock-scope races."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _stream(n_distinct: int, n_requests: int, seed: int):
    """Distinct small topologies and a request stream that repeats them."""
    problems = [_problem(6 + i % 7, 100 + i) for i in range(n_distinct)]
    picks = np.random.default_rng(seed).integers(0, n_distinct, size=n_requests)
    return problems, [problems[i] for i in picks]


class TestSharedCache:
    def test_concurrent_misses_on_one_key_insert_once(self):
        rendezvous = threading.Barrier(2, timeout=TIMEOUT)

        def scheduler(problem, **kwargs):
            rendezvous.wait()  # both lookups missed before either inserts
            return rle_schedule(problem, **kwargs)

        cache = ScheduleCache(capacity=4)
        p = _problem(10, 4)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(cache.schedule, p, scheduler) for _ in range(2)]
            results = [f.result(timeout=TIMEOUT) for f in futures]
        direct = rle_schedule(p)
        for result in results:
            assert np.array_equal(result.active, direct.active)
        stats = cache.stats
        assert (stats["misses"], stats["exact_hits"], stats["evictions"]) == (2, 0, 0)
        assert len(cache) == 1
        key = exact_key(p, scheduler_identity(scheduler, {}))
        assert list(cache.events) == [("miss", key[:12])] * 2
        # The first insert won; the next lookup is an exact hit on it.
        assert any(cache.schedule(p, scheduler) is r for r in results)

    def test_threads_share_a_transparent_cache(self, fast_switching):
        problems, stream = _stream(n_distinct=16, n_requests=160, seed=1)
        directs = {id(p): rle_schedule(p) for p in problems}
        cache = ScheduleCache(capacity=10)
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            futures = [pool.submit(cache.schedule, p, "rle") for p in stream]
            results = [f.result(timeout=TIMEOUT) for f in futures]
        for p, result in zip(stream, results):
            assert np.array_equal(result.active, directs[id(p)].active)
        stats = cache.stats
        assert stats["exact_hits"] + stats["misses"] == len(stream)
        assert len(cache) == min(cache.capacity, len(problems))
        keys = {exact_key(p, scheduler_identity(rle_schedule, {})) for p in problems}
        assert set(cache.keys()) <= keys
        # Every miss inserts and every eviction removes one entry, except
        # that a miss racing another on the same key finds it inserted.
        assert stats["misses"] - stats["evictions"] >= len(cache)


class TestBrokerConcurrency:
    def test_cached_hit_does_not_wait_for_a_running_miss(self, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocking(problem, **kwargs):
            started.set()
            release.wait(TIMEOUT)
            return rle_schedule(problem, **kwargs)

        # Registered for this test only; monkeypatch removes the entry.
        monkeypatch.setitem(core_base._REGISTRY, "test-blocking", blocking)
        small, large = _problem(12, 1), _problem(40, 2)
        cache = ScheduleCache(capacity=8)

        async def wait_started():
            while not started.is_set():
                await asyncio.sleep(0.005)

        async def drive():
            broker = ScheduleBroker(n_workers=2, cache=cache)
            await broker.start()
            try:
                await broker.submit(small)  # now cached
                blocked = asyncio.ensure_future(broker.submit(large, scheduler="test-blocking"))
                await asyncio.wait_for(wait_started(), TIMEOUT)
                hit = await asyncio.wait_for(broker.submit(small), timeout=5.0)
                still_running = not blocked.done()
                release.set()
                miss = await asyncio.wait_for(blocked, TIMEOUT)
                return hit, still_running, miss
            finally:
                release.set()
                await broker.close()

        hit, still_running, miss = asyncio.run(drive())
        assert hit["tier"] == "cache"
        assert still_running
        assert miss["tier"] == "miss"
        assert np.array_equal(miss["schedule"].active, rle_schedule(large).active)
        assert exact_key(large, scheduler_identity(blocking, None)) in cache

    def test_worker_threads_share_the_cache(self, fast_switching):
        problems, stream = _stream(n_distinct=20, n_requests=200, seed=2)
        directs = {id(p): rle_schedule(p) for p in problems}
        cache = ScheduleCache(capacity=12)
        waves = [stream[i : i + 20] for i in range(0, len(stream), 20)]

        async def drive():
            broker = ScheduleBroker(n_workers=_threads(), batch_max=1, cache=cache)
            await broker.start()
            try:
                results = []
                for wave in waves:
                    submits = (asyncio.wait_for(broker.submit(p), TIMEOUT) for p in wave)
                    results += await asyncio.gather(*submits)
                return results, broker.stats
            finally:
                await broker.close()

        results, broker_stats = asyncio.run(drive())
        for p, result in zip(stream, results):
            assert np.array_equal(result["schedule"].active, directs[id(p)].active)
        stats = cache.stats
        lookups = broker_stats["requests"] - broker_stats["coalesced"]
        assert stats["exact_hits"] + stats["misses"] == lookups == broker_stats["scheduled"]
        assert len(cache) == min(cache.capacity, len(problems))
        # Coalescing keeps one key in flight at a time, so every miss
        # inserts exactly once.
        assert stats["misses"] - stats["evictions"] == len(cache)
        assert stats["exact_hits"] > 0 and stats["evictions"] > 0
