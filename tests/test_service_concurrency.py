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
  a miss, and the cache keeps one entry;
- behind the broker, a small ``rle`` miss is computed on the event
  loop's own thread and every other miss is one call on its thread
  pool: two distinct misses run on two threads at once, and ``close()``
  either waits for the calls in flight or fails their waiters.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import exact_key, scheduler_identity
from repro.cache.store import ScheduleCache
from repro.core import base as core_base
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology
from repro.service import broker as broker_module
from repro.service.broker import Overloaded, ScheduleBroker

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

    def test_worker_threads_share_the_cache(self, fast_switching, worker_path):
        problems, stream = _stream(n_distinct=20, n_requests=200, seed=2)
        directs = {id(p): rle_schedule(p) for p in problems}
        cache = ScheduleCache(capacity=12)
        waves = [stream[i : i + 20] for i in range(0, len(stream), 20)]

        async def drive():
            broker = ScheduleBroker(n_workers=_threads(), cache=cache)
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


def _blocking_scheduler(monkeypatch):
    """Register ``test-blocking``: rle that waits for ``release`` after
    setting ``started``.  Returns ``(started, release)``."""
    started, release = threading.Event(), threading.Event()

    def blocking(problem, **kwargs):
        started.set()
        release.wait(TIMEOUT)
        return rle_schedule(problem, **kwargs)

    # Registered for this test only; monkeypatch removes the entry.
    monkeypatch.setitem(core_base._REGISTRY, "test-blocking", blocking)
    return started, release


async def _until(event: threading.Event) -> None:
    async def poll():
        while not event.is_set():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), TIMEOUT)


def _balanced(stats) -> bool:
    """Both accounting identities of the broker and its cache."""
    cache = stats["cache"]
    refused = stats["rejected_429"] + stats["rejected_503"]
    served = stats["scheduled"] + stats["errors"]
    return (
        stats["requests"] == served + stats["coalesced"] + refused
        and cache["exact_hits"] + cache["misses"] == served
    )


class TestHitsOnTheEventLoop:
    """An exact hit is answered by ``submit`` itself: no computation in
    flight, no executor thread."""

    def test_hit_needs_no_free_worker(self, monkeypatch):
        started, release = _blocking_scheduler(monkeypatch)
        small, large = _problem(12, 1), _problem(40, 2)

        async def drive():
            broker = ScheduleBroker(n_workers=1)
            try:
                await broker.submit(small)  # now cached
                blocked = asyncio.ensure_future(broker.submit(large, scheduler="test-blocking"))
                await _until(started)  # the only worker is busy
                hit = await asyncio.wait_for(broker.submit(small), timeout=5.0)
                still_running = not blocked.done()
                release.set()
                await asyncio.wait_for(blocked, TIMEOUT)
                return hit, still_running, broker.stats
            finally:
                release.set()
                await broker.close()

        hit, still_running, stats = asyncio.run(drive())
        assert hit["tier"] == "cache" and not hit["coalesced"]
        assert np.array_equal(hit["schedule"].active, rle_schedule(small).active)
        assert still_running
        assert _balanced(stats)

    def test_hit_is_answered_with_the_queue_full(self, monkeypatch):
        started, release = _blocking_scheduler(monkeypatch)
        small, large, other = _problem(12, 1), _problem(40, 2), _problem(20, 3)

        async def drive():
            broker = ScheduleBroker(n_workers=1, queue_limit=1)
            try:
                await broker.submit(small)  # now cached
                blocked = asyncio.ensure_future(broker.submit(large, scheduler="test-blocking"))
                await _until(started)
                inflight = broker.stats["inflight"]
                hit = await asyncio.wait_for(broker.submit(small), timeout=5.0)
                with pytest.raises(Overloaded) as refused:
                    await broker.submit(other)
                release.set()
                await asyncio.wait_for(blocked, TIMEOUT)
                return inflight, hit, refused.value, broker.stats
            finally:
                release.set()
                await broker.close()

        inflight, hit, refused, stats = asyncio.run(drive())
        assert inflight == 1  # queue_limit computations in flight
        assert hit["tier"] == "cache"
        assert refused.status == 503 and refused.code == "queue-full"
        assert stats["rejected_503"] == 1
        assert _balanced(stats)

    def test_held_cache_lock_does_not_block_the_loop(self):
        problem = _problem(12, 1)
        cache = ScheduleCache(capacity=8)
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with cache._lock:
                held.set()
                # A loop that waited for the lock would stall this long.
                release.wait(10.0)

        async def drive():
            broker = ScheduleBroker(n_workers=1, cache=cache)
            holder = threading.Thread(target=hold_lock)
            try:
                first = await broker.submit(problem)  # a miss, now cached
                batches = broker.stats["batches"]
                holder.start()
                await _until(held)
                pending = asyncio.ensure_future(broker.submit(problem))
                t0 = time.monotonic()
                for _ in range(20):  # the loop keeps running other coroutines
                    await asyncio.sleep(0.005)
                ticks_s = time.monotonic() - t0
                waited = not pending.done()
                release.set()
                second = await asyncio.wait_for(pending, TIMEOUT)
                after_release = broker.stats
                # With the lock free again, a hit takes no worker thread.
                third = await broker.submit(problem)
                return first, second, third, ticks_s, waited, batches, after_release, broker.stats
            finally:
                release.set()
                if holder.is_alive():
                    holder.join(TIMEOUT)
                await broker.close()

        first, second, third, ticks_s, waited, batches, after_release, stats = asyncio.run(drive())
        assert ticks_s < 5.0 and waited
        assert second["tier"] == third["tier"] == "cache"
        for result in (second, third):
            assert np.array_equal(result["schedule"].active, first["schedule"].active)
        # The request that met the held lock went to a worker, once.
        assert after_release["batches"] == batches + 1
        assert after_release["cache"]["exact_hits"] == 1
        assert after_release["scheduled"] == 2
        assert stats["batches"] == batches + 1
        assert stats["cache"]["exact_hits"] == 2
        assert _balanced(stats)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_workers=st.sampled_from([1, 2]),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=24),
        wave=st.integers(1, 6),
        seed=st.integers(0, 200),
    )
    def test_mixed_stream_balances_and_stays_bit_identical(self, n_workers, picks, wave, seed):
        problems = [_problem(4 + i, seed * 5 + i) for i in range(5)]
        directs = [rle_schedule(p) for p in problems]
        waves = [picks[i : i + wave] for i in range(0, len(picks), wave)]

        async def drive():
            broker = ScheduleBroker(n_workers=n_workers)
            try:
                results, batches = [], []
                for indices in waves:
                    before = broker.stats["batches"]
                    submits = (broker.submit(problems[i]) for i in indices)
                    results += await asyncio.wait_for(asyncio.gather(*submits), TIMEOUT)
                    batches.append(broker.stats["batches"] - before)
                return results, batches, broker.stats
            finally:
                await broker.close()

        results, batches, stats = asyncio.run(drive())
        for i, result in zip(picks, results):
            assert np.array_equal(result["schedule"].active, directs[i].active)
        assert _balanced(stats)
        assert stats["cache"]["misses"] == len(set(picks))
        # Between waves no thread holds the cache lock, so a wave of
        # topologies that are all cached is answered on the loop alone.
        seen = set()
        for indices, n_batches in zip(waves, batches):
            if seen.issuperset(indices):
                assert n_batches == 0
            seen.update(indices)


class TestMissesOnWorkerThreads:
    """A miss is one call on the broker's thread pool."""

    def test_distinct_misses_run_on_two_threads_at_once(self, monkeypatch):
        rendezvous = threading.Barrier(2, timeout=TIMEOUT)
        threads = []

        def barrier(problem, **kwargs):
            threads.append(threading.current_thread().name)
            rendezvous.wait()  # both misses are running before either returns
            return rle_schedule(problem, **kwargs)

        # Registered for this test only; monkeypatch removes the entry.
        monkeypatch.setitem(core_base._REGISTRY, "test-barrier", barrier)
        problems = [_problem(10, 1), _problem(12, 2)]

        async def drive():
            broker = ScheduleBroker(n_workers=2)
            try:
                submits = (broker.submit(p, scheduler="test-barrier") for p in problems)
                return await asyncio.wait_for(asyncio.gather(*submits), 2 * TIMEOUT)
            finally:
                await broker.close()

        results = asyncio.run(drive())
        for problem, result in zip(problems, results):
            assert result["tier"] == "miss"
            assert np.array_equal(result["schedule"].active, rle_schedule(problem).active)
        assert len(set(threads)) == 2

    def test_close_with_drain_waits_for_an_in_flight_miss(self, monkeypatch):
        started, release = _blocking_scheduler(monkeypatch)
        problem = _problem(12, 1)

        async def drive():
            broker = ScheduleBroker(n_workers=1)
            try:
                miss = asyncio.ensure_future(broker.submit(problem, scheduler="test-blocking"))
                await _until(started)
                closing = asyncio.ensure_future(broker.close(drain=True))
                await asyncio.sleep(0.05)
                waited = not closing.done()
                with pytest.raises(Overloaded):  # a draining broker takes no new work
                    await broker.submit(_problem(20, 3))
                release.set()
                await asyncio.wait_for(closing, TIMEOUT)
                return waited, await miss, broker.stats
            finally:
                release.set()

        waited, result, stats = asyncio.run(drive())
        assert waited
        assert result["tier"] == "miss"
        assert np.array_equal(result["schedule"].active, rle_schedule(problem).active)
        assert stats["scheduled"] == 1 and stats["inflight"] == 0

    def test_close_without_drain_fails_a_pending_waiter(self, monkeypatch, worker_path):
        started, release = _blocking_scheduler(monkeypatch)
        running, queued = _problem(12, 1), _problem(20, 3)

        async def drive():
            broker = ScheduleBroker(n_workers=1)
            try:
                first = asyncio.ensure_future(broker.submit(running, scheduler="test-blocking"))
                await _until(started)
                second = asyncio.ensure_future(broker.submit(queued))  # behind the busy thread
                await asyncio.sleep(0)
                # close() waits for the running scheduler, so let it finish;
                # its result reaches the loop only after close() has failed
                # every waiter.
                release.set()
                await broker.close(drain=False)
                outcomes = asyncio.gather(first, second, return_exceptions=True)
                return await asyncio.wait_for(outcomes, TIMEOUT), broker.stats
            finally:
                release.set()

        outcomes, stats = asyncio.run(drive())
        assert all(isinstance(exc, Overloaded) for exc in outcomes), outcomes
        assert stats["inflight"] == 0


def _recording(monkeypatch, name: str) -> list:
    """Wrap registered scheduler ``name`` so each call records its
    thread, as the benchmark's tracer wraps registry entries; returns
    the list of threads."""
    core_base.list_schedulers()  # imports every built-in scheduler
    fn = core_base._REGISTRY[name]
    threads = []

    def recorded(problem, **kwargs):
        threads.append(threading.current_thread())
        return fn(problem, **kwargs)

    monkeypatch.setitem(core_base._REGISTRY, name, recorded)
    return threads


class TestMissesOnTheEventLoop:
    """A small ``rle`` miss is computed by ``submit`` on the event loop;
    each other route leads to a worker thread."""

    @pytest.mark.parametrize("n", [12, broker_module.LOOP_MAX_LINKS])
    def test_small_rle_miss_runs_on_the_calling_thread(self, monkeypatch, n):
        threads = _recording(monkeypatch, "rle")
        problem = _problem(n, 1)

        async def drive():
            broker = ScheduleBroker(n_workers=1)
            try:
                result = await broker.submit(problem)
                return result, broker.stats
            finally:
                await broker.close()

        result, stats = asyncio.run(drive())
        assert threads == [threading.current_thread()]
        assert result["tier"] == "miss" and not result["coalesced"]
        assert np.array_equal(result["schedule"].active, rle_schedule(problem).active)
        assert (stats["batches"], stats["inflight"]) == (0, 0)
        assert (stats["scheduled"], stats["cache"]["misses"]) == (1, 1)
        assert _balanced(stats)

    @pytest.mark.parametrize(
        "route", ["past LOOP_MAX_LINKS", "another scheduler", "cache directory", "held cache lock"]
    )
    def test_every_other_miss_takes_a_worker(self, monkeypatch, tmp_path, route):
        name = "ldp" if route == "another scheduler" else "rle"
        threads = _recording(monkeypatch, name)
        n = broker_module.LOOP_MAX_LINKS + 1 if route == "past LOOP_MAX_LINKS" else 12
        problem = _problem(n, 1)
        cache = ScheduleCache(
            capacity=8, directory=tmp_path if route == "cache directory" else None
        )
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with cache._lock:
                held.set()
                # A loop that waited for the lock would stall this long.
                release.wait(10.0)

        async def drive():
            broker = ScheduleBroker(n_workers=1, cache=cache)
            holder = threading.Thread(target=hold_lock)
            try:
                if route == "held cache lock":
                    holder.start()
                    await _until(held)
                pending = asyncio.ensure_future(broker.submit(problem, scheduler=name))
                await asyncio.sleep(0)  # the submit probes the cache
                release.set()
                return await asyncio.wait_for(pending, TIMEOUT), broker.stats
            finally:
                release.set()
                if holder.is_alive():
                    holder.join(TIMEOUT)
                await broker.close()

        result, stats = asyncio.run(drive())
        assert len(threads) == 1 and threads[0].name.startswith("repro-service")
        assert result["tier"] == "miss"
        direct = core_base.get_scheduler(name)(problem)
        assert np.array_equal(result["schedule"].active, direct.active)
        assert (stats["batches"], stats["inflight"]) == (1, 0)
        assert _balanced(stats)

    def test_a_full_queue_refuses_a_small_miss(self, monkeypatch):
        started, release = _blocking_scheduler(monkeypatch)
        small, large = _problem(12, 1), _problem(40, 2)

        async def drive():
            broker = ScheduleBroker(n_workers=1, queue_limit=1)
            try:
                blocked = asyncio.ensure_future(broker.submit(large, scheduler="test-blocking"))
                await _until(started)
                with pytest.raises(Overloaded) as refused:
                    await broker.submit(small)
                release.set()
                await asyncio.wait_for(blocked, TIMEOUT)
                return refused.value, broker.stats
            finally:
                release.set()
                await broker.close()

        refused, stats = asyncio.run(drive())
        assert refused.code == "queue-full"
        assert (stats["rejected_503"], stats["batches"]) == (1, 1)
        assert _balanced(stats)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_a_later_duplicate_is_a_hit_not_coalesced(self, use_cache):
        problem = _problem(12, 1)

        async def drive():
            broker = ScheduleBroker(use_cache=use_cache)
            try:
                results = await asyncio.gather(*(broker.submit(problem) for _ in range(3)))
                return results, broker.stats
            finally:
                await broker.close()

        results, stats = asyncio.run(drive())
        # Nothing is in flight while the loop computes, so the duplicates
        # find the cache entry, or compute again without a cache.
        tiers = ["miss", "cache", "cache"] if use_cache else ["miss"] * 3
        assert [r["tier"] for r in results] == tiers
        assert [r["coalesced"] for r in results] == [False] * 3
        assert (stats["coalesced"], stats["batches"], stats["scheduled"]) == (0, 0, 3)
        for result in results:
            assert np.array_equal(result["schedule"].active, rle_schedule(problem).active)

