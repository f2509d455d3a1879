"""Broker semantics: coalescing bit-identity, deterministic backpressure.

The three contracts docs/SERVICE.md promises:

- **bit-identity** — whatever mix of batching and coalescing serves a
  request, the returned schedule is bit-identical to a direct
  scheduler call on the same problem (Hypothesis-probed over random
  instances, duplicate mixes, and batch sizes);
- **deterministic backpressure** — a seeded overload burst against a
  bounded queue accepts/rejects the exact same positions on every run,
  and per-tenant token buckets under an injectable clock reject on a
  schedule that is a pure function of the timestamps;
- **accounting** — requests = scheduled + coalesced + rejected +
  errors, with no silent losses.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.store import ScheduleCache
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.network.delta import LinkDelta
from repro.network.topology import paper_topology
from repro.service.broker import (
    Overloaded,
    RateLimited,
    ScheduleBroker,
    SessionExists,
    SessionLimit,
    TokenBucket,
    UnknownSession,
)


def _problem(n: int, seed: int) -> FadingRLS:
    return FadingRLS(links=paper_topology(n, seed=seed))


def _run(coro):
    return asyncio.run(coro)


# -- serving bit-identity --------------------------------------------


class TestServingBitIdentity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 500),
        duplicates=st.integers(1, 5),
        batch_max=st.sampled_from([1, 2, 32]),
    )
    def test_batched_coalesced_equals_direct(self, n, seed, duplicates, batch_max):
        problem = _problem(n, seed)
        direct = get_scheduler("rle")(problem)

        async def drive():
            broker = ScheduleBroker(batch_max=batch_max, n_workers=2, inline=True)
            await broker.start()
            try:
                return await asyncio.gather(
                    *(broker.submit(problem) for _ in range(duplicates))
                )
            finally:
                await broker.close()

        for result in _run(drive()):
            assert np.array_equal(result["schedule"].active, direct.active)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_distinct_problems_all_bit_identical(self, seed):
        problems = [_problem(4 + i, seed * 7 + i) for i in range(5)]
        directs = [get_scheduler("rle")(p) for p in problems]

        async def drive():
            broker = ScheduleBroker(batch_max=3, n_workers=2, inline=True)
            await broker.start()
            try:
                return await asyncio.gather(*(broker.submit(p) for p in problems))
            finally:
                await broker.close()

        for result, direct in zip(_run(drive()), directs):
            assert np.array_equal(result["schedule"].active, direct.active)

    def test_coalescing_counts_one_run_per_key(self):
        problem = _problem(10, 3)

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                await asyncio.gather(*(broker.submit(problem) for _ in range(8)))
                return broker.stats
            finally:
                await broker.close()

        stats = _run(drive())
        assert stats["requests"] == 8
        assert stats["scheduled"] == 1
        assert stats["coalesced"] == 7

    def test_cache_tier_on_replay(self):
        problem = _problem(8, 5)

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                first = await broker.submit(problem)
                second = await broker.submit(problem)
                return first, second
            finally:
                await broker.close()

        first, second = _run(drive())
        assert first["tier"] == "miss" and not first["coalesced"]
        assert second["tier"] == "cache"
        assert np.array_equal(first["schedule"].active, second["schedule"].active)

    @staticmethod
    def _tiers(broker, problems):
        async def drive():
            await broker.start()
            try:
                return [(await broker.submit(p))["tier"] for p in problems]
            finally:
                await broker.close()

        return _run(drive())

    def test_tier_is_miss_without_a_cache(self):
        p1, p2 = _problem(8, 5), _problem(8, 6)
        broker = ScheduleBroker(use_cache=False, inline=True)
        tiers = self._tiers(broker, [p1, p1, p2, p1])
        # The scheduler ran for every request, so none came from a cache.
        assert tiers == ["miss", "miss", "miss", "miss"]
        assert broker.stats["scheduled"] == 4

    def test_tier_follows_evictions(self):
        p1, p2 = _problem(8, 5), _problem(8, 6)
        cache = ScheduleCache(capacity=1)
        broker = ScheduleBroker(cache=cache, inline=True)
        tiers = self._tiers(broker, [p1, p1, p2, p1])
        # p2 evicts p1, so the last p1 is computed afresh.
        assert tiers == ["miss", "cache", "miss", "miss"]
        stats = cache.stats
        assert (stats["exact_hits"], stats["misses"], stats["evictions"]) == (1, 3, 2)

    def test_coalesced_requests_get_the_leaders_tier(self):
        problem = _problem(8, 5)

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                cold = await asyncio.gather(*(broker.submit(problem) for _ in range(3)))
                warm = await asyncio.gather(*(broker.submit(problem) for _ in range(3)))
                return cold, warm
            finally:
                await broker.close()

        cold, warm = _run(drive())
        assert [r["coalesced"] for r in cold] == [False, True, True]
        assert [r["tier"] for r in cold] == ["miss"] * 3
        assert [r["tier"] for r in warm] == ["cache"] * 3

    def test_no_cache_mode_still_bit_identical(self):
        problem = _problem(9, 11)
        direct = get_scheduler("rle")(problem)

        async def drive():
            broker = ScheduleBroker(use_cache=False, inline=True)
            await broker.start()
            try:
                return await broker.submit(problem)
            finally:
                await broker.close()

        assert np.array_equal(_run(drive())["schedule"].active, direct.active)

    def test_scheduler_error_fails_only_its_future(self):
        good = _problem(6, 1)

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                ok = await broker.submit(good)
                with pytest.raises(KeyError):
                    await broker.submit(good, scheduler="no-such-scheduler")
                ok2 = await broker.submit(good)
                return ok, ok2, broker.stats
            finally:
                await broker.close()

        ok, ok2, _stats = _run(drive())
        assert np.array_equal(ok["schedule"].active, ok2["schedule"].active)


# -- deterministic backpressure --------------------------------------


def _burst_pattern(problems, queue_limit):
    """(accepted, rejected) index sets of one stalled-broker burst."""

    async def drive():
        broker = ScheduleBroker(queue_limit=queue_limit, inline=True)
        tasks = [asyncio.ensure_future(broker.submit(p)) for p in problems]
        await asyncio.sleep(0)
        rejected = [
            i
            for i, t in enumerate(tasks)
            if t.done() and isinstance(t.exception(), Overloaded)
        ]
        await broker.start()
        accepted = []
        for i, task in enumerate(tasks):
            if i not in rejected:
                await task
                accepted.append(i)
        await broker.close()
        return accepted, rejected

    return asyncio.run(drive())


class TestBackpressure:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 300),
        queue_limit=st.integers(1, 5),
        burst=st.integers(6, 10),
    )
    def test_overload_burst_rejects_deterministically(self, seed, queue_limit, burst):
        problems = [_problem(3 + i % 4, seed * 31 + i) for i in range(burst)]
        first = _burst_pattern(problems, queue_limit)
        second = _burst_pattern(problems, queue_limit)
        assert first == second
        accepted, rejected = first
        assert accepted == list(range(queue_limit))
        assert rejected == list(range(queue_limit, burst))

    def test_queue_full_raises_overloaded_with_code(self):
        problems = [_problem(3 + i, 50 + i) for i in range(4)]

        async def drive():
            broker = ScheduleBroker(queue_limit=2, inline=True)
            tasks = [asyncio.ensure_future(broker.submit(p)) for p in problems]
            await asyncio.sleep(0)
            errors = [t.exception() for t in tasks if t.done() and t.exception()]
            await broker.start()
            await asyncio.gather(*tasks, return_exceptions=True)
            await broker.close()
            return errors, broker.stats

        errors, stats = _run(drive())
        assert len(errors) == 2
        assert all(e.code == "queue-full" and e.status == 503 for e in errors)
        assert stats["rejected_503"] == 2
        assert stats["requests"] == 4

    def test_accounting_balances_under_overload(self):
        problems = [_problem(3 + i % 3, i) for i in range(7)]

        async def drive():
            broker = ScheduleBroker(queue_limit=2, inline=True)
            tasks = [asyncio.ensure_future(broker.submit(p)) for p in problems]
            await asyncio.sleep(0)
            await broker.start()
            await asyncio.gather(*tasks, return_exceptions=True)
            await broker.close()
            return broker.stats

        stats = _run(drive())
        accounted = (
            stats["scheduled"]
            + stats["coalesced"]
            + stats["rejected_429"]
            + stats["rejected_503"]
            + stats["errors"]
        )
        assert accounted == stats["requests"] == 7


# -- token buckets ---------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.now = 0.5  # one token refilled
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        clock.now = 100.0
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.floats(0.5, 20.0),
        burst=st.floats(1.0, 10.0),
        steps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=30),
    )
    def test_accept_pattern_is_clock_deterministic(self, rate, burst, steps):
        def pattern():
            clock = FakeClock()
            bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
            out = []
            for dt in steps:
                clock.now += dt
                out.append(bucket.try_acquire())
            return out

        assert pattern() == pattern()

    def test_broker_applies_tenant_buckets(self):
        problem = _problem(6, 2)
        clock = FakeClock()

        async def drive():
            broker = ScheduleBroker(
                tenant_rate=1.0, tenant_burst=2.0, clock=clock, inline=True
            )
            await broker.start()
            try:
                await broker.submit(problem, tenant="a")
                await broker.submit(problem, tenant="a")
                with pytest.raises(RateLimited) as exc_info:
                    await broker.submit(problem, tenant="a")
                # tenant isolation: b's bucket is untouched by a's burn
                await broker.submit(problem, tenant="b")
                clock.now += 1.0
                await broker.submit(problem, tenant="a")
                return exc_info.value, broker.stats
            finally:
                await broker.close()

        err, stats = _run(drive())
        assert err.status == 429 and err.code == "tenant-rate-exceeded"
        assert err.retry_after == pytest.approx(1.0)
        assert stats["rejected_429"] == 1
        assert stats["tenants"] == 2


# -- sessions --------------------------------------------------------


class TestSessions:
    def test_open_delta_matches_incremental_engine(self):
        problem = _problem(10, 9)
        delta = LinkDelta(removes=np.array([1, 3]))

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                opened = await broker.open_session("s", problem)
                repaired = await broker.apply_delta("s", delta)
                return opened, repaired
            finally:
                await broker.close()

        opened, repaired = _run(drive())
        assert opened["seq"] == 0 and repaired["seq"] == 1
        from repro.core.incremental import IncrementalScheduler

        engine = IncrementalScheduler(problem.links)
        assert np.array_equal(opened["schedule"].active, engine.schedule().active)
        assert np.array_equal(repaired["schedule"].active, engine.step(delta).active)

    def test_unknown_and_duplicate_sessions(self):
        problem = _problem(5, 4)

        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            try:
                with pytest.raises(UnknownSession):
                    await broker.apply_delta("ghost", LinkDelta())
                await broker.open_session("s", problem)
                with pytest.raises(SessionExists):
                    await broker.open_session("s", problem)
                assert broker.close_session("s") is True
                assert broker.close_session("s") is False
            finally:
                await broker.close()

        _run(drive())

    def test_session_capacity_503(self):
        async def drive():
            broker = ScheduleBroker(max_sessions=2, inline=True)
            await broker.start()
            try:
                await broker.open_session("a", _problem(4, 1))
                await broker.open_session("b", _problem(4, 2))
                with pytest.raises(SessionLimit) as exc_info:
                    await broker.open_session("c", _problem(4, 3))
                return exc_info.value
            finally:
                await broker.close()

        err = _run(drive())
        assert err.status == 503 and err.code == "session-capacity"


# -- lifecycle -------------------------------------------------------


class TestLifecycle:
    def test_submit_after_close_is_overloaded(self):
        async def drive():
            broker = ScheduleBroker(inline=True)
            await broker.start()
            await broker.close()
            with pytest.raises(Overloaded):
                await broker.submit(_problem(4, 0))

        _run(drive())

    def test_executor_mode_matches_inline(self):
        problem = _problem(11, 21)

        async def drive(inline):
            broker = ScheduleBroker(inline=inline, n_workers=2)
            await broker.start()
            try:
                return (await broker.submit(problem))["schedule"]
            finally:
                await broker.close()

        a = _run(drive(True))
        b = _run(drive(False))
        assert np.array_equal(a.active, b.active)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ScheduleBroker(queue_limit=0)
        with pytest.raises(ValueError):
            ScheduleBroker(batch_max=0)
        with pytest.raises(ValueError):
            ScheduleBroker(n_workers=0)
        with pytest.raises(KeyError):
            ScheduleBroker(scheduler="no-such")
