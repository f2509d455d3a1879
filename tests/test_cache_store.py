"""Unit tests for the schedule cache: hits, eviction, persistence.

The transparency contract (every answer is bit-identical to an uncached
run) is exercised here at the unit level; the ``cache-vs-fresh``
differential check and the golden-trace test pin the same property end
to end.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.cache import store
from repro.cache.fingerprint import exact_key, scheduler_identity
from repro.cache.policy import RepetitionAwarePolicy
from repro.cache.store import EVENTS_MAXLEN, ScheduleCache, cache_dir_stats
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.verify.fuzz import make_scenario


def _problem(index=0, n_links=10, **overrides):
    return make_scenario("paper", index, n_links=n_links, **overrides).problem


def _relabeled(problem, seed=7):
    perm = np.random.default_rng(seed).permutation(problem.n_links)
    links = problem.links
    return FadingRLS(
        links=LinkSet(
            senders=np.asarray(links.senders)[perm],
            receivers=np.asarray(links.receivers)[perm],
            rates=np.asarray(links.rates)[perm],
        ),
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )


def _jittered(problem, seed=5, sigma_fraction=0.02):
    """Slightly-moved endpoints: a different exact key, nearby geometry."""
    links = problem.links
    senders = np.asarray(links.senders, dtype=float)
    receivers = np.asarray(links.receivers, dtype=float)
    mean_len = float(np.linalg.norm(receivers - senders, axis=1).mean())
    rng = np.random.default_rng(seed)
    scale = sigma_fraction * mean_len
    return FadingRLS(
        links=LinkSet(
            senders=senders + rng.normal(scale=scale, size=senders.shape),
            receivers=receivers + rng.normal(scale=scale, size=receivers.shape),
            rates=np.asarray(links.rates),
        ),
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )


def _counting_scheduler():
    """An rle wrapper that counts how many times it actually runs."""
    calls = []

    def scheduler(problem, **kwargs):
        calls.append(problem.n_links)
        return rle_schedule(problem, **kwargs)

    return scheduler, calls


# -- hits and misses ------------------------------------------------


class TestExactTier:
    def test_miss_then_exact_hit_returns_the_same_object(self):
        cache = ScheduleCache(capacity=8)
        p = _problem()
        first = cache.schedule(p, "rle")
        second = cache.schedule(p, "rle")
        assert second is first  # bit-identical by construction
        assert cache.stats["misses"] == 1
        assert cache.stats["exact_hits"] == 1
        assert [kind for kind, _ in cache.events] == ["miss", "exact"]

    def test_exact_hit_skips_the_scheduler(self):
        scheduler, calls = _counting_scheduler()
        cache = ScheduleCache(capacity=8)
        p = _problem()
        cache.schedule(p, scheduler)
        cache.schedule(p, scheduler)
        cache.schedule(p, scheduler)
        assert len(calls) == 1

    def test_miss_matches_the_uncached_schedule_bit_for_bit(self):
        cache = ScheduleCache(capacity=8)
        p = _problem()
        cached = cache.schedule(p, "rle")
        fresh = rle_schedule(p)
        assert np.array_equal(cached.active, fresh.active)
        assert cached.algorithm == fresh.algorithm

    def test_scheduler_kwargs_are_part_of_the_key(self):
        cache = ScheduleCache(capacity=8)
        p = _problem()
        cache.schedule(p, "rle")
        cache.schedule(p, "rle", scheduler_kwargs={"c2": 0.4})
        assert cache.stats["misses"] == 2
        assert cache.stats["exact_hits"] == 0

    def test_relabeled_and_jittered_copies_miss(self):
        cache = ScheduleCache(capacity=8)
        p = _problem()
        cache.schedule(p, "rle")
        for q in (_relabeled(p), _jittered(p)):
            result = cache.schedule(q, "rle")
            fresh = rle_schedule(q)
            assert np.array_equal(result.active, fresh.active)  # transparent
        assert cache.stats["exact_hits"] == 0
        assert cache.stats["misses"] == 3

    def test_cache_miss_builds_the_distance_matrix_once(self, monkeypatch):
        calls = []
        original = LinkSet.sender_receiver_distances

        def counting(self):
            calls.append(len(self))
            return original(self)

        monkeypatch.setattr(LinkSet, "sender_receiver_distances", counting)
        cache = ScheduleCache()
        problem = FadingRLS(links=paper_topology(30, seed=5))
        # greedy reads whole columns of F, so it needs the dense matrix.
        cache.schedule(problem, "greedy")
        assert cache.stats["misses"] == 1
        assert calls == [30]

    def test_rle_cache_miss_builds_no_dense_matrix(self, monkeypatch):
        calls = []
        original = LinkSet.sender_receiver_distances

        def counting(self):
            calls.append(len(self))
            return original(self)

        monkeypatch.setattr(LinkSet, "sender_receiver_distances", counting)
        cache = ScheduleCache()
        problem = FadingRLS(links=paper_topology(30, seed=5))
        result = cache.schedule(problem, "rle")
        assert cache.stats["misses"] == 1
        assert calls == []
        assert "distances" not in problem._cache and "F" not in problem._cache
        assert np.array_equal(result.active, rle_schedule(FadingRLS(links=problem.links)).active)


class TestTransparentMode:
    def test_never_computes_a_fingerprint(self, monkeypatch):
        # ``store.fingerprint_with_order`` survives only as a name the
        # benchmark's layer tracer rebinds; nothing may call it.
        def forbidden(problem):
            raise AssertionError("the cache computed a fingerprint")

        monkeypatch.setattr(store, "fingerprint_with_order", forbidden)
        cache = ScheduleCache(capacity=2)
        a, b, c = (_problem(i) for i in range(3))
        for p in (a, a, b, c, _relabeled(a), _jittered(b)):
            assert np.array_equal(cache.schedule(p, "rle").active, rle_schedule(p).active)
        stats = cache.stats
        assert (stats["exact_hits"], stats["misses"], stats["evictions"]) == (1, 5, 3)
        assert (stats["canonical_hits"], stats["warm_hits"]) == (0, 0)

    def test_return_tier_names_the_answering_tier(self):
        cache = ScheduleCache(capacity=8)
        p = _problem()
        first, tier = cache.schedule(p, "rle", return_tier=True)
        assert tier == "miss"
        assert cache.schedule(p, "rle", return_tier=True) == (first, "exact")
        assert cache.schedule(_relabeled(p), "rle", return_tier=True)[1] == "miss"
        assert cache.schedule(_jittered(p), "rle", return_tier=True)[1] == "miss"


class TestEventLog:
    def test_events_are_a_bounded_ring_with_exact_counters(self):
        cache = ScheduleCache(capacity=8)
        a, b = _problem(0, n_links=4), _problem(1, n_links=4)
        cache.schedule(a, "rle")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20_000):
                cache.schedule(a, "rle")
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cache.schedule(b, "rle")
        sid = scheduler_identity(rle_schedule, {})
        assert len(cache.events) == EVENTS_MAXLEN
        assert cache.events[-1] == ("miss", exact_key(b, sid)[:12])
        assert cache.events[0] == ("exact", exact_key(a, sid)[:12])
        assert (cache.stats["exact_hits"], cache.stats["misses"]) == (20_000, 2)
        # A full ring holds about 0.5 MiB; an unbounded log grows about
        # 2.4 MiB over these 20,000 hits.
        assert growth < 2**20


# -- eviction -------------------------------------------------------


class TestEviction:
    def test_repetition_aware_protects_the_hot_entry(self):
        cache = ScheduleCache(capacity=2)
        a, b, c = (_problem(i) for i in range(3))
        cache.schedule(a, "rle")
        for _ in range(3):
            cache.schedule(a, "rle")  # a earns hits
        cache.schedule(b, "rle")
        # LRU would now evict a (b is fresher after this next access
        # pattern); repetition-aware evicts the zero-hit b instead.
        cache.schedule(c, "rle")
        sid = scheduler_identity(rle_schedule, {})
        assert exact_key(a, sid) in cache
        assert exact_key(b, sid) not in cache

    def test_ghost_memory_seeds_reinserted_fingerprints(self):
        policy = RepetitionAwarePolicy()
        cache = ScheduleCache(capacity=1)
        cache._policy = policy  # inject to inspect the ghosts
        a, b = _problem(0), _problem(1)
        cache.schedule(a, "rle")
        for _ in range(4):
            cache.schedule(a, "rle")
        cache.schedule(b, "rle")  # evicts a -> ghost with 4 hits
        # Ghosts are keyed by exact key.
        sid = scheduler_identity(rle_schedule, {})
        key = exact_key(a, sid)
        assert policy.ghosts[key] == 4
        cache.schedule(a, "rle")  # re-inserted, seeded from the ghost
        entry = cache._entries[key]
        assert entry.seeded == 4
        assert key not in policy.ghosts  # consumed

    def test_ghost_capacity_is_bounded_fifo(self):
        policy = RepetitionAwarePolicy(ghost_capacity=2)
        fake = type("E", (), {})
        for i in range(4):
            entry = fake()
            entry.exact_key = f"key{i}"
            entry.hits, entry.seeded = i, 0
            policy.record_eviction(entry)
        assert set(policy.ghosts) == {"key2", "key3"}

    def test_eviction_is_deterministic(self):
        def trace():
            cache = ScheduleCache(capacity=3)
            for i in range(6):
                cache.schedule(_problem(i % 4), "rle")
            return cache.events

        assert trace() == trace()


# -- persistence ----------------------------------------------------


class TestPersistence:
    def test_round_trip_exact_hit_without_rerunning(self, tmp_path):
        first = ScheduleCache(capacity=8, directory=tmp_path)
        p = _problem()
        schedule = first.schedule(p, "rle")
        first.flush()

        second = ScheduleCache(capacity=8, directory=tmp_path)
        assert len(second) == 1
        result = second.schedule(p, "rle")
        assert second.stats["exact_hits"] == 1
        assert second.stats["misses"] == 0
        assert np.array_equal(result.active, schedule.active)
        assert result.diagnostics == {"cache": "persisted"}

    def test_entry_with_fingerprint_and_order_gives_an_exact_hit(self, tmp_path):
        # Entry files written while the cache had canonical and warm
        # tiers also carry ``fingerprint`` and ``order``; they still load.
        p = _problem()
        fresh = rle_schedule(p)
        key = exact_key(p, scheduler_identity(rle_schedule, {}))
        links = p.links
        payload = {
            "schema": 1,
            "exact_key": key,
            "fingerprint": "0123456789abcdef01234567",
            "order": list(range(p.n_links)),
            "senders": np.asarray(links.senders, dtype=float).tolist(),
            "receivers": np.asarray(links.receivers, dtype=float).tolist(),
            "rates": np.asarray(links.rates, dtype=float).tolist(),
            "params": [p.alpha, p.gamma_th, p.eps, p.noise, p.power],
            "scheduler_id": scheduler_identity(rle_schedule, {}),
            "active": [int(x) for x in fresh.active],
            "algorithm": fresh.algorithm,
            "rate": float(np.asarray(links.rates)[fresh.active].sum()),
            "hits": 2,
        }
        (tmp_path / f"{key}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        cache = ScheduleCache(capacity=8, directory=tmp_path)
        result, tier = cache.schedule(p, "rle", return_tier=True)
        assert tier == "exact"
        assert np.array_equal(result.active, fresh.active)
        assert cache._entries[key].seeded == 2
        assert cache_dir_stats(tmp_path)["damaged"] == 0

    def test_damaged_files_are_skipped(self, tmp_path):
        first = ScheduleCache(capacity=8, directory=tmp_path)
        first.schedule(_problem(0), "rle")
        first.schedule(_problem(1), "rle")
        files = sorted(tmp_path.glob("*.json"))
        files[0].write_text("{not json")
        second = ScheduleCache(capacity=8, directory=tmp_path)
        assert len(second) == 1

    @pytest.mark.parametrize("text", ["[1, 2, 3]", '"str"', "42", "null"])
    def test_non_object_entry_file_is_skipped_and_kept(self, tmp_path, text):
        junk = tmp_path / "abc.json"
        junk.write_text(text)
        assert len(ScheduleCache(capacity=8, directory=tmp_path)) == 0
        assert cache_dir_stats(tmp_path)["damaged"] == 1
        assert junk.read_text() == text

    def test_wrong_schema_is_skipped(self, tmp_path):
        first = ScheduleCache(capacity=8, directory=tmp_path)
        first.schedule(_problem(), "rle")
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["schema"] = 99
        path.write_text(json.dumps(payload))
        assert len(ScheduleCache(capacity=8, directory=tmp_path)) == 0

    def test_load_respects_capacity(self, tmp_path):
        def entry_files():
            return sorted(p.stem for p in tmp_path.glob("*.json") if p.name != "_stats.json")

        first = ScheduleCache(capacity=8, directory=tmp_path)
        for i in range(4):
            first.schedule(_problem(i), "rle")
        assert len(entry_files()) == 4
        second = ScheduleCache(capacity=2, directory=tmp_path)
        assert len(second) == 2
        assert second.stats["evictions"] == 2
        assert [kind for kind, _ in second.events] == ["evict", "evict"]
        # The files it did not load are gone, not left behind for good.
        assert entry_files() == second.keys()
        for i in range(4, 6):
            second.schedule(_problem(i), "rle")
        assert entry_files() == second.keys()
        assert len(entry_files()) == 2

    def test_eviction_removes_the_persisted_file(self, tmp_path):
        cache = ScheduleCache(capacity=1, directory=tmp_path)
        cache.schedule(_problem(0), "rle")
        cache.schedule(_problem(1), "rle")
        entries = [p for p in tmp_path.glob("*.json") if p.name != "_stats.json"]
        assert len(entries) == 1

    def test_cache_dir_stats(self, tmp_path):
        cache = ScheduleCache(capacity=8, directory=tmp_path)
        p = _problem()
        cache.schedule(p, "rle")
        cache.schedule(p, "rle")
        cache.flush()
        stats = cache_dir_stats(tmp_path)
        assert stats["entries"] == 1
        assert stats["damaged"] == 0
        assert stats["persisted_hits"] == 1
        assert stats["algorithms"] == {"rle": 1}
        assert stats["mean_links"] == pytest.approx(p.n_links)
        assert stats["policy"] == "repetition_aware"
        assert stats["counters"]["exact_hits"] == 1

    def test_cache_dir_stats_counts_damage(self, tmp_path):
        cache = ScheduleCache(capacity=8, directory=tmp_path)
        cache.schedule(_problem(), "rle")
        (tmp_path / "junk.json").write_text("{")
        assert cache_dir_stats(tmp_path)["damaged"] == 1

    def test_cache_dir_stats_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cache_dir_stats(tmp_path / "nope")

    def test_cache_dir_stats_on_a_plain_file_raises_not_a_directory(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("not a directory")
        with pytest.raises(NotADirectoryError):
            cache_dir_stats(plain)


# -- bookkeeping ----------------------------------------------------


class TestBookkeeping:
    def test_stats_and_hit_rate(self):
        cache = ScheduleCache(capacity=8)
        assert cache.stats["hit_rate"] == 0.0
        p = _problem()
        cache.schedule(p, "rle")
        cache.schedule(p, "rle")
        cache.schedule(p, "rle")
        stats = cache.stats
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["entries"] == 1
        assert stats["capacity"] == 8
        assert stats["policy"] == "repetition_aware"

    def test_keys_are_sorted_exact_keys(self):
        cache = ScheduleCache(capacity=8)
        for i in range(3):
            cache.schedule(_problem(i), "rle")
        keys = cache.keys()
        assert keys == sorted(keys)
        assert len(keys) == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)
        with pytest.raises(ValueError):
            RepetitionAwarePolicy(ghost_capacity=-1)
