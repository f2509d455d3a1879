"""Content-addressed schedule cache with warm-start repair.

:class:`ScheduleCache` sits in front of any one-shot scheduler and
answers requests from three tiers, cheapest first:

1. **exact** — the request's :func:`~repro.cache.fingerprint.exact_key`
   (raw bytes of the link arrays + channel parameters + scheduler
   identity) is already cached.  The stored schedule is returned as-is:
   **bit-identical** to what the scheduler would produce, no
   verification needed, O(N) total.
2. **canonical** — same
   :func:`~repro.cache.fingerprint.topology_fingerprint` under a
   different labeling/pose: the cached schedule is remapped through the
   two canonical orders and returned after a fresh Corollary 3.1
   feasibility check on the *requested* problem.
3. **warm** — a nearest-fingerprint neighbour (same size, rates and
   channel parameters, endpoints within ``warm_threshold`` link
   lengths on average): the cached schedule warm-starts an
   :class:`~repro.core.incremental.IncrementalScheduler` on the cached
   geometry, a synthesized move-only
   :class:`~repro.network.delta.LinkDelta` carries it to the requested
   geometry, and the engine's repair path (with its quality fallback)
   produces the answer — again feasibility-checked before return.

Anything else is a **miss**: the scheduler runs, and the result is
inserted for next time.

Transparency
------------
Exact hits are bit-identical to uncached runs by construction.  The
canonical and warm tiers may return a *different* feasible schedule
than a scratch run (schedulers tie-break on link indices), so they are
gated behind ``warm_start=True``; with ``warm_start=False`` the cache
is fully transparent — every answer is bit-identical to the uncached
one.  The ``cache-vs-fresh`` differential check and the workload
golden-trace test pin both properties.

Only the canonical and warm tiers read the O(N^2) fingerprint, so a
transparent cache never computes it: its entries, the policy's ghost
records and the event labels key on the exact key instead.

Threads
-------
One cache may be shared by threads.  Its lock covers the exact-key
probe, the hit and miss bookkeeping, and the insert with its evictions
(and, with ``directory=`` set, the entry file).  The fingerprint, the
canonical and warm tiers' checks and the scheduler run outside it, so
a hit never waits for another request's compute.  Two threads that
miss on the same key at once both run the scheduler and both count a
miss; the first insert wins, as in :func:`functools.lru_cache`.

Eviction and persistence
------------------------
``capacity`` bounds the entry count; victims are chosen by a
:mod:`repro.cache.policy` (``repetition_aware`` by default).  With
``directory=`` set, entries persist as one JSON file each (atomic
write: unique temp file + fsync + rename, damaged files read as
misses) so a serving process can restart warm.  Hits, misses and
evictions are counted in :mod:`repro.obs` (``cache.*``; catalogued in
``docs/OBSERVABILITY.md``) and mirrored in :attr:`ScheduleCache.stats`
and in :attr:`ScheduleCache.events`, the ring of the newest
:data:`EVENTS_MAXLEN` events that the golden tests pin.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cache.fingerprint import (
    exact_key,
    fingerprint_with_order,
    geometry_distance,
    scheduler_identity,
)
from repro.cache.policy import CACHE_POLICIES, make_policy
from repro.core.base import get_scheduler
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

__all__ = ["CACHE_POLICIES", "CacheEntry", "ScheduleCache", "cache_dir_stats"]

SchedulerLike = Union[str, Callable[..., Schedule]]

#: Version tag of the persisted entry payload shape.
ENTRY_SCHEMA = 1

#: Number of newest events :attr:`ScheduleCache.events` keeps.
EVENTS_MAXLEN = 4096

#: The ``order`` of an entry cached without a fingerprint.
_NO_ORDER = np.empty(0, dtype=np.int64)
_NO_ORDER.flags.writeable = False


@dataclass
class CacheEntry:
    """One cached schedule plus everything needed to reuse it.

    ``fingerprint`` and ``order`` come from
    :func:`~repro.cache.fingerprint.fingerprint_with_order`.  A
    transparent cache never computes them: it stores the exact key as
    ``fingerprint`` and an empty ``order``.  An exact key never equals
    a fingerprint (the two hashes are salted apart), so the canonical
    tier never matches such an entry.
    """

    exact_key: str
    fingerprint: str
    order: np.ndarray = field(repr=False)  # canonical position -> link index
    links: LinkSet = field(repr=False)
    params: Tuple[float, float, float, float, float]  # alpha, gamma_th, eps, noise, power
    scheduler_id: str
    schedule: Schedule = field(repr=False)
    rate: float
    hits: int = 0
    seeded: int = 0
    last_used: int = 0
    inserted_seq: int = 0

    @property
    def n_links(self) -> int:
        return len(self.links)


def _entry_payload(entry: CacheEntry) -> Dict[str, Any]:
    """Lossless JSON payload for one entry (floats round-trip exactly)."""
    return {
        "schema": ENTRY_SCHEMA,
        "exact_key": entry.exact_key,
        "fingerprint": entry.fingerprint,
        "order": [int(x) for x in entry.order],
        "senders": [[float(x), float(y)] for x, y in entry.links.senders],
        "receivers": [[float(x), float(y)] for x, y in entry.links.receivers],
        "rates": [float(x) for x in entry.links.rates],
        "params": [float(x) for x in entry.params],
        "scheduler_id": entry.scheduler_id,
        "active": [int(x) for x in entry.schedule.active],
        "algorithm": entry.schedule.algorithm,
        "rate": float(entry.rate),
        "hits": int(entry.hits + entry.seeded),
    }


def _entry_from_payload(payload: Dict[str, Any]) -> CacheEntry:
    """Inverse of :func:`_entry_payload`; raises on junk."""
    if payload.get("schema") != ENTRY_SCHEMA:
        raise ValueError(f"unknown cache entry schema: {payload.get('schema')!r}")
    links = LinkSet(
        senders=np.asarray(payload["senders"], dtype=float),
        receivers=np.asarray(payload["receivers"], dtype=float),
        rates=np.asarray(payload["rates"], dtype=float),
    )
    params = tuple(float(x) for x in payload["params"])
    if len(params) != 5:
        raise ValueError(f"cache entry params must have 5 values, got {len(params)}")
    schedule = Schedule(
        active=np.asarray(payload["active"], dtype=np.int64),
        algorithm=str(payload["algorithm"]),
        diagnostics={"cache": "persisted"},
    )
    return CacheEntry(
        exact_key=str(payload["exact_key"]),
        fingerprint=str(payload["fingerprint"]),
        order=np.asarray(payload["order"], dtype=np.int64),
        links=links,
        params=params,  # type: ignore[arg-type]
        scheduler_id=str(payload["scheduler_id"]),
        schedule=schedule,
        rate=float(payload["rate"]),
        seeded=int(payload.get("hits", 0)),
    )


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Durable write: unique temp file + fsync + rename (never torn)."""
    data = json.dumps(payload, indent=2, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ScheduleCache:
    """Content-addressed schedule cache (see the module docstring).

    Parameters
    ----------
    capacity:
        Maximum number of cached entries (>= 1).
    policy:
        Eviction policy name from
        :data:`repro.cache.policy.CACHE_POLICIES`.
    warm_start:
        Enable the canonical and warm tiers.  ``False`` restricts the
        cache to bit-identical exact hits (fully transparent mode).
    warm_threshold:
        Maximum :func:`~repro.cache.fingerprint.geometry_distance` (mean
        endpoint displacement in link lengths) for a warm-start
        neighbour.
    quality_bound:
        Forwarded to the warm-start
        :class:`~repro.core.incremental.IncrementalScheduler`: repaired
        schedules below this fraction of the cached reference rate fall
        back to a from-scratch run inside the engine.
    directory:
        Optional persistence directory (created if missing).  Existing
        entries are loaded eagerly; damaged files are skipped.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: str = "repetition_aware",
        *,
        warm_start: bool = True,
        warm_threshold: float = 0.25,
        quality_bound: float = 0.8,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if warm_threshold < 0.0:
            raise ValueError(f"warm_threshold must be >= 0, got {warm_threshold}")
        self.capacity = int(capacity)
        self._policy = make_policy(policy)
        self.policy = self._policy.name
        self.warm_start = bool(warm_start)
        self.warm_threshold = float(warm_threshold)
        self.quality_bound = float(quality_bound)
        self.directory = Path(directory) if directory is not None else None
        self._entries: Dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        self._clock = 0
        self._seq = 0
        #: The newest :data:`EVENTS_MAXLEN` cache events, oldest first,
        #: as ``(kind, label)``: kind ``exact`` / ``canonical`` / ``warm``
        #: / ``miss`` / ``evict``, label the first 12 hex digits of the
        #: entry's fingerprint.  With ``warm_start=True`` the log is
        #: therefore invariant under relabeling of the request stream; a
        #: transparent cache labels by exact key.
        self.events: Deque[Tuple[str, str]] = deque(maxlen=EVENTS_MAXLEN)
        self._counters: Dict[str, int] = {
            "exact_hits": 0,
            "canonical_hits": 0,
            "warm_hits": 0,
            "misses": 0,
            "evictions": 0,
        }
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_directory()

    # -- public API ---------------------------------------------------

    def schedule(
        self,
        problem,
        scheduler: SchedulerLike = "rle",
        scheduler_kwargs: Optional[dict] = None,
        *,
        return_tier: bool = False,
    ) -> Union[Schedule, Tuple[Schedule, str]]:
        """The schedule for ``problem``, served from cache when possible.

        Drop-in replacement for ``scheduler(problem, **kwargs)``; see
        the module docstring for the tier semantics and the
        transparency guarantee.  With ``return_tier=True`` the result
        is ``(schedule, tier)``, ``tier`` being the tier that answered:
        ``"exact"``, ``"canonical"``, ``"warm"`` or ``"miss"``.
        """
        result, tier = self._lookup(problem, scheduler, scheduler_kwargs)
        return (result, tier) if return_tier else result

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters plus occupancy, as a plain dict."""
        with self._lock:
            out: Dict[str, Any] = dict(self._counters)
            out["entries"] = len(self._entries)
        out["capacity"] = self.capacity
        out["policy"] = self.policy
        lookups = out["exact_hits"] + out["canonical_hits"] + out["warm_hits"] + out["misses"]
        hits = lookups - out["misses"]
        out["hit_rate"] = hits / lookups if lookups else 0.0
        return out

    def flush(self) -> None:
        """Persist the session's counters and hit totals (if on disk).

        Entry files are written at insert time with zero hits; flushing
        re-writes the ones that were hit since, so repetition credit
        (and ``cache_dir_stats``'s ``persisted_hits``) survives a
        restart.
        """
        if self.directory is None:
            return
        with self._lock:
            for key, entry in self._entries.items():
                if entry.hits > 0:
                    _atomic_write_json(self.directory / f"{key}.json", _entry_payload(entry))
            payload = {
                "schema": ENTRY_SCHEMA,
                "policy": self.policy,
                "counters": dict(self._counters),
                "hits": {k: int(e.hits + e.seeded) for k, e in self._entries.items()},
            }
            _atomic_write_json(self.directory / "_stats.json", payload)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Sorted exact keys of every cached entry."""
        with self._lock:
            return sorted(self._entries)

    # -- tiers --------------------------------------------------------

    def _lookup(
        self, problem, scheduler: SchedulerLike, scheduler_kwargs: Optional[dict]
    ) -> Tuple[Schedule, str]:
        """``(schedule, tier)`` for one request (see :meth:`schedule`)."""
        fn = get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        kwargs = dict(scheduler_kwargs or {})
        sid = scheduler_identity(fn, kwargs)
        with span("cache.lookup", n=problem.n_links):
            key = exact_key(problem, sid)
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._record_hit(entry, "exact")
            if entry is not None:
                obs_metrics.inc("cache.exact_hits")
                return entry.schedule, "exact"
            fingerprint, order = key, _NO_ORDER
            if self.warm_start:
                fingerprint, order = fingerprint_with_order(problem)
                hit = self._fuzzy_hit(problem, fingerprint, order, fn, kwargs, sid, key)
                if hit is not None:
                    return hit
            with self._lock:
                self._clock += 1
                self._counters["misses"] += 1
                self.events.append(("miss", fingerprint[:12]))
        obs_metrics.inc("cache.misses")
        result = fn(problem, **kwargs)
        with self._lock:
            self._insert(key, fingerprint, order, problem, sid, result)
        return result, "miss"

    def _record_hit(self, entry: CacheEntry, kind: str) -> None:
        """Count one hit on ``entry`` (caller holds the lock)."""
        self._clock += 1
        entry.hits += 1
        entry.last_used = self._clock
        self._counters[f"{kind}_hits"] += 1
        self.events.append((kind, entry.fingerprint[:12]))

    def _fuzzy_hit(
        self,
        problem,
        fingerprint: str,
        order: np.ndarray,
        fn: Callable[..., Schedule],
        kwargs: dict,
        sid: str,
        key: str,
    ) -> Optional[Tuple[Schedule, str]]:
        """The canonical tier, then the warm tier; ``None`` on a miss.

        Both search a snapshot of the entries, so their feasibility
        checks and repairs run outside the lock.
        """
        with self._lock:
            entries = list(self._entries.values())
        tier = "canonical"
        found = self._canonical_hit(problem, fingerprint, order, sid, entries)
        if found is None:
            tier = "warm"
            found = self._warm_hit(problem, fn, kwargs, sid, entries)
        if found is None:
            return None
        source, result = found
        with self._lock:
            self._record_hit(source, tier)
            self._insert(key, fingerprint, order, problem, sid, result)
        return result, tier

    def _canonical_hit(
        self, problem, fingerprint: str, order: np.ndarray, sid: str, entries: List[CacheEntry]
    ) -> Optional[Tuple[CacheEntry, Schedule]]:
        """Remap a same-fingerprint entry onto the requested labeling."""
        n = problem.n_links
        for entry in entries:
            if entry.fingerprint != fingerprint:
                continue
            if entry.scheduler_id != sid or entry.n_links != n:
                continue
            inverse = np.empty(n, dtype=np.int64)
            inverse[entry.order] = np.arange(n, dtype=np.int64)
            mapped = np.sort(order[inverse[entry.schedule.active]])
            if not problem.is_feasible(mapped):
                continue
            obs_metrics.inc("cache.canonical_hits")
            result = Schedule(
                active=mapped,
                algorithm=entry.schedule.algorithm,
                diagnostics={"cache": "canonical", "source": entry.exact_key},
            )
            return entry, result
        return None

    def _warm_hit(
        self,
        problem,
        fn: Callable[..., Schedule],
        kwargs: dict,
        sid: str,
        entries: List[CacheEntry],
    ) -> Optional[Tuple[CacheEntry, Schedule]]:
        """Repair the nearest neighbour's schedule onto the request."""
        from repro.core.incremental import IncrementalScheduler
        from repro.network.delta import LinkDelta

        if problem.powers is not None:
            return None  # the repair engine is uniform-power only
        params = _problem_params(problem)
        best: Optional[CacheEntry] = None
        best_dist = float("inf")
        for entry in entries:
            if entry.scheduler_id != sid or entry.n_links != problem.n_links:
                continue
            if entry.params != params:
                continue
            if not np.array_equal(entry.links.rates, problem.links.rates):
                continue
            dist = geometry_distance(entry.links, problem.links)
            if dist < best_dist:
                best, best_dist = entry, dist
        if best is None or best_dist > self.warm_threshold:
            return None
        senders = np.asarray(problem.links.senders, dtype=float)
        receivers = np.asarray(problem.links.receivers, dtype=float)
        moved = np.flatnonzero(
            np.any(np.asarray(best.links.senders, dtype=float) != senders, axis=1)
            | np.any(np.asarray(best.links.receivers, dtype=float) != receivers, axis=1)
        )
        if moved.size == 0:
            return None  # identical geometry would have hit an earlier tier
        engine = IncrementalScheduler(
            best.links,
            scheduler=fn,
            scheduler_kwargs=kwargs,
            alpha=problem.alpha,
            gamma_th=problem.gamma_th,
            eps=problem.eps,
            noise=problem.noise,
            power=problem.power,
            quality_bound=self.quality_bound,
        )
        engine.warm_start(best.schedule.active, best.rate)
        delta = LinkDelta.move(moved, senders[moved], receivers[moved])
        with span("cache.warm_start", n=problem.n_links, moved=int(moved.size)):
            repaired = engine.step(delta)
        if not problem.is_feasible(repaired.active):
            return None
        obs_metrics.inc("cache.warm_hits")
        result = repaired.with_diagnostics(
            cache="warm", source=best.exact_key, distance=best_dist
        )
        return best, result

    # -- insertion / eviction (the caller holds the lock) ---------------

    def _insert(
        self,
        key: str,
        fingerprint: str,
        order: np.ndarray,
        problem,
        sid: str,
        result: Schedule,
    ) -> None:
        if key in self._entries:
            return  # a concurrent miss on the same key inserted first
        links = problem.links
        entry = CacheEntry(
            exact_key=key,
            fingerprint=fingerprint,
            order=order,
            links=LinkSet(
                senders=np.array(links.senders, dtype=float),
                receivers=np.array(links.receivers, dtype=float),
                rates=np.array(links.rates, dtype=float),
            ),
            params=_problem_params(problem),
            scheduler_id=sid,
            schedule=result,
            rate=float(np.asarray(links.rates, dtype=float)[result.active].sum()),
            seeded=self._policy.seed_hits(fingerprint),
            last_used=self._clock,
            inserted_seq=self._seq,
        )
        self._seq += 1
        self._entries[key] = entry
        if self.directory is not None:
            _atomic_write_json(self.directory / f"{key}.json", _entry_payload(entry))
        while len(self._entries) > self.capacity:
            self._evict_one(exclude=key)

    def _evict_one(self, exclude: str) -> None:
        candidates = {k: e for k, e in self._entries.items() if k != exclude}
        victim_key = self._policy.victim(candidates)
        victim = self._entries.pop(victim_key)
        if self.directory is not None:
            try:
                (self.directory / f"{victim_key}.json").unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._policy.record_eviction(victim)
        self._counters["evictions"] += 1
        obs_metrics.inc("cache.evictions")
        self.events.append(("evict", victim.fingerprint[:12]))

    # -- persistence --------------------------------------------------

    def _load_directory(self) -> None:
        assert self.directory is not None
        for path in sorted(self.directory.glob("*.json")):
            if path.name == "_stats.json":
                continue
            try:
                payload = json.loads(path.read_text())
                entry = _entry_from_payload(payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
                continue  # damaged entries read as misses
            if len(self._entries) >= self.capacity:
                break
            entry.last_used = self._clock
            entry.inserted_seq = self._seq
            self._seq += 1
            self._entries[entry.exact_key] = entry


def _problem_params(problem) -> Tuple[float, float, float, float, float]:
    return (
        float(problem.alpha),
        float(problem.gamma_th),
        float(problem.eps),
        float(problem.noise),
        float(problem.power),
    )


def cache_dir_stats(directory: Union[str, Path]) -> Dict[str, Any]:
    """Summary of a persisted cache directory (for ``repro cache stats``)."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"cache directory does not exist: {root}")
    entries = 0
    damaged = 0
    hits = 0
    algorithms: Dict[str, int] = {}
    sizes: List[int] = []
    for path in sorted(root.glob("*.json")):
        if path.name == "_stats.json":
            continue
        try:
            payload = json.loads(path.read_text())
            entry = _entry_from_payload(payload)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            damaged += 1
            continue
        entries += 1
        hits += entry.seeded
        algorithms[entry.schedule.algorithm] = algorithms.get(entry.schedule.algorithm, 0) + 1
        sizes.append(entry.n_links)
    out: Dict[str, Any] = {
        "directory": str(root),
        "entries": entries,
        "damaged": damaged,
        "persisted_hits": hits,
        "algorithms": dict(sorted(algorithms.items())),
        "mean_links": float(np.mean(sizes)) if sizes else 0.0,
    }
    stats_path = root / "_stats.json"
    if stats_path.exists():
        try:
            stats = json.loads(stats_path.read_text())
        except (json.JSONDecodeError, OSError):
            stats = None
        if isinstance(stats, dict):
            out["policy"] = stats.get("policy")
            out["counters"] = stats.get("counters")
    return out
