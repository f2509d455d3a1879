"""Content-addressed schedule cache.

:class:`ScheduleCache` sits in front of any one-shot scheduler.  A
request whose :func:`~repro.cache.fingerprint.exact_key` (raw bytes of
the link arrays + channel parameters + scheduler identity) is already
cached is an **exact** hit: the stored schedule is returned as-is, with
no verification and O(N) total work.  Anything else is a **miss**: the
scheduler runs, and the result is inserted for next time.

Transparency
------------
Every answer is bit-identical to an uncached run of the same scheduler:
a miss *is* that run, and an exact hit returns the schedule the same
inputs produced before.  The ``cache-vs-fresh`` differential check and
the workload golden-trace test pin it.

Threads
-------
One cache may be shared by threads.  Its lock covers the exact-key
probe, the hit and miss bookkeeping, and the insert with its evictions
(and, with ``directory=`` set, the entry file).  The scheduler runs
outside it, so a hit never waits for another request's compute.  Two
threads that miss on the same key at once both run the scheduler and
both count a miss; the first insert wins, as in
:func:`functools.lru_cache`.

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

from repro.cache.fingerprint import exact_key, scheduler_identity
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

#: Nothing here calls this name.  The benchmark's layer tracer
#: (``perfbench/layers.py``) rebinds ``store.fingerprint_with_order``
#: when it installs, so the name stays until that hook goes (ROADMAP R1).
fingerprint_with_order = None


@dataclass
class CacheEntry:
    """One cached schedule plus the request it answers."""

    exact_key: str
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
    """Inverse of :func:`_entry_payload`; raises on junk.

    Entries written before the cache had one tier also carry
    ``fingerprint`` and ``order``; they are ignored.
    """
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
    directory:
        Optional persistence directory (created if missing).  Existing
        entries are loaded eagerly; damaged files are skipped.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: str = "repetition_aware",
        *,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._policy = make_policy(policy)
        self.policy = self._policy.name
        self.directory = Path(directory) if directory is not None else None
        self._entries: Dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        self._clock = 0
        self._seq = 0
        #: The newest :data:`EVENTS_MAXLEN` cache events, oldest first,
        #: as ``(kind, label)``: kind ``exact`` / ``miss`` / ``evict``,
        #: label the first 12 hex digits of the entry's exact key.
        self.events: Deque[Tuple[str, str]] = deque(maxlen=EVENTS_MAXLEN)
        self._counters: Dict[str, int] = {"exact_hits": 0, "misses": 0, "evictions": 0}
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
        the module docstring for the transparency guarantee.  With
        ``return_tier=True`` the result is ``(schedule, tier)``, ``tier``
        being ``"exact"`` for a hit or ``"miss"``.
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
        lookups = out["exact_hits"] + out["misses"]
        out["hit_rate"] = out["exact_hits"] / lookups if lookups else 0.0
        # The benchmark reads both keys from /v1/statz on every serve run
        # (perfbench/run.py); they stay, fixed at 0, until it stops
        # (ROADMAP R1).
        out["canonical_hits"] = out["warm_hits"] = 0
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

    # -- lookup -------------------------------------------------------

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
                self._clock += 1
                entry = self._entries.get(key)
                if entry is None:
                    self._counters["misses"] += 1
                    self.events.append(("miss", key[:12]))
                else:
                    entry.hits += 1
                    entry.last_used = self._clock
                    self._counters["exact_hits"] += 1
                    self.events.append(("exact", key[:12]))
            if entry is not None:
                obs_metrics.inc("cache.exact_hits")
                return entry.schedule, "exact"
        obs_metrics.inc("cache.misses")
        result = fn(problem, **kwargs)
        with self._lock:
            self._insert(key, problem, sid, result)
        return result, "miss"

    # -- insertion / eviction (the caller holds the lock) ---------------

    def _insert(self, key: str, problem, sid: str, result: Schedule) -> None:
        if key in self._entries:
            return  # a concurrent miss on the same key inserted first
        links = problem.links
        entry = CacheEntry(
            exact_key=key,
            links=LinkSet(
                senders=np.array(links.senders, dtype=float),
                receivers=np.array(links.receivers, dtype=float),
                rates=np.array(links.rates, dtype=float),
            ),
            params=tuple(
                float(x)
                for x in (problem.alpha, problem.gamma_th, problem.eps, problem.noise, problem.power)
            ),
            scheduler_id=sid,
            schedule=result,
            rate=float(np.asarray(links.rates, dtype=float)[result.active].sum()),
            seeded=self._policy.seed_hits(key),
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
        self.events.append(("evict", victim_key[:12]))

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
