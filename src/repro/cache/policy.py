"""Eviction policies for the schedule cache.

Two policies, selected by name (:data:`CACHE_POLICIES`):

``lru``
    Plain least-recently-used: the victim is the entry with the oldest
    last use, ties broken by insertion order.  A good default when the
    request stream has no structure.

``repetition_aware``
    A cache that *learns from workload repetition* (modeled on the
    repetition-aware policy named in ROADMAP O5).  The victim is the
    entry with the fewest lifetime hits (ties: least recently used,
    then oldest insertion), so topologies that keep coming back are
    protected from one-off requests churning the cache.  Evicted
    entries leave a bounded **ghost** record of their exact key and
    hit count; when a previously-evicted key is inserted again, its
    remembered repetition count seeds the new entry — a recurring
    topology regains its protection immediately instead of re-earning
    it from zero.

Policies are deterministic: victim selection depends only on hit
counts, the cache's logical clock and insertion order — never on wall
time — so eviction traces are byte-reproducible (the golden-trace test
pins one).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.cache.store import CacheEntry

__all__ = ["CACHE_POLICIES", "LRUPolicy", "RepetitionAwarePolicy", "make_policy"]

#: Eviction-policy names accepted by :class:`repro.cache.store.ScheduleCache`.
CACHE_POLICIES = ("lru", "repetition_aware")


class LRUPolicy:
    """Least-recently-used eviction; no memory of evicted entries."""

    name = "lru"

    def seed_hits(self, key: str) -> int:
        """Initial repetition credit for a newly-inserted key."""
        return 0

    def record_eviction(self, entry: "CacheEntry") -> None:
        """Hook called with every evicted entry."""

    def victim(self, entries: Mapping[str, "CacheEntry"]) -> str:
        """Key of the entry to evict (``entries`` is non-empty)."""
        return min(entries, key=lambda k: (entries[k].last_used, entries[k].inserted_seq))


class RepetitionAwarePolicy(LRUPolicy):
    """Evict the least-repeated entry; remember evictees' repetition.

    ``ghost_capacity`` bounds the memory of evicted keys (FIFO: the
    oldest ghost is forgotten first).
    """

    name = "repetition_aware"

    def __init__(self, ghost_capacity: int = 512) -> None:
        if ghost_capacity < 0:
            raise ValueError(f"ghost_capacity must be >= 0, got {ghost_capacity}")
        self.ghost_capacity = int(ghost_capacity)
        self._ghosts: "OrderedDict[str, int]" = OrderedDict()

    @property
    def ghosts(self) -> Mapping[str, int]:
        """Read-only view of the remembered exact key → hit counts."""
        return dict(self._ghosts)

    def seed_hits(self, key: str) -> int:
        """Consume the ghost record for ``key`` (0 if none)."""
        return self._ghosts.pop(key, 0)

    def record_eviction(self, entry: "CacheEntry") -> None:
        """Remember the evictee's repetition count as a bounded ghost."""
        if self.ghost_capacity == 0:
            return
        self._ghosts[entry.exact_key] = entry.hits + entry.seeded
        self._ghosts.move_to_end(entry.exact_key)
        while len(self._ghosts) > self.ghost_capacity:
            self._ghosts.popitem(last=False)

    def victim(self, entries: Mapping[str, "CacheEntry"]) -> str:
        """Evict the fewest-hit entry (ties: LRU, then oldest)."""
        return min(
            entries,
            key=lambda k: (
                entries[k].hits + entries[k].seeded,
                entries[k].last_used,
                entries[k].inserted_seq,
            ),
        )


def make_policy(policy: str):
    """Instantiate an eviction policy by name."""
    if policy == "lru":
        return LRUPolicy()
    if policy == "repetition_aware":
        return RepetitionAwarePolicy()
    raise ValueError(f"unknown cache policy {policy!r}; choose from {CACHE_POLICIES}")
