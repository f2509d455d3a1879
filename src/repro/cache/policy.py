"""Eviction policy for the schedule cache: repetition-aware.

The cache *learns from workload repetition* (modeled on the
repetition-aware policy named in ROADMAP O5).  The victim is the entry
with the fewest lifetime hits (ties: least recently used, then oldest
insertion), so topologies that keep coming back are protected from
one-off requests churning the cache.  Evicted entries leave a bounded
**ghost** record of their exact key and hit count; when a
previously-evicted key is inserted again, its remembered repetition
count seeds the new entry — a recurring topology regains its
protection immediately instead of re-earning it from zero.

The policy is deterministic: victim selection depends only on hit
counts, the cache's logical clock and insertion order — never on wall
time — so eviction traces are byte-reproducible (the golden-trace test
pins one).

An eviction costs O(log n) amortised, not a scan of every entry.  The
policy keeps each cached entry in a heap under the rank it had when it
was pushed.  A rank only grows (hits and the last-use time go up, the
rest is fixed), so a stored rank is never above the entry's current
one: popping the lowest stored rank and re-pushing it while it is stale
finds the same victim as the minimum over every entry, and each hit
costs at most one re-push.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.cache.store import CacheEntry

__all__ = ["RepetitionAwarePolicy"]

Rank = Tuple[int, int, int]


class RepetitionAwarePolicy:
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
        # (rank when pushed, exact key): one item per tracked entry
        self._heap: List[Tuple[Rank, str]] = []

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

    @staticmethod
    def rank(entry: "CacheEntry") -> Rank:
        """Eviction order: fewest lifetime hits, then least recently
        used, then oldest insertion (unique, so there are no ties)."""
        return (entry.hits + entry.seeded, entry.last_used, entry.inserted_seq)

    def admit(self, entry: "CacheEntry") -> None:
        """Track a newly cached entry as an eviction candidate."""
        heapq.heappush(self._heap, (self.rank(entry), entry.exact_key))

    def pop_victim(
        self, entries: Mapping[str, "CacheEntry"], exclude: Optional[str] = None
    ) -> str:
        """The key of the lowest-ranked entry of ``entries`` other than
        ``exclude``, which is no longer tracked (the caller evicts it)."""
        heap = self._heap
        held = None
        while True:
            stored, key = heapq.heappop(heap)
            if key == exclude:
                held = (stored, key)
                continue
            current = self.rank(entries[key])
            if current == stored:
                break
            heapq.heappush(heap, (current, key))
        if held is not None:
            heapq.heappush(heap, held)
        return key
