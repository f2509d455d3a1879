"""Repetition-aware schedule cache for serving scale (ROADMAP O5).

At serving scale topologies repeat, so many requests should never touch
a scheduler.  This package provides:

- :mod:`repro.cache.fingerprint` — the shared content-hash
  canonicalisation machinery (grown out of the checkpoint keys of
  :mod:`repro.sim.parallel` / :mod:`repro.experiments.store`) plus the
  cache's :func:`exact_key`;
- :mod:`repro.cache.policy` — the eviction policy,
  :class:`~repro.cache.policy.RepetitionAwarePolicy`, which learns
  which keys recur and evicts the least-repeated entry;
- :mod:`repro.cache.store` — :class:`ScheduleCache`, the
  content-addressed store whose every answer is bit-identical to a
  direct run of the scheduler.

See ``docs/CACHING.md`` for the key contract, the eviction policy and
the transparency guarantee.
"""

from repro.cache.fingerprint import config_key, describe_callable, exact_key
from repro.cache.store import CacheEntry, ScheduleCache, cache_dir_stats

__all__ = [
    "CacheEntry",
    "ScheduleCache",
    "cache_dir_stats",
    "config_key",
    "describe_callable",
    "exact_key",
]
