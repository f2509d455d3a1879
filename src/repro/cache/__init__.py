"""Repetition-aware schedule cache for serving scale (ROADMAP O5).

At serving scale topologies repeat, so many requests should never touch
a scheduler.  This package provides:

- :mod:`repro.cache.fingerprint` — the shared content-hash
  canonicalisation machinery (grown out of the checkpoint keys of
  :mod:`repro.sim.parallel` / :mod:`repro.experiments.store`) plus the
  cache's :func:`exact_key`;
- :mod:`repro.cache.policy` — pluggable eviction policies
  (:data:`CACHE_POLICIES`): plain LRU and a repetition-aware policy
  that learns which keys recur;
- :mod:`repro.cache.store` — :class:`ScheduleCache`, the
  content-addressed store whose every answer is bit-identical to a
  direct run of the scheduler.

See ``docs/CACHING.md`` for the key contract, the eviction policies and
the transparency guarantee.
"""

from repro.cache.fingerprint import config_key, describe_callable, exact_key
from repro.cache.policy import CACHE_POLICIES, make_policy
from repro.cache.store import CacheEntry, ScheduleCache, cache_dir_stats

__all__ = [
    "CACHE_POLICIES",
    "CacheEntry",
    "ScheduleCache",
    "cache_dir_stats",
    "config_key",
    "describe_callable",
    "exact_key",
    "make_policy",
]
