"""Content-hash canonicalisation and the schedule cache's key.

This module is the single home of the repo's content-addressed key
machinery.  The first half (:func:`config_key`,
:func:`describe_callable`, :func:`canonical_channel`) was grown out of
the checkpoint keys in :mod:`repro.experiments.store` and
:mod:`repro.sim.parallel`; both still re-export it, and the byte-level
key values are pinned unchanged by ``tests/test_cache_fingerprint.py``
so existing checkpoint/result directories keep resuming.

The second half is the key of the schedule cache
(:mod:`repro.cache.store`):

``exact_key``
    A hash of the *raw* link arrays, channel parameters and scheduler
    identity.  Two requests share it only when they are the same
    problem bit for bit, which is what makes cache hits safe to return
    without any verification: the cached schedule *is* the schedule the
    scheduler would produce.  Computing it is O(N) — no distance
    matrix.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Mapping, Optional

import numpy as np

__all__ = [
    "canonical_channel",
    "config_key",
    "describe_callable",
    "exact_key",
    "scheduler_identity",
]


# -- shared canonicalisation (moved from experiments.store / sim.parallel) --


def config_key(name: str, params: Mapping[str, Any]) -> str:
    """Stable hex key for a named configuration.

    Parameters are serialised with sorted keys; anything JSON rejects
    (tuples become lists transparently) raises ``TypeError`` so
    unhashable configs fail loudly instead of colliding.
    """
    canonical = json.dumps({"name": name, "params": params}, sort_keys=True, default=_coerce)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _coerce(value: Any):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"unserialisable config value: {value!r}")


def describe_callable(fn: Any) -> str:
    """A stable (address-free) description of a workload/scheduler.

    ``repr`` of a plain function embeds its memory address, which would
    change every run and defeat checkpoint reuse; dataclass factories
    like :class:`~repro.experiments.config.TopologyWorkload` have
    stable field-based reprs and pass through unchanged.
    """
    if isinstance(fn, functools.partial):
        inner = describe_callable(fn.func)
        kwargs = sorted((k, repr(v)) for k, v in (fn.keywords or {}).items())
        return f"partial({inner}, args={fn.args!r}, kwargs={kwargs!r})"
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module and qualname:
        return f"{module}.{qualname}"
    return repr(fn)


def canonical_channel(channel: Optional[str]) -> str:
    """Canonical spec string of a channel (``None`` = Rayleigh)."""
    from repro.channel.laws import get_channel_law

    return get_channel_law(channel).spec


def scheduler_identity(scheduler: Any, scheduler_kwargs: Optional[Mapping[str, Any]]) -> str:
    """Stable identity of a scheduler call: callable + sorted kwargs."""
    kwargs = sorted((k, repr(v)) for k, v in dict(scheduler_kwargs or {}).items())
    return f"{describe_callable(scheduler)}|{kwargs!r}"


# -- schedule-cache key --------------------------------------------------

_EXACT_SALT = b"repro.cache.exact:1\n"


def exact_key(problem, scheduler_id: str) -> str:
    """Bit-level identity of one scheduling request.

    Hashes the raw coordinate/rate arrays, every channel parameter a
    scheduler can see, and the scheduler identity.  Equal keys mean the
    scheduler would run on *identical* inputs, so the cached schedule
    can be returned bit for bit.
    """
    links = problem.links
    h = hashlib.sha256()
    h.update(_EXACT_SALT)
    params = (problem.alpha, problem.gamma_th, problem.eps, problem.noise, problem.power)
    h.update(repr(params).encode())
    h.update(scheduler_id.encode())
    for array in (links.senders, links.receivers, links.rates):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    if problem.powers is None:
        h.update(b"|uniform")
    else:
        h.update(b"|powers:")
        h.update(np.ascontiguousarray(problem.powers, dtype=np.float64).tobytes())
    return h.hexdigest()[:24]
