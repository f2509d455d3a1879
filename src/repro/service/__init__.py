"""Scheduling-as-a-service: an asyncio HTTP layer over the schedulers.

The package splits plexi-style into a transport
(:mod:`repro.service.server` — routing, JSON schemas, validation) and a
scheduling brain (:mod:`repro.service.broker` — coalescing by
:func:`~repro.cache.fingerprint.exact_key`, per-tenant token buckets,
429/503 backpressure, cache hits and small ``rle`` misses on the
event loop and every other miss one call on a thread pool, through
:class:`~repro.cache.ScheduleCache` into
:mod:`repro.backend`), plus a deterministic HTTP load generator
(:mod:`repro.service.loadgen`) reusing the :mod:`repro.workload`
arrival families.

Run it with ``repro serve`` and drive it with ``repro loadtest``; the
wire contract lives in ``docs/SERVICE.md``.  The transport is stdlib
asyncio with orjson as its JSON codec; a FastAPI/uvicorn adapter can be
layered on via the optional ``service`` extra.
"""

from repro.service.broker import (
    AdmissionError,
    Overloaded,
    RateLimited,
    ScheduleBroker,
    ServiceError,
    SessionExists,
    SessionLimit,
    TokenBucket,
    UnknownSession,
    WIRE_ERROR_CODES,
)
from repro.service.loadgen import LoadReport, raise_nofile_limit, run_loadgen
from repro.service.server import ROUTE_TEMPLATES, ScheduleServer

__all__ = [
    "AdmissionError",
    "LoadReport",
    "Overloaded",
    "ROUTE_TEMPLATES",
    "RateLimited",
    "ScheduleBroker",
    "ScheduleServer",
    "ServiceError",
    "SessionExists",
    "SessionLimit",
    "TokenBucket",
    "UnknownSession",
    "WIRE_ERROR_CODES",
    "raise_nofile_limit",
    "run_loadgen",
]
