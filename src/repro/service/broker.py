"""The scheduling brain of :mod:`repro.service`.

The broker sits between the HTTP transport and the schedulers, plexi's
``maestro`` to :mod:`repro.service.server`'s ``endpoint``: the server
parses and answers, the broker decides *whether* and *how* a request is
served.

Admission control happens at submit time, synchronously and
deterministically:

1. **Per-tenant token buckets** — each tenant refills at
   ``tenant_rate`` requests/second up to a burst of ``tenant_burst``;
   an empty bucket raises :class:`RateLimited` (HTTP 429).  The clock
   is injectable, so the refill schedule — and therefore the exact
   accept/reject pattern of a burst — is reproducible in tests.
2. **Bounded queue** — at most ``queue_limit`` distinct requests may be
   pending; beyond that :class:`Overloaded` (HTTP 503) is raised
   immediately instead of letting latency grow without bound.

Between admission and compute, identical requests **coalesce**: the
queue is keyed by :func:`repro.cache.fingerprint.exact_key`, so any
request bit-identical to one already in flight attaches to its future
instead of occupying a queue slot — a thousand clients asking for the
same topology cost one scheduler run.  Workers drain the queue in
batches and compute through a :class:`~repro.cache.ScheduleCache`
(whose every answer is bit-identical to a direct scheduler call) into
:mod:`repro.backend`'s kernels.

Sessions wrap :class:`~repro.core.incremental.IncrementalScheduler`:
open with a topology, then stream :class:`~repro.network.delta.LinkDelta`
objects for warm repairs without recomputation.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.fingerprint import exact_key, scheduler_identity
from repro.cache.store import ScheduleCache
from repro.core.base import get_scheduler
from repro.core.incremental import IncrementalScheduler
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.delta import LinkDelta
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.service import schemas

__all__ = [
    "AdmissionError",
    "Overloaded",
    "RateLimited",
    "ScheduleBroker",
    "ServiceError",
    "SessionExists",
    "SessionLimit",
    "TokenBucket",
    "UnknownSession",
    "WIRE_ERROR_CODES",
]


class ServiceError(Exception):
    """Base for every error the broker maps onto an HTTP status.

    Subclasses pin ``status`` and a stable ``code`` that the server
    copies into the response body; clients match on codes.
    """

    status = 500
    code = "internal-error"

    def __init__(self, message: str, *, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionError(ServiceError):
    """A request refused at the door (never queued, never computed)."""

    status = 503
    code = "overloaded"


class RateLimited(AdmissionError):
    """Per-tenant token bucket empty: HTTP 429, retry after refill."""

    status = 429
    code = "tenant-rate-exceeded"


class Overloaded(AdmissionError):
    """Bounded request queue full: HTTP 503, shed load now."""

    status = 503
    code = "queue-full"


class SessionLimit(AdmissionError):
    """Session table full: HTTP 503 for session opens."""

    status = 503
    code = "session-capacity"


class UnknownSession(ServiceError):
    """Delta for a session id that was never opened: HTTP 404."""

    status = 404
    code = "unknown-session"


class SessionExists(ServiceError):
    """Open for a session id already in use: HTTP 409."""

    status = 409
    code = "session-exists"


#: Every wire-visible error code, for the docs-contract check: each of
#: these must be documented in docs/SERVICE.md.
WIRE_ERROR_CODES: Tuple[str, ...] = (
    # admission and session errors (this module)
    RateLimited.code,
    Overloaded.code,
    SessionLimit.code,
    UnknownSession.code,
    SessionExists.code,
    ServiceError.code,
    # request validation (repro.service.schemas)
    schemas.CODE_BAD_JSON,
    schemas.CODE_BAD_TOPOLOGY,
    schemas.CODE_BAD_DELTA,
    schemas.CODE_BAD_SESSION_REQUEST,
    schemas.CODE_UNKNOWN_SCHEDULER,
    schemas.CODE_TOO_MANY_LINKS,
    # transport-level framing/routing (repro.service.server literals)
    "bad-request",
    "body-too-large",
    "method-not-allowed",
    "unknown-route",
)


class TokenBucket:
    """A classic token bucket with an injectable monotonic clock.

    Refills continuously at ``rate`` tokens/second up to ``burst``;
    :meth:`try_acquire` spends one token or reports failure.  With a
    fake clock the accept/reject sequence of any request schedule is a
    pure function of the timestamps — the determinism the overload
    tests pin.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be > 0, got {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self) -> bool:
        """Spend one token if available; never blocks."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token is available (0 when it already is)."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass(frozen=True)
class ScheduleRequest:
    """One unit of work: schedule ``problem`` with ``scheduler``."""

    problem: FadingRLS
    scheduler: str = "rle"
    tenant: str = "default"


@dataclass
class _Session:
    engine: IncrementalScheduler
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    seq: int = 0


class ScheduleBroker:
    """Bounded queue + coalescing + token buckets + a worker pool.

    Parameters
    ----------
    scheduler:
        Default scheduler name for requests that do not specify one.
    queue_limit:
        Maximum *distinct* pending requests; coalesced duplicates do
        not count.  Beyond it, :meth:`submit` raises :class:`Overloaded`.
    batch_max:
        Workers drain up to this many queued requests per batch and
        compute them in one executor hop.
    n_workers:
        Draining worker tasks (and executor threads).  Results are
        bit-identical at any worker count; more workers only overlap
        the numpy compute of distinct topologies.
    tenant_rate, tenant_burst:
        Per-tenant token-bucket parameters.  ``tenant_rate=None``
        disables rate limiting entirely.
    cache:
        The :class:`ScheduleCache` fronting the schedulers.  ``None``
        with ``use_cache=True`` (the default) builds a 512-entry cache;
        with ``use_cache=False`` every request is computed from
        scratch.  Either way every answer is bit-identical to direct
        scheduling.  The worker threads share the cache; it locks only
        around its probe and insert, so a hit never waits for another
        request's scheduler run.
    max_sessions:
        Cap on concurrently open delta sessions.
    inline:
        Compute on the event loop instead of executor threads; used by
        the verification harness where thread hops add nothing.
    clock:
        Monotonic clock shared by all token buckets (injectable for
        deterministic tests).
    """

    def __init__(
        self,
        *,
        scheduler: str = "rle",
        queue_limit: int = 1024,
        batch_max: int = 32,
        n_workers: int = 2,
        tenant_rate: Optional[float] = None,
        tenant_burst: float = 64.0,
        cache: Optional[ScheduleCache] = None,
        use_cache: bool = True,
        max_sessions: int = 64,
        inline: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.default_scheduler = scheduler
        get_scheduler(scheduler)  # fail fast on unknown names
        self.queue_limit = int(queue_limit)
        self.batch_max = int(batch_max)
        self.n_workers = int(n_workers)
        self.tenant_rate = tenant_rate
        self.tenant_burst = float(tenant_burst)
        self.max_sessions = int(max_sessions)
        self.inline = bool(inline)
        self._clock = clock
        if cache is not None:
            self._cache: Optional[ScheduleCache] = cache
        elif use_cache:
            self._cache = ScheduleCache(capacity=512)
        else:
            self._cache = None
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._sessions: Dict[str, _Session] = {}
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._scheduler_ids: Dict[str, str] = {}
        self._seq = 0
        self._closed = False
        self._counters: Dict[str, int] = {
            "requests": 0,
            "scheduled": 0,
            "coalesced": 0,
            "rejected_429": 0,
            "rejected_503": 0,
            "batches": 0,
            "errors": 0,
            "sessions_opened": 0,
            "deltas_applied": 0,
        }

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._workers:
            return
        if not self.inline:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-service"
            )
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(self.n_workers)
        ]

    async def close(self, *, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` finish queued work first."""
        if drain and self._workers:
            await self._queue.join()
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(Overloaded("broker closed"))
        self._inflight.clear()
        self._closed = True

    # -- admission + submit -------------------------------------------

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.tenant_rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.tenant_rate, self.tenant_burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def _scheduler_id(self, name: str) -> str:
        sid = self._scheduler_ids.get(name)
        if sid is None:
            sid = scheduler_identity(get_scheduler(name), None)
            self._scheduler_ids[name] = sid
        return sid

    def _next_trace_id(self, kind: str) -> str:
        self._seq += 1
        return f"{kind}-{self._seq:08d}"

    async def submit(
        self,
        problem: FadingRLS,
        *,
        scheduler: Optional[str] = None,
        tenant: str = "default",
    ) -> Dict[str, Any]:
        """Serve one schedule request through admission control.

        Returns ``{"schedule", "trace_id", "tier", "coalesced",
        "wall_seconds"}``; raises :class:`RateLimited` /
        :class:`Overloaded` when admission refuses, and re-raises
        scheduler failures.  ``tier`` is what the cache did for the
        computation the request was answered by: ``"cache"`` for a hit,
        ``"miss"`` when the scheduler ran (a miss, or no cache); a
        coalesced request gets its leader's tier.
        """
        if self._closed:
            raise Overloaded("broker is closed")
        name = scheduler or self.default_scheduler
        self._counters["requests"] += 1
        obs_metrics.inc("service.requests")
        trace_id = self._next_trace_id("req")
        t0 = time.perf_counter()
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_acquire():
            self._counters["rejected_429"] += 1
            obs_metrics.inc("service.rejected_429")
            raise RateLimited(
                f"tenant {tenant!r} exceeded {self.tenant_rate:g} req/s "
                f"(burst {self.tenant_burst:g})",
                retry_after=bucket.retry_after(),
            )
        key = exact_key(problem, self._scheduler_id(name))
        future = self._inflight.get(key)
        coalesced = future is not None
        if coalesced:
            self._counters["coalesced"] += 1
            obs_metrics.inc("service.coalesced")
        else:
            if self._queue.qsize() >= self.queue_limit:
                self._counters["rejected_503"] += 1
                obs_metrics.inc("service.rejected_503")
                raise Overloaded(
                    f"request queue full ({self.queue_limit} pending)"
                )
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self._queue.put_nowait((key, ScheduleRequest(problem, name, tenant), future))
        schedule, tier = await asyncio.shield(future)
        return {
            "schedule": schedule,
            "trace_id": trace_id,
            "tier": tier,
            "coalesced": coalesced,
            "wall_seconds": time.perf_counter() - t0,
        }

    # -- the worker pool ----------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._counters["batches"] += 1
            obs_metrics.inc("service.batches")
            obs_metrics.observe("service.batch_size", len(batch))
            if self._executor is None:
                results = self._compute_batch(batch)
            else:
                results = await loop.run_in_executor(
                    self._executor, self._compute_batch, batch
                )
            for (key, _request, future), result in zip(batch, results):
                self._inflight.pop(key, None)
                if isinstance(result, Exception):
                    self._counters["errors"] += 1
                    obs_metrics.inc("service.errors")
                    if not future.done():
                        future.set_exception(result)
                else:
                    self._counters["scheduled"] += 1
                    obs_metrics.inc("service.scheduled")
                    if not future.done():
                        future.set_result(result)
                self._queue.task_done()

    def _compute_batch(self, batch: List[Tuple[str, ScheduleRequest, Any]]) -> List[Any]:
        """Schedule every request in ``batch`` (executor thread).

        Per-item failures come back as exception *values* so one bad
        topology fails only its own future, never the whole batch.
        """
        results: List[Any] = []
        with span("service.batch", size=len(batch)):
            for _key, request, _future in batch:
                try:
                    results.append(self._schedule_one(request))
                except Exception as exc:
                    results.append(exc)
        return results

    def _schedule_one(self, request: ScheduleRequest) -> Tuple[Schedule, str]:
        """The schedule and its tier: ``"cache"`` for a cache hit,
        ``"miss"`` when the scheduler ran (a cache miss, or no cache)."""
        with span(
            "service.request",
            scheduler=request.scheduler,
            n=request.problem.n_links,
        ):
            if self._cache is None:
                return get_scheduler(request.scheduler)(request.problem), "miss"
            schedule, tier = self._cache.schedule(
                request.problem, request.scheduler, return_tier=True
            )
            return schedule, "miss" if tier == "miss" else "cache"

    # -- delta sessions -----------------------------------------------

    async def open_session(
        self,
        session_id: str,
        problem: FadingRLS,
        *,
        scheduler: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Open a delta session; returns its initial schedule."""
        if session_id in self._sessions:
            raise SessionExists(f"session {session_id!r} is already open")
        if len(self._sessions) >= self.max_sessions:
            self._counters["rejected_503"] += 1
            obs_metrics.inc("service.rejected_503")
            raise SessionLimit(
                f"session table full ({self.max_sessions} open sessions)"
            )
        engine = IncrementalScheduler(
            problem.links,
            scheduler=scheduler or self.default_scheduler,
            alpha=problem.alpha,
            gamma_th=problem.gamma_th,
            eps=problem.eps,
            noise=problem.noise,
            power=problem.power,
        )
        session = _Session(engine)
        self._sessions[session_id] = session
        self._counters["sessions_opened"] += 1
        obs_metrics.inc("service.sessions_opened")
        async with session.lock:
            schedule = await self._run_session_op(engine.schedule)
        return {
            "schedule": schedule,
            "trace_id": self._next_trace_id("ses"),
            "seq": session.seq,
        }

    async def apply_delta(self, session_id: str, delta: LinkDelta) -> Dict[str, Any]:
        """Stream one delta into an open session; returns the repair."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no open session {session_id!r}")
        async with session.lock:
            schedule = await self._run_session_op(
                lambda: self._step_session(session, delta)
            )
            session.seq += 1
        self._counters["deltas_applied"] += 1
        obs_metrics.inc("service.deltas_applied")
        return {
            "schedule": schedule,
            "trace_id": self._next_trace_id("ses"),
            "seq": session.seq,
        }

    def _step_session(self, session: _Session, delta: LinkDelta) -> Schedule:
        with span("service.delta", n=session.engine.n_links):
            return session.engine.step(delta)

    async def _run_session_op(self, fn: Callable[[], Schedule]) -> Schedule:
        if self._executor is None:
            return fn()
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn)

    def close_session(self, session_id: str) -> bool:
        """Drop a session; returns whether it existed."""
        return self._sessions.pop(session_id, None) is not None

    # -- introspection ------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters, queue depth, sessions, and cache stats (statz body)."""
        out: Dict[str, Any] = dict(self._counters)
        out["queue_depth"] = self._queue.qsize()
        out["inflight"] = len(self._inflight)
        out["open_sessions"] = len(self._sessions)
        out["tenants"] = len(self._buckets)
        out["queue_limit"] = self.queue_limit
        out["batch_max"] = self.batch_max
        out["n_workers"] = self.n_workers
        out["cache"] = self._cache.stats if self._cache is not None else None
        return out
