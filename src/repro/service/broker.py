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
2. **Bounded computations** — at most ``queue_limit`` distinct
   computations may be pending or running; beyond that
   :class:`Overloaded` (HTTP 503) is raised immediately instead of
   letting latency grow without bound.

Between admission and compute, identical requests **coalesce**:
computations in flight are keyed by
:func:`repro.cache.fingerprint.exact_key`, so any request bit-identical
to one already in flight attaches to its future instead of running
another — a thousand clients asking for the same topology cost one
scheduler run.  A request that is not in flight probes the
:class:`~repro.cache.ScheduleCache` with that same key on the event
loop, and an exact hit is answered there: no thread hop.  A small
``rle`` miss (at most :data:`LOOP_MAX_LINKS` links, no cache directory,
a probe that took the cache lock) is computed there too, because its
cost is bounded and handing it to a thread costs more than computing
it.  Everything else — any other miss, or a cache lock held by a worker
thread — is one call on the broker's thread pool.  Both paths compute
through the cache (whose every answer is bit-identical to a direct
scheduler call) into :mod:`repro.backend`'s kernels.

Sessions wrap :class:`~repro.core.incremental.IncrementalScheduler`:
open with a topology, then stream :class:`~repro.network.delta.LinkDelta`
objects for warm repairs without recomputation.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple, Union

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
from repro.utils.validation import check_count, check_positive

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

#: The largest ``rle`` miss :meth:`ScheduleBroker.submit` computes on the
#: event loop instead of a worker thread.  RLE reads at most
#: K·max(N, 4096) F cells for K <= N picks and builds no N×N array, so
#: its cost is bounded by the link count; at 256 links its slowest
#: family (every link scheduled) took 2.3 ms, 2.6 ms at most, on a
#: 2-vCPU VM, under CPython's 5 ms thread switch interval
#: (docs/SERVICE.md, "Small misses on the event loop").
LOOP_MAX_LINKS = 256


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
    """``queue_limit`` computations in flight: HTTP 503, shed load now."""

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
        self.rate = check_positive(rate, "rate")
        self.burst = check_positive(burst, "burst")
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


def _answer(
    schedule: Schedule, tier: str, coalesced: bool, trace_id: str, t0: float
) -> Dict[str, Any]:
    """What :meth:`ScheduleBroker.submit` returns for a request it
    received at ``time.perf_counter()`` ``t0``."""
    return {
        "schedule": schedule,
        "trace_id": trace_id,
        "tier": tier,
        "coalesced": coalesced,
        "wall_seconds": time.perf_counter() - t0,
    }


@dataclass
class _Session:
    engine: IncrementalScheduler
    scheduler: str
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    seq: int = 0


class ScheduleBroker:
    """Coalescing + token buckets + bounded computations on a thread pool.

    Parameters
    ----------
    scheduler:
        Default scheduler name for requests that do not specify one.
    queue_limit:
        Maximum *distinct* computations pending or running on the
        worker threads; coalesced duplicates and cache hits do not
        count.  A miss that finds it reached raises
        :class:`Overloaded`, even one the event loop would compute.
    n_workers:
        Executor threads, each spawned when a computation first needs
        it.  Results are bit-identical at any worker count; more
        threads only overlap the numpy compute of distinct topologies.
    tenant_rate, tenant_burst:
        Per-tenant token-bucket parameters.  ``tenant_rate=None``
        disables rate limiting entirely.
    cache:
        The :class:`ScheduleCache` fronting the schedulers.  ``None``
        with ``use_cache=True`` (the default) builds a 512-entry cache;
        with ``use_cache=False`` every request is computed from
        scratch.  Either way every answer is bit-identical to direct
        scheduling.  The event loop answers exact hits without waiting
        for the cache's lock (:meth:`ScheduleCache.probe`) and computes
        small ``rle`` misses itself (:meth:`submit`); the worker
        threads share the cache for the rest, and it locks only around
        its probe and insert, so a hit never waits for a scheduler run.
    max_sessions:
        Cap on concurrently open delta sessions.
    clock:
        Monotonic clock shared by all token buckets (injectable for
        deterministic tests).
    """

    def __init__(
        self,
        *,
        scheduler: str = "rle",
        queue_limit: int = 1024,
        n_workers: int = 2,
        tenant_rate: Optional[float] = None,
        tenant_burst: float = 64.0,
        cache: Optional[ScheduleCache] = None,
        use_cache: bool = True,
        max_sessions: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default_scheduler = scheduler
        get_scheduler(scheduler)  # fail fast on unknown names
        self.queue_limit = int(check_count(queue_limit, "queue_limit", minimum=1))
        self.n_workers = int(check_count(n_workers, "n_workers", minimum=1))
        # Checked here, not when a tenant's bucket is first built, so a
        # bad rate or burst fails once, here, instead of on every request.
        self.tenant_rate = (
            None if tenant_rate is None else check_positive(tenant_rate, "tenant_rate")
        )
        self.tenant_burst = check_positive(tenant_burst, "tenant_burst")
        self.max_sessions = int(check_count(max_sessions, "max_sessions"))
        self._clock = clock
        if cache is not None:
            self._cache: Optional[ScheduleCache] = cache
        elif use_cache:
            self._cache = ScheduleCache(capacity=512)
        else:
            self._cache = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-service"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._sessions: Dict[str, _Session] = {}
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
            "known_body": 0,
            "sessions_opened": 0,
            "deltas_applied": 0,
        }

    # -- lifecycle ----------------------------------------------------

    async def close(self, *, drain: bool = True) -> None:
        """Refuse new work, then end the computations in flight.

        With ``drain`` their waiters get their answers.  Without it
        they get :class:`Overloaded` at once, and computations no
        thread has picked up are dropped.  A running scheduler cannot be
        interrupted, so either way this returns with every worker
        thread stopped.
        """
        self._closed = True
        pending = list(self._inflight.values())
        if drain and pending:
            await asyncio.wait(pending)
        for fut in pending:
            if not fut.done():
                fut.set_exception(Overloaded("broker closed"))
        self._inflight.clear()
        self._executor.shutdown(wait=True, cancel_futures=not drain)

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

    def request_key(self, problem: FadingRLS, scheduler: Optional[str] = None) -> str:
        """The exact key :meth:`submit` coalesces and caches ``problem``
        under, for ``scheduler`` (default: the broker's)."""
        return exact_key(problem, self._scheduler_id(scheduler or self.default_scheduler))

    @property
    def cache_capacity(self) -> int:
        """The cache's entry bound (0 without a cache)."""
        return self._cache.capacity if self._cache is not None else 0

    async def submit(
        self,
        problem: Union[FadingRLS, Callable[[], FadingRLS]],
        *,
        scheduler: Optional[str] = None,
        tenant: str = "default",
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Serve one schedule request through admission control.

        Returns ``{"schedule", "trace_id", "tier", "coalesced",
        "wall_seconds"}``; raises :class:`RateLimited` /
        :class:`Overloaded` when admission refuses, and re-raises
        scheduler failures.  This is :meth:`admit` and, when that
        returns a wait, the wait; see :meth:`admit` for what each
        request costs and where it is computed.
        """
        answer = self.admit(problem, scheduler=scheduler, tenant=tenant, key=key)
        if isinstance(answer, dict):
            return answer
        return await answer

    def admit(
        self,
        problem: Union[FadingRLS, Callable[[], FadingRLS]],
        *,
        scheduler: Optional[str] = None,
        tenant: str = "default",
        key: Optional[str] = None,
    ) -> Union[Dict[str, Any], Awaitable[Dict[str, Any]]]:
        """The synchronous step of :meth:`submit`: admission, and the
        answer when the request needs no wait.

        Returns :meth:`submit`'s answer when the request is settled on
        the spot, and otherwise an awaitable that gives it: a request
        coalesced onto a computation in flight, or one handed to a
        worker thread.  Raises what :meth:`submit` raises, and for an
        awaitable its await does.  The server calls this directly, so a
        request answered here costs the event loop no task.

        ``tier`` is what the cache did for the computation the request
        was answered by: ``"cache"`` for a hit, ``"miss"`` when the
        scheduler ran (a miss, or no cache); a coalesced request gets
        its leader's tier.  A hit is answered here on the event loop,
        so it needs no free worker thread and is served even with
        ``queue_limit`` computations in flight; only a probe that finds
        the cache lock held by a worker thread sends a hit to a worker
        thread.

        A miss that passes the ``queue_limit`` check is computed here
        on the event loop too when all of these hold: the scheduler's
        registered name is ``rle`` (the only scheduler whose cost the
        link count bounds), the problem has at most
        :data:`LOOP_MAX_LINKS` links, the cache (if any) has no
        directory, so an insert holds its lock only for bookkeeping,
        and the probe took the lock, so no worker thread holds it.
        Such a computation is never in flight: nothing coalesces onto
        it, and it is not counted in ``inflight`` or ``batches``.
        Every other miss is one call on the thread pool.

        ``key`` is the request's :meth:`request_key` when the caller
        knows it.  With it, ``problem`` may be a function that builds
        the problem: it is called only when the request must be
        computed, so a hit or a coalesced request builds nothing.  Such
        requests are counted in ``known_body`` (the server passes one
        for a body it has parsed before).
        """
        if self._closed:
            raise Overloaded("broker is closed")
        name = scheduler or self.default_scheduler
        # Resolved before any counter moves: an unknown name raises
        # KeyError and leaves the accounting identities intact.
        scheduler_id = self._scheduler_id(name)
        self._counters["requests"] += 1
        obs_metrics.inc("service.requests")
        if not isinstance(problem, FadingRLS):
            self._counters["known_body"] += 1
            obs_metrics.inc("service.known_body")
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
        if key is None:
            key = exact_key(problem, scheduler_id)
        future = self._inflight.get(key)
        coalesced = future is not None
        if coalesced:
            self._counters["coalesced"] += 1
            obs_metrics.inc("service.coalesced")
        else:
            hit, locked = (None, True) if self._cache is None else self._cache.probe(key)
            if hit is not None:
                self._counters["scheduled"] += 1
                obs_metrics.inc("service.scheduled")
                return _answer(hit, "cache", False, trace_id, t0)
            if len(self._inflight) >= self.queue_limit:
                self._counters["rejected_503"] += 1
                obs_metrics.inc("service.rejected_503")
                raise Overloaded(
                    f"{self.queue_limit} computations already pending or running"
                )
            if not isinstance(problem, FadingRLS):
                problem = problem()
            if locked and self._computes_on_loop(name, problem):
                schedule, tier = self._compute_on_loop(key, name, problem)
                return _answer(schedule, tier, False, trace_id, t0)
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            self._inflight[key] = future
            self._counters["batches"] += 1
            obs_metrics.inc("service.batches")
            computation = loop.run_in_executor(
                self._executor, self._schedule_one, key, name, problem
            )
            computation.add_done_callback(functools.partial(self._settle, key, future))
        return self._wait(future, coalesced, trace_id, t0)

    async def _wait(
        self, future: asyncio.Future, coalesced: bool, trace_id: str, t0: float
    ) -> Dict[str, Any]:
        """The answer of a request that waits on ``future``."""
        schedule, tier = await asyncio.shield(future)
        return _answer(schedule, tier, coalesced, trace_id, t0)

    # -- computations on the event loop ------------------------------

    def _computes_on_loop(self, name: str, problem: FadingRLS) -> bool:
        """Whether a miss whose probe took the cache lock is computed on
        the event loop (see :meth:`admit`)."""
        # The registered name, not the function: a registry entry may be
        # a wrapper around rle_schedule.
        return (
            name == "rle"
            and problem.n_links <= LOOP_MAX_LINKS
            and (self._cache is None or self._cache.directory is None)
        )

    def _compute_on_loop(
        self, key: str, name: str, problem: FadingRLS
    ) -> Tuple[Schedule, str]:
        """One computation on the event loop, counted as :meth:`_settle`
        counts a worker's."""
        try:
            result = self._schedule_one(key, name, problem)
        except Exception:
            self._counters["errors"] += 1
            obs_metrics.inc("service.errors")
            raise
        self._counters["scheduled"] += 1
        obs_metrics.inc("service.scheduled")
        return result

    # -- computations on the worker threads ---------------------------

    def _settle(self, key: str, future: asyncio.Future, computation: asyncio.Future) -> None:
        """Done-callback of one computation: count it, answer its waiters."""
        self._inflight.pop(key, None)
        if computation.cancelled():  # dropped by close(drain=False)
            return
        exc = computation.exception()
        if exc is None:
            self._counters["scheduled"] += 1
            obs_metrics.inc("service.scheduled")
            if not future.done():
                future.set_result(computation.result())
        else:
            self._counters["errors"] += 1
            obs_metrics.inc("service.errors")
            if not future.done():
                future.set_exception(exc)

    def _schedule_one(self, key: str, name: str, problem: FadingRLS) -> Tuple[Schedule, str]:
        """The schedule and its tier (a worker thread, or the event loop
        for a small rle miss): ``"cache"`` for a cache hit, ``"miss"``
        when the scheduler ran (a cache miss, or no cache).  ``key`` is
        the exact key :meth:`submit` computed."""
        with span("service.request", scheduler=name, n=problem.n_links):
            if self._cache is None:
                return get_scheduler(name)(problem), "miss"
            schedule, tier = self._cache.schedule(problem, name, return_tier=True, key=key)
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
        name = scheduler or self.default_scheduler
        engine = IncrementalScheduler(
            problem.links,
            scheduler=name,
            alpha=problem.alpha,
            gamma_th=problem.gamma_th,
            eps=problem.eps,
            noise=problem.noise,
            power=problem.power,
        )
        session = _Session(engine, name)
        self._sessions[session_id] = session
        self._counters["sessions_opened"] += 1
        obs_metrics.inc("service.sessions_opened")
        async with session.lock:
            try:
                schedule = await self._run_session_op(engine.schedule)
            except Exception:
                # A session whose first schedule failed is not open.
                self._sessions.pop(session_id, None)
                raise
        return {
            "schedule": schedule,
            "trace_id": self._next_trace_id("ses"),
            "seq": session.seq,
        }

    async def apply_delta(self, session_id: str, delta: LinkDelta) -> Dict[str, Any]:
        """Stream one delta into an open session; returns the repair.

        A delta that would take the session past its scheduler's link
        cap (:func:`schemas.check_links`) raises ``too-many-links``
        before anything runs, and leaves the session as it was.
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no open session {session_id!r}")
        async with session.lock:
            n_links = session.engine.n_links - delta.n_removed + delta.n_inserted
            schemas.check_links(n_links, session.scheduler)
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
        if self._closed:
            raise Overloaded("broker is closed")
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn)

    def close_session(self, session_id: str) -> bool:
        """Drop a session; returns whether it existed."""
        return self._sessions.pop(session_id, None) is not None

    # -- introspection ------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters, computations in flight, sessions, and cache stats
        (statz body).  ``batches`` and ``inflight`` count computations
        handed to a worker thread; one on the event loop is in
        neither."""
        out: Dict[str, Any] = dict(self._counters)
        out["inflight"] = len(self._inflight)
        out["open_sessions"] = len(self._sessions)
        out["tenants"] = len(self._buckets)
        out["queue_limit"] = self.queue_limit
        out["n_workers"] = self.n_workers
        out["cache"] = self._cache.stats if self._cache is not None else None
        return out
