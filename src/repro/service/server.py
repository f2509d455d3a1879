"""The HTTP transport of :mod:`repro.service` — stdlib asyncio, orjson on the wire.

This is the "endpoint" half of the plexi-style split: it parses
HTTP/1.1 off the socket, validates JSON against
:mod:`repro.service.schemas`, and hands every decision to the
:class:`~repro.service.broker.ScheduleBroker`.  No scheduling policy
lives here.

Routes::

    GET  /v1/healthz              liveness + uptime
    GET  /v1/statz                broker/cache/session counters
    POST /v1/schedule             topology -> schedule (cache-tiered)
    POST /v1/sessions/{id}/delta  open a session / stream LinkDeltas

Error mapping: :class:`~repro.utils.validation.ValidationError` → 400
with the validator's stable ``code`` (a check on a request's topology
or channel parameters, the scheduler's own domain checks included, is
``bad-topology``); :class:`ServiceError` subclasses
→ their pinned status (429/503/404/409) and ``code``; anything else →
500 ``internal-error``.  Every response carries the request's trace id.

The server speaks enough HTTP/1.1 for real clients (``curl``, any
connection-pooling SDK): keep-alive with ``Content-Length`` framing,
``Connection: close`` honoured, oversized bodies refused with 413.  An
optional FastAPI/uvicorn adapter can layer on top via the ``service``
extra, but tier-1 never needs it.

Each connection is an :class:`asyncio.Protocol` with one buffer.  A
request that needs no wait is answered inside the callback that
completed it, with one ``transport.write``: health and stats, every
refusal, a cache hit and a small ``rle`` miss the broker computes on
the event loop (:meth:`ScheduleBroker.admit`).  Only a request that
must wait becomes a task — a worker-thread computation, a request
coalesced onto one, or a session open or delta — and its connection
reads nothing more until the answer is written, so responses keep
request order.  After an answer, a request already buffered behind it
is framed on a later turn of the loop, so a client that pipelines
cannot hold the loop for all its requests in a row.

A ``POST /v1/schedule`` body byte-identical to one parsed before is not
parsed again.  The server keeps the SHA-256 digest of each body it has
parsed successfully, mapped to what the parse gave (the request's exact
key, scheduler, tenant and link count), least recently used first and
at most as many as the cache holds entries (none without a cache).  A
known body goes to the broker with its key, so the tenant's bucket,
``queue_limit``, coalescing, the cache probe and every counter run as
for any request; the body is parsed again only when the request must
be computed.

Bodies are decoded and responses encoded with orjson, which parses a
topology's floats several times faster than :mod:`json` and to the same
bits.  The stdlib decoder reads the bodies orjson refuses and
:mod:`json` accepts (``NaN``/``Infinity``, numbers past a double's
range, a byte order mark, UTF-16/32, lone surrogates), so they get the
same typed 400s, and every body that may nest deeper than orjson can
safely read (see :data:`ORJSON_MAX_OPENERS`).  Responses are compact
JSON.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import time
from collections import OrderedDict
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np
import orjson

from repro.service import schemas
from repro.service.broker import ScheduleBroker, ServiceError
from repro.utils.validation import ValidationError, check_interval

__all__ = ["ROUTE_TEMPLATES", "ScheduleServer"]

#: The public routes, for docs/SERVICE.md's contract check: every
#: template must appear backticked in the '## Endpoints' section.
ROUTE_TEMPLATES: Tuple[str, ...] = (
    "GET /v1/healthz",
    "GET /v1/statz",
    "POST /v1/schedule",
    "POST /v1/sessions/{id}/delta",
)

_SESSION_RE = re.compile(r"^/v1/sessions/([A-Za-z0-9_.-]{1,64})/delta$")

#: Refuse request bodies beyond this many bytes with 413 (a 4096-link
#: topology serialises to ~300 KiB; 8 MiB leaves generous headroom).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: A request head (request line and headers, through the blank line
#: that ends them) longer than this closes the connection without a
#: response.  It also bounds the requests a connection may have
#: buffered behind the one being answered: past it the connection
#: reads nothing more until they are framed.
MAX_HEAD_BYTES = 64 * 1024

#: orjson before 3.9.15 has no nesting limit: it builds the parsed value
#: by recursing on the C stack, so a closed body 10**6 levels deep (2 MB,
#: under MAX_BODY_BYTES) crashes the process (CVE-2024-27454).  A body
#: nests no deeper than it has ``[`` and ``{`` bytes, so orjson reads
#: only bodies with at most this many, the depth later orjson versions
#: enforce themselves; a 300-link topology has about 600.  Any other
#: body goes to :mod:`json`, whose RecursionError is a 400 ``bad-json``.
ORJSON_MAX_OPENERS = 1024

#: On close, a connection still busy this many seconds after the
#: listener stopped is aborted.
CLOSE_GRACE_SECONDS = 5.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: A route's answer: ``(status, payload)``, or an awaitable of it for a
#: request that must wait.
_Answer = Union[Tuple[int, Dict[str, Any]], Awaitable[Tuple[int, Dict[str, Any]]]]


class _KnownBody(NamedTuple):
    """What parsing a ``POST /v1/schedule`` body gave."""

    key: str
    scheduler: str
    tenant: str
    n_links: int


class _Head(NamedTuple):
    """A framed request head: the body is ``buffer[start:end]``."""

    method: str
    path: str
    keep_alive: bool
    start: int
    end: int


class ScheduleServer:
    """Bind, accept, parse, route — the transport around a broker."""

    def __init__(
        self,
        broker: ScheduleBroker,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.broker = broker
        self.host = host
        self.port = int(check_interval(port, "port", 0, 65535))
        self.access_log = access_log
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = time.monotonic()
        # open connections, and the tasks of the requests that wait
        self._connections: Set[_Connection] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._closing = False
        # resolved by close() once both sets are empty
        self._drained: Optional[asyncio.Future] = None
        # SHA-256 of a parsed /v1/schedule body -> what the parse gave,
        # least recently used first (see the module docstring)
        self._known: "OrderedDict[bytes, _KnownBody]" = OrderedDict()
        self._known_capacity = broker.cache_capacity

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the tests' default), and the
        returned port is the real one.
        """
        self._loop = asyncio.get_running_loop()
        # backlog above the default 100 so a synchronized 1000-client
        # connect burst is accepted instead of stalling in SYN retries
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port, backlog=4096
        )
        self._started = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop accepting, then end every open connection.

        Idle keep-alive connections are closed at once; a connection in
        the middle of a request gets its response (with ``Connection:
        close``) first.  Connections still open after
        :data:`CLOSE_GRACE_SECONDS` are aborted.  Every request task
        ends on its own, so none is left for the event loop's shutdown
        to cancel.
        """
        if self._server is None:
            return
        self._server.close()
        self._closing = True
        self._drained = self._loop.create_future()
        for conn in list(self._connections):
            conn.shutdown()
        self._settled()
        _, pending = await asyncio.wait([self._drained], timeout=CLOSE_GRACE_SECONDS)
        if pending:
            for conn in list(self._connections):
                conn.abort()
            await asyncio.wait([self._drained], timeout=1.0)
        await self._server.wait_closed()
        self._server = None

    def _settled(self) -> None:
        """Resolve :meth:`close`'s wait once nothing is open or waiting."""
        drained = self._drained
        if drained is not None and not drained.done():
            if not self._connections and not self._tasks:
                drained.set_result(None)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._settled()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- routing ------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> _Answer:
        """``(status, payload)`` for one request, or an awaitable of it
        when the request must wait (see the module docstring)."""
        try:
            if path == "/v1/healthz":
                if method != "GET":
                    return 405, schemas.error_payload("method-not-allowed", method)
                return 200, {
                    "status": "ok",
                    "uptime_seconds": round(self.uptime_seconds, 3),
                }
            if path == "/v1/statz":
                if method != "GET":
                    return 405, schemas.error_payload("method-not-allowed", method)
                return 200, {
                    "status": "ok",
                    "uptime_seconds": round(self.uptime_seconds, 3),
                    "broker": self.broker.stats,
                }
            if path == "/v1/schedule":
                if method != "POST":
                    return 405, schemas.error_payload("method-not-allowed", method)
                return self._schedule(body)
            m = _SESSION_RE.match(path)
            if m is not None:
                if method != "POST":
                    return 405, schemas.error_payload("method-not-allowed", method)
                return self._session_delta(m.group(1), body)
            return 404, schemas.error_payload("unknown-route", f"{method} {path}")
        except Exception as exc:
            return _error(exc)

    @staticmethod
    async def _waited(pending: Awaitable[Tuple[int, Dict[str, Any]]]) -> Tuple[int, Dict[str, Any]]:
        """The answer of a request that waits, errors mapped as
        :meth:`_dispatch` maps them."""
        try:
            return await pending
        except Exception as exc:
            return _error(exc)

    @staticmethod
    def _json(body: bytes) -> Any:
        if not body:
            return {}
        if _openers(body) <= ORJSON_MAX_OPENERS:
            try:
                return orjson.loads(body)
            except orjson.JSONDecodeError:
                pass  # json may still read it (see the module docstring)
        try:
            return json.loads(body)
        # UnicodeDecodeError is a ValueError; RecursionError (nesting past
        # the interpreter's limit) is not.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(
                f"request body is not valid JSON: {exc}", code=schemas.CODE_BAD_JSON
            ) from None

    def _schedule(self, body: bytes) -> _Answer:
        digest = hashlib.sha256(body).digest() if self._known_capacity else None
        known = self._known.get(digest)
        if known is None:
            problem, scheduler, tenant = schemas.parse_schedule_request(self._json(body))
            known = _KnownBody(
                self.broker.request_key(problem, scheduler), scheduler, tenant, problem.n_links
            )
            if digest is not None:
                self._known[digest] = known
                if len(self._known) > self._known_capacity:
                    self._known.popitem(last=False)
        else:
            self._known.move_to_end(digest)

            def problem():
                return schemas.parse_schedule_request(self._json(body))[0]

        try:
            answer = self.broker.admit(
                problem, scheduler=known.scheduler, tenant=known.tenant, key=known.key
            )
        except ValidationError as exc:  # e.g. rle's alpha > 2
            raise schemas.topology_error(exc) from None
        if isinstance(answer, dict):
            return _schedule_payload(answer, known.n_links)
        return self._schedule_waited(answer, known.n_links)

    @staticmethod
    async def _schedule_waited(
        pending: Awaitable[Dict[str, Any]], n_links: int
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            answer = await pending
        except ValidationError as exc:  # e.g. rle's alpha > 2 on a worker
            raise schemas.topology_error(exc) from None
        return _schedule_payload(answer, n_links)

    def _session_delta(self, session_id: str, body: bytes) -> _Answer:
        payload = self._json(body)
        if not isinstance(payload, dict) or ("topology" in payload) == (
            "delta" in payload
        ):
            raise ValidationError(
                "session request must contain exactly one of 'topology' "
                "(open) or 'delta' (repair)",
                code=schemas.CODE_BAD_SESSION_REQUEST,
            )
        if "topology" in payload:
            problem = schemas.parse_topology(payload["topology"])
            scheduler = schemas.parse_scheduler(payload)
            schemas.check_links(problem.n_links, scheduler)
            return self._open_session(session_id, problem, scheduler)
        return self._apply_delta(session_id, schemas.parse_delta(payload["delta"]))

    async def _open_session(
        self, session_id: str, problem: Any, scheduler: str
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            result = await self.broker.open_session(session_id, problem, scheduler=scheduler)
        except ValidationError as exc:
            raise schemas.topology_error(exc) from None
        return _session_payload(session_id, result)

    async def _apply_delta(self, session_id: str, delta: Any) -> Tuple[int, Dict[str, Any]]:
        try:
            result = await self.broker.apply_delta(session_id, delta)
        except (IndexError, ValueError) as exc:  # the delta does not fit the session
            if getattr(exc, "code", None) == schemas.CODE_TOO_MANY_LINKS:
                raise
            raise ValidationError(
                str(exc), code=schemas.CODE_BAD_DELTA, param=getattr(exc, "param", None)
            ) from None
        return _session_payload(session_id, result)


class _Connection(asyncio.Protocol):
    """One client connection: frames requests out of one buffer and
    answers each in the callback that completed it, unless it must wait
    (see the module docstring)."""

    def __init__(self, server: ScheduleServer) -> None:
        self._server = server
        self._transport: Any = None
        self._buffer = bytearray()
        # bytes at the front of the buffer already searched for a head's end
        self._scanned = 0
        # the framed head of a request whose body is still coming in
        self._head: Optional[_Head] = None
        # the task of the request that waits, if any
        self._task: Optional[asyncio.Task] = None
        # a _frame call is scheduled for a later turn of the loop
        self._deferred = False
        self._write_paused = False
        self._reading = True
        self._eof = False

    # -- transport callbacks ------------------------------------------

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        if self._server._closing:
            transport.close()
            return
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self._server
        server._connections.discard(self)
        server._settled()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._deferred:
            self._update_reading()
        else:
            self._frame()

    def eof_received(self) -> bool:
        self._eof = True
        if not self._deferred:
            self._frame()
        return True  # keep the transport: a waiting request still answers

    def pause_writing(self) -> None:
        self._write_paused = True
        self._update_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._update_reading()
        if not self._deferred:
            self._next()

    # -- shutdown ----------------------------------------------------

    @property
    def busy(self) -> bool:
        """Mid-request: a request waits in its task, or a body is coming in."""
        return self._task is not None or self._head is not None

    def shutdown(self) -> None:
        """Close now when idle; a busy connection closes after its answer."""
        if not self.busy:
            self._transport.close()

    def abort(self) -> None:
        self._transport.abort()

    # -- framing -----------------------------------------------------

    def _frame(self) -> None:
        """Frame the next request in the buffer and answer it, unless it
        is not all in yet."""
        self._deferred = False
        if self._task is not None or self._write_paused or self._transport.is_closing():
            return
        head = self._head
        if head is None:
            head = self._next_head()
            if head is None:
                return
        buf = self._buffer
        if len(buf) < head.end:
            self._head = head
            self._need_more()
            return
        self._head = None
        body = bytes(buf[head.start : head.end])
        del buf[: head.end]
        self._request(head, body)

    def _next_head(self) -> Optional[_Head]:
        """The head at the front of the buffer, or ``None`` when it is
        not all in yet or the connection was refused and closed."""
        buf = self._buffer
        end = buf.find(b"\r\n\r\n", self._scanned)
        if end < 0:
            if len(buf) >= MAX_HEAD_BYTES:
                self._transport.close()
            else:
                self._scanned = max(0, len(buf) - 3)
                self._need_more()
            return None
        self._scanned = 0
        if end + 4 > MAX_HEAD_BYTES:
            self._transport.close()
            return None
        parsed = _parse_head(buf[: end + 4])
        if parsed is None:
            return self._refuse(400, "bad-request", "malformed HTTP request")
        method, path, headers = parsed
        if "transfer-encoding" in headers:
            return self._refuse(400, "bad-request", "Transfer-Encoding is not supported")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return self._refuse(400, "bad-request", "bad Content-Length")
        if int(length) > MAX_BODY_BYTES:
            return self._refuse(
                413, "body-too-large", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        keep_alive = headers.get("connection", "").lower() != "close"
        return _Head(method, path, keep_alive, end + 4, end + 4 + int(length))

    def _need_more(self) -> None:
        """The buffer ends inside a request: read on, or close at EOF."""
        if self._eof:
            self._transport.close()
        else:
            self._update_reading()

    def _refuse(self, status: int, code: str, message: str) -> None:
        """Answer a request that cannot be framed, then close."""
        self._transport.write(_encode(status, schemas.error_payload(code, message), False))
        self._transport.close()

    # -- answering ---------------------------------------------------

    def _request(self, head: _Head, body: bytes) -> None:
        server = self._server
        t0 = time.perf_counter()
        answer = server._dispatch(head.method, head.path, body)
        if isinstance(answer, tuple):
            self._respond(head, t0, *answer)
            self._next()
            return
        task = server._loop.create_task(self._wait(head, t0, server._waited(answer)))
        self._task = task
        server._tasks.add(task)
        task.add_done_callback(server._task_done)
        self._update_reading()

    async def _wait(
        self, head: _Head, t0: float, pending: Awaitable[Tuple[int, Dict[str, Any]]]
    ) -> None:
        status, payload = await pending
        self._task = None
        self._respond(head, t0, status, payload)
        self._update_reading()
        self._next()

    def _respond(self, head: _Head, t0: float, status: int, payload: Dict[str, Any]) -> None:
        server = self._server
        keep_alive = head.keep_alive and not server._closing
        transport = self._transport
        if not transport.is_closing():  # the client may have gone
            transport.write(_encode(status, payload, keep_alive))
            if not keep_alive:
                transport.close()
        if server.access_log is not None:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            trace = payload.get("trace_id") or payload.get("error", {}).get("trace_id", "-")
            server.access_log(f"{head.method} {head.path} {status} {wall_ms:.2f}ms {trace}")

    def _next(self) -> None:
        """After an answer: frame a buffered request on a later turn of
        the loop, or close at EOF."""
        if self._task is not None or self._write_paused or self._transport.is_closing():
            return
        if self._buffer:
            self._deferred = True
            self._server._loop.call_soon(self._frame)
            self._update_reading()
        elif self._eof:
            self._transport.close()

    def _update_reading(self) -> None:
        """Read while nothing waits, the transport takes writes, and at
        most MAX_HEAD_BYTES of requests wait to be framed."""
        transport = self._transport
        if transport.is_closing():
            return
        reading = (
            self._task is None
            and not self._write_paused
            and not (self._deferred and len(self._buffer) > MAX_HEAD_BYTES)
        )
        if reading != self._reading:
            self._reading = reading
            if reading:
                transport.resume_reading()
            else:
                transport.pause_reading()


def _error(exc: Exception) -> Tuple[int, Dict[str, Any]]:
    """The response to a request that raised ``exc``."""
    if isinstance(exc, ValidationError):
        return 400, schemas.error_payload(exc.code, str(exc), param=exc.param)
    if isinstance(exc, ServiceError):
        return exc.status, schemas.error_payload(
            exc.code, str(exc), retry_after=exc.retry_after
        )
    return 500, schemas.error_payload("internal-error", str(exc))


def _schedule_payload(answer: Dict[str, Any], n_links: int) -> Tuple[int, Dict[str, Any]]:
    return 200, schemas.schedule_payload(
        answer["schedule"],
        n_links,
        trace_id=answer["trace_id"],
        tier=answer["tier"],
        coalesced=answer["coalesced"],
        wall_seconds=answer["wall_seconds"],
    )


def _session_payload(session_id: str, result: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    schedule = result["schedule"]
    return 200, {
        "trace_id": result["trace_id"],
        "session": session_id,
        "seq": result["seq"],
        "algorithm": schedule.algorithm,
        "active": [int(i) for i in schedule.active],
        "n_active": int(schedule.size),
        "mode": schedule.diagnostics.get("mode"),
    }


def _encode(status: int, payload: Dict[str, Any], keep_alive: bool) -> bytes:
    """One whole response: head and compact JSON body."""
    body = orjson.dumps(payload)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode()
    return head + body


def _openers(body: bytes) -> int:
    """How many ``[`` and ``{`` bytes ``body`` holds, strings included."""
    raw = np.frombuffer(body, dtype=np.uint8)
    return int(np.count_nonzero(raw == ord("["))) + int(np.count_nonzero(raw == ord("{")))


def _parse_head(head: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """``(method, path, lowercase headers)`` or ``None`` when malformed,
    two ``Content-Length`` headers that disagree included."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        return None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            return None  # which body is meant is ambiguous
        headers[name] = value
    path = target.split("?", 1)[0]
    return method, path, headers
