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

A ``POST /v1/schedule`` body byte-identical to one parsed before is not
parsed again.  The server keeps the SHA-256 digest of each body it has
parsed successfully, mapped to what the parse gave (the request's exact
key, scheduler, tenant and link count), least recently used first and
at most as many as the cache holds entries (none without a cache).  A
known body goes to :meth:`ScheduleBroker.submit` with its key, so the
tenant's bucket, ``queue_limit``, coalescing, the cache probe and every
counter run as for any request; the body is parsed again only when the
request must be computed.

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
from typing import Any, Callable, Dict, NamedTuple, Optional, Set, Tuple

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


class _KnownBody(NamedTuple):
    """What parsing a ``POST /v1/schedule`` body gave."""

    key: str
    scheduler: str
    tenant: str
    n_links: int


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
        self._started = time.monotonic()
        # live connection handlers, and the writers of those waiting
        # for their next request head (safe to close at shutdown)
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False
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
        # backlog above the default 100 so a synchronized 1000-client
        # connect burst is accepted instead of stalling in SYN retries
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=4096
        )
        self._started = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop accepting, then end every open connection.

        Idle keep-alive connections are closed at once; a connection in
        the middle of a request gets its response (with ``Connection:
        close``) first.  Handlers still running after
        :data:`CLOSE_GRACE_SECONDS` are aborted.  Every handler returns
        on its own, so none is left for the event loop's shutdown to
        cancel (on Python 3.11 a cancelled handler makes ``asyncio`` log
        a traceback).
        """
        if self._server is None:
            return
        self._server.close()
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            _, pending = await asyncio.wait(list(self._handlers), timeout=CLOSE_GRACE_SECONDS)
            for task in pending:
                self._handlers[task].transport.abort()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        await self._server.wait_closed()
        self._server = None

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- the connection loop ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._handlers[asyncio.current_task()] = writer
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    break
                finally:
                    self._idle.discard(writer)
                parsed = _parse_head(head)
                if parsed is None:
                    await self._respond(
                        writer, 400,
                        schemas.error_payload("bad-request", "malformed HTTP request"),
                        keep_alive=False,
                    )
                    break
                method, path, headers = parsed
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(
                        writer, 400,
                        schemas.error_payload("bad-request", "bad Content-Length"),
                        keep_alive=False,
                    )
                    break
                if length > MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413,
                        schemas.error_payload(
                            "body-too-large",
                            f"request body exceeds {MAX_BODY_BYTES} bytes",
                        ),
                        keep_alive=False,
                    )
                    break
                body = b""
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except (asyncio.IncompleteReadError, ConnectionResetError):
                        break
                t0 = time.perf_counter()
                status, payload = await self._dispatch(method, path, body)
                keep_alive = (
                    not self._closing and headers.get("connection", "").lower() != "close"
                )
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if self.access_log is not None:
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    trace = payload.get("trace_id") or payload.get("error", {}).get(
                        "trace_id", "-"
                    )
                    self.access_log(
                        f"{method} {path} {status} {wall_ms:.2f}ms {trace}"
                    )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            finally:
                del self._handlers[asyncio.current_task()]

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        body = orjson.dumps(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode()
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- routing ------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
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
                return await self._schedule(body)
            m = _SESSION_RE.match(path)
            if m is not None:
                if method != "POST":
                    return 405, schemas.error_payload("method-not-allowed", method)
                return await self._session_delta(m.group(1), body)
            return 404, schemas.error_payload("unknown-route", f"{method} {path}")
        except ValidationError as exc:
            return 400, schemas.error_payload(exc.code, str(exc), param=exc.param)
        except ServiceError as exc:
            return exc.status, schemas.error_payload(
                exc.code, str(exc), retry_after=exc.retry_after
            )
        except Exception as exc:  # pragma: no cover - defensive catch-all
            return 500, schemas.error_payload("internal-error", str(exc))

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

    async def _schedule(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
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
            result = await self.broker.submit(
                problem, scheduler=known.scheduler, tenant=known.tenant, key=known.key
            )
        except ValidationError as exc:  # e.g. rle's alpha > 2
            raise schemas.topology_error(exc) from None
        return 200, schemas.schedule_payload(
            result["schedule"],
            known.n_links,
            trace_id=result["trace_id"],
            tier=result["tier"],
            coalesced=result["coalesced"],
            wall_seconds=result["wall_seconds"],
        )

    async def _session_delta(
        self, session_id: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
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
            try:
                result = await self.broker.open_session(
                    session_id, problem, scheduler=scheduler
                )
            except ValidationError as exc:
                raise schemas.topology_error(exc) from None
        else:
            delta = schemas.parse_delta(payload["delta"])
            try:
                result = await self.broker.apply_delta(session_id, delta)
            except (IndexError, ValueError) as exc:  # the delta does not fit the session
                if getattr(exc, "code", None) == schemas.CODE_TOO_MANY_LINKS:
                    raise
                raise ValidationError(
                    str(exc), code=schemas.CODE_BAD_DELTA, param=getattr(exc, "param", None)
                ) from None
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


def _openers(body: bytes) -> int:
    """How many ``[`` and ``{`` bytes ``body`` holds, strings included."""
    raw = np.frombuffer(body, dtype=np.uint8)
    return int(np.count_nonzero(raw == ord("["))) + int(np.count_nonzero(raw == ord("{")))


def _parse_head(head: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """``(method, path, lowercase headers)`` or ``None`` when malformed."""
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
        headers[name.strip().lower()] = value.strip()
    path = target.split("?", 1)[0]
    return method, path, headers
